/**
 * @file
 * Per-block value-numbering-lite and dead-code elimination.
 *
 * The paper's back end performs "value numbering and dead-code
 * elimination" on each superblock before prescheduling (§2.3).  This
 * pass implements the pieces that matter for compaction quality:
 *
 *  - copy propagation ("move renaming": a use of an unscheduled move's
 *    destination is substituted with the move's source);
 *  - constant propagation of Ldi values into immediate operand forms;
 *  - add-immediate chain folding (i+1+1 -> i+2), which is what lets an
 *    unrolled induction variable update in parallel across iterations;
 *  - folding of add-immediate chains into load/store address offsets;
 *  - dead-code elimination precise to superblock side exits.
 *
 * A sweep is one forward simplification pass and one backward dead-code
 * pass.  Another sweep runs only when it can still change something:
 * when the dead-code pass removed an instruction and the forward pass
 * declined a stale copy or chain fact (one whose source was redefined
 * after the fact was recorded).  That stops exactly where iterating
 * until nothing changes would:
 *  - on code it has already simplified, the forward pass changes
 *    nothing;
 *  - dead-code elimination removes only definitions nothing reads, so
 *    the one fact a new forward pass could use is one that a removed
 *    redefinition had made stale;
 *  - after a forward pass that changed nothing, the dead-code pass
 *    removes nothing: one backward pass already removes every
 *    transitively dead instruction.
 */

#ifndef PATHSCHED_SCHED_LOCAL_OPT_HPP
#define PATHSCHED_SCHED_LOCAL_OPT_HPP

#include <cstdint>

#include "analysis/liveness.hpp"
#include "ir/procedure.hpp"

namespace pathsched::sched {

/** Counters reported by optimizeBlock. */
struct LocalOptStats
{
    uint64_t copiesPropagated = 0;
    uint64_t constantsFolded = 0;
    uint64_t chainsFolded = 0;
    uint64_t deadRemoved = 0;
    /** Forward + dead-code sweeps run. */
    uint64_t sweeps = 0;

    LocalOptStats &
    operator+=(const LocalOptStats &o)
    {
        copiesPropagated += o.copiesPropagated;
        constantsFolded += o.constantsFolded;
        chainsFolded += o.chainsFolded;
        deadRemoved += o.deadRemoved;
        sweeps += o.sweeps;
        return *this;
    }
};

/** optimizeBlock runs at most this many sweeps on a block. */
constexpr int kMaxLocalOptSweeps = 4;

/** What one sweep did. */
struct LocalOptSweep
{
    bool changed = false;       ///< either pass changed the block
    bool removed = false;       ///< the dead-code pass removed something
    bool declinedStale = false; ///< the forward pass declined a stale fact
};

/**
 * One sweep over block @p b of @p proc, counted into @p stats: the unit
 * optimizeBlock repeats (public so tests can iterate it to a fixpoint).
 */
LocalOptSweep optimizeSweep(ir::Procedure &proc, ir::BlockId b,
                            const analysis::Liveness &live,
                            LocalOptStats &stats);

/**
 * Optimize block @p b of @p proc in place.  @p live must describe the
 * procedure in its current form; the pass never changes cross-block
 * liveness (it only removes instructions and rewrites operands), so one
 * Liveness instance remains valid across a whole-procedure sweep.
 */
LocalOptStats optimizeBlock(ir::Procedure &proc, ir::BlockId b,
                            const analysis::Liveness &live);

} // namespace pathsched::sched

#endif // PATHSCHED_SCHED_LOCAL_OPT_HPP
