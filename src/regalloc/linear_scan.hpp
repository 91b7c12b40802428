/**
 * @file
 * Linear-scan register allocation onto the machine register file.
 *
 * The paper's back end preschedules with an infinite-register variant
 * of the target, allocates registers, then postschedules restricted by
 * the allocation decisions (§2.3).  This allocator maps each
 * procedure's virtual registers onto the 128-entry file by linear scan
 * on exact live ranges with lifetime holes (Traub, Holloway & Smith,
 * PLDI 1998), built from a liveness solve of the procedure.  It hands
 * out the free register freed longest ago, so a block rarely reuses a
 * register and keeps its compact schedule, and shares a register in a
 * lifetime hole only when none is free.  Parameters are precolored
 * onto registers 0..k-1 (the calling convention).  Where no register
 * can be shared either, the same scan spills to the activation's frame
 * (LdFrame/StFrame, Procedure::frameSlots), so recursion needs no care
 * and every procedure ends on the machine's registers; only an
 * instruction whose operands alone overflow the file fails the
 * allocation, with a typed ScheduleFailed.  No workload spills.
 */

#ifndef PATHSCHED_REGALLOC_LINEAR_SCAN_HPP
#define PATHSCHED_REGALLOC_LINEAR_SCAN_HPP

#include <cstdint>
#include <vector>

#include "analysis/liveness.hpp"
#include "ir/procedure.hpp"
#include "support/status.hpp"

namespace pathsched::regalloc {

/** Counters reported by allocateProgram. */
struct AllocStats
{
    uint64_t procsAllocated = 0;
    /** Always 0: every procedure is allocated or fails with a typed
     *  status.  Kept for perfbench/replay.cpp, which reads it. */
    uint64_t procsSkipped = 0;
    uint64_t regsSpilled = 0; ///< registers sent to frame slots
    /** Scans (one live-range build each): 1 per procedure with
     *  something to allocate, 0 for one without. */
    uint64_t rounds = 0;
    /** Liveness solves of its own (a handed-over solve is not one),
     *  and the worklist block visits they took. */
    uint64_t liveSolves = 0;
    uint64_t liveVisits = 0;
    /** Most physical registers in use at once; a register shared in
     *  lifetime holes counts once. */
    uint32_t maxPressure = 0;

    AllocStats &
    operator+=(const AllocStats &o)
    {
        procsAllocated += o.procsAllocated;
        regsSpilled += o.regsSpilled;
        rounds += o.rounds;
        liveSolves += o.liveSolves;
        liveVisits += o.liveVisits;
        maxPressure = maxPressure > o.maxPressure ? maxPressure
                                                  : o.maxPressure;
        return *this;
    }
};

/** @name Kept only for perfbench/replay.cpp
 *  Spill slots live in each activation's frame, so no caller needs
 *  these any more; they go with the next change to the benchmark.
 *  @{ */

/** Slots a procedure took in data memory: always 0. */
struct SpillPlan
{
    uint64_t slots = 0;
};

/** Does nothing: no spill slot lives in data memory. */
inline void rebaseSpillSlots(ir::Procedure &, uint64_t) {}

/** Procedures of @p prog that can reach themselves through the call
 *  graph. */
std::vector<uint8_t> findRecursiveProcs(const ir::Program &prog);

/** @} */

/** Knobs for allocateProcedure beyond the register count.  None
 *  bounds the scan's work: the pipeline polls the run's deadline at
 *  the stage boundaries around it. */
struct AllocOptions
{
    /** Unread; kept for perfbench/replay.cpp (see above). */
    const std::vector<uint8_t> *recursive = nullptr;
    SpillPlan *spill = nullptr;
    /**
     * A liveness solve of the procedure exactly as it stands (not
     * owned, nullable), used instead of solving again.  The pipeline
     * hands over compaction's final solve here.
     */
    const analysis::Liveness *liveness = nullptr;
};

/**
 * Allocate procedure @p proc of @p prog onto @p num_phys_regs
 * registers, rewriting register operands in place, adding the spill
 * code of any register sent to the frame, and accumulating counters
 * into @p stats — the recoverable per-procedure entry point behind
 * allocateProgram(), and the form the pipeline's chains call.
 * Allocation clears exactly the block schedules it makes stale: each
 * block it inserts spill code into, and each block on which the final
 * register assignment is not injective (see DESIGN.md §5.4).  A block
 * that keeps a valid schedule would be rescheduled to the same issue
 * order and cycles, so the postschedule keeps it.
 * A non-OK return is a ScheduleFailed when the procedure cannot be
 * allocated at all (more parameters than machine registers, or one
 * instruction whose operands need more); @p proc is then left as it
 * was.
 */
Status allocateProcedure(ir::Program &prog, ir::ProcId proc,
                         uint32_t num_phys_regs, AllocStats &stats,
                         const AllocOptions &options);

/**
 * Allocate every procedure of @p prog onto @p num_phys_regs registers.
 * Panics on failure — callers that need recovery use
 * allocateProcedure().
 */
AllocStats allocateProgram(ir::Program &prog, uint32_t num_phys_regs);

} // namespace pathsched::regalloc

#endif // PATHSCHED_REGALLOC_LINEAR_SCAN_HPP
