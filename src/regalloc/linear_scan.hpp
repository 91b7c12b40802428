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
 * onto registers 0..k-1 (the calling convention).  A procedure whose
 * live ranges do not fit spills its longest ones to memory, 16 per
 * round; a recursive one is left on virtual registers and counted in
 * AllocStats::procsSkipped.  No workload needs either.
 */

#ifndef PATHSCHED_REGALLOC_LINEAR_SCAN_HPP
#define PATHSCHED_REGALLOC_LINEAR_SCAN_HPP

#include <cstdint>
#include <vector>

#include "analysis/liveness.hpp"
#include "ir/procedure.hpp"
#include "support/budget.hpp"
#include "support/status.hpp"

namespace pathsched::regalloc {

/** Counters reported by allocateProgram. */
struct AllocStats
{
    uint64_t procsAllocated = 0;
    uint64_t procsSkipped = 0;
    uint64_t regsSpilled = 0; ///< live ranges demoted to memory slots
    /** Allocation attempts (one live-range build each): 1 for a
     *  procedure that fits, one more per spill-and-retry, 0 for a
     *  procedure with nothing to allocate. */
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
        procsSkipped += o.procsSkipped;
        regsSpilled += o.regsSpilled;
        rounds += o.rounds;
        liveSolves += o.liveSolves;
        liveVisits += o.liveVisits;
        maxPressure = maxPressure > o.maxPressure ? maxPressure
                                                  : o.maxPressure;
        return *this;
    }
};

/**
 * @name Procedure-local spill slots
 *
 * Spill slots are issued *locally* per procedure (0, 1, 2, ...
 * recorded only in a SpillPlan), emitted into the IR offset from the
 * kSpillSlotBase sentinel — far above any real data address — and
 * rebased onto absolute addresses by rebaseSpillSlots() at a serial
 * point, in procedure-id order.  Allocation therefore never touches
 * shared program state, so concurrent per-procedure tasks allocate
 * safely and addresses never depend on completion order.
 * @{
 */

/** Spill-slot accounting for one procedure's allocation. */
struct SpillPlan
{
    /** Local slots issued so far (== slots the final body references). */
    uint64_t slots = 0;
};

/** Sentinel base for procedure-local slot ids inside Ld/St offsets.
 *  Real data addresses are bounded by Program::memWords and never get
 *  near it. */
inline constexpr int64_t kSpillSlotBase = int64_t(1) << 40;

/**
 * Rewrite every sentinel-relative Ld/LdSpec/St offset of @p proc to an
 * absolute slot address starting at @p base (local slot k becomes
 * address base + k).  Must run before the procedure is interpreted.
 * Postscheduling may come first: the dependence graph tells memory ops
 * apart by base register and offset inequality, and every slot moves by
 * the same constant, so no dependence edge changes.
 */
void rebaseSpillSlots(ir::Procedure &proc, uint64_t base);

/** @} */

/**
 * Procedures of @p prog that can reach themselves through the call
 * graph.  Static spill slots are unsound for them (multiple live
 * activations would share the slots), so the allocator never spills
 * recursive procedures.  Recursion is a whole-program property; the
 * pipeline computes it once per workload on the untransformed program
 * (PreparedWorkload::recursive) and shares it read-only across workers
 * via AllocOptions::recursive.
 */
std::vector<uint8_t> findRecursiveProcs(const ir::Program &prog);

/** Knobs for allocateProcedure beyond the register count. */
struct AllocOptions
{
    /** Resource governance (not owned, nullable); see the Status
     *  contract on allocateProcedure. */
    const ResourceBudget *budget = nullptr;
    /**
     * Precomputed findRecursiveProcs() result (not owned, required):
     * recursion is a whole-program property, so computing it per call
     * would be a whole-program scan racing concurrent rewrites.
     */
    const std::vector<uint8_t> *recursive = nullptr;
    /**
     * Where this procedure's spill slots are numbered (not owned,
     * required): locally, with sentinel addressing (see SpillPlan),
     * until the caller rebases them with rebaseSpillSlots().
     */
    SpillPlan *spill = nullptr;
    /**
     * A liveness solve of the procedure exactly as it stands (not
     * owned, nullable).  The first round uses it instead of solving
     * again; a spill changes the code, so later rounds solve their
     * own.  The pipeline hands over compaction's final solve here.
     */
    const analysis::Liveness *liveness = nullptr;
};

/**
 * Allocate procedure @p proc of @p prog onto @p num_phys_regs
 * registers, rewriting register operands in place and accumulating
 * counters into @p stats — the recoverable per-procedure entry point
 * behind allocateProgram(), and the form the pipeline executor calls.
 * Allocation clears exactly the block schedules it makes stale: each
 * block it inserts spill code into, and each block on which the final
 * register assignment is not injective (see DESIGN.md §5.4).  A block
 * that keeps a valid schedule would be rescheduled to the same issue
 * order and cycles, so the postschedule keeps it.
 * Spill slots are issued locally in AllocOptions::spill; the caller
 * rebases them onto data memory.  A procedure whose pressure cannot be
 * reduced is *not* an error (it stays on virtual registers and counts
 * as skipped, as documented above); a non-OK return means the
 * procedure cannot be allocated at all (more parameters than machine
 * registers), or — when a budget is set — that budget->regallocOps
 * (charged one unit per instruction per allocation round) or
 * budget->deadline ran out mid-allocation, leaving the procedure
 * partially spilled.
 */
Status allocateProcedure(ir::Program &prog, ir::ProcId proc,
                         uint32_t num_phys_regs, AllocStats &stats,
                         const AllocOptions &options);

/**
 * Allocate every procedure of @p prog onto @p num_phys_regs registers,
 * rewriting register operands in place and appending spill slots to
 * the program's data memory in procedure-id order.  Panics on
 * failure — callers that need recovery use allocateProcedure().
 */
AllocStats allocateProgram(ir::Program &prog, uint32_t num_phys_regs);

} // namespace pathsched::regalloc

#endif // PATHSCHED_REGALLOC_LINEAR_SCAN_HPP
