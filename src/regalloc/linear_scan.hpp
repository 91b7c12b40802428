/**
 * @file
 * Linear-scan register allocation onto the machine register file.
 *
 * The paper's back end preschedules with an infinite-register variant
 * of the target, allocates registers, then postschedules restricted by
 * the allocation decisions (§2.3).  This allocator maps each
 * procedure's virtual registers onto the 128-entry file using one
 * coarse live interval per register.  Parameters are precolored onto
 * registers 0..k-1 (the calling convention).  A procedure whose
 * pressure exceeds the file is left on virtual registers and counted
 * in AllocStats::procsSkipped — with 128 registers and renaming-scale
 * pressure this is rare, and the experiment harness reports it.
 */

#ifndef PATHSCHED_REGALLOC_LINEAR_SCAN_HPP
#define PATHSCHED_REGALLOC_LINEAR_SCAN_HPP

#include <cstdint>
#include <vector>

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
    uint32_t maxPressure = 0; ///< peak simultaneously-live registers

    AllocStats &
    operator+=(const AllocStats &o)
    {
        procsAllocated += o.procsAllocated;
        procsSkipped += o.procsSkipped;
        regsSpilled += o.regsSpilled;
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
 * address base + k).  Must run before the procedure is interpreted or
 * postscheduled.
 */
void rebaseSpillSlots(ir::Procedure &proc, uint64_t base);

/** @} */

/**
 * Procedures of @p prog that can reach themselves through the call
 * graph.  Static spill slots are unsound for them (multiple live
 * activations would share the slots), so the allocator never spills
 * recursive procedures.  Recursion is a whole-program property; the
 * executor precomputes it once on the untransformed program and shares
 * it read-only across workers via AllocOptions::recursive.
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
};

/**
 * Allocate procedure @p proc of @p prog onto @p num_phys_regs
 * registers, rewriting register operands in place and accumulating
 * counters into @p stats — the recoverable per-procedure entry point
 * behind allocateProgram(), and the form the pipeline executor calls.
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
