/**
 * @file
 * Top-down cycle scheduler (list scheduling) for one block.
 *
 * Implements the paper's compact pass core (§2.3): per superblock (or
 * plain basic block), instructions are placed cycle by cycle on the
 * 8-wide machine with one control operation per cycle, prioritized by
 * critical-path height.  The block's instruction list is rewritten into
 * issue order (cycle-major), the BlockSchedule side table records each
 * instruction's cycle, and loads that ended up above an earlier branch
 * are converted to non-excepting LdSpec.
 *
 * The pick order is that of a full rescan per issue slot (highest
 * height, lowest index first; lowest index under SourceOrder), kept by
 * two ready heaps (control-slot ops and the rest, so a used control
 * slot skips only its own heap) and a waiting heap keyed on (earliest
 * start, index).  Speculative-load marking is one pass over the
 * original order against the latest issue position of an earlier
 * branch.  A schedule that issues in source order moves nothing: it
 * only fills the cycles, and it cannot hoist a load above a branch.
 * All scratch is per thread and reused, so scheduling a block
 * allocates nothing once the buffers have grown.  A block of one
 * instruction is placed in cycle 0 without building its graph.
 */

#ifndef PATHSCHED_SCHED_SCHEDULER_HPP
#define PATHSCHED_SCHED_SCHEDULER_HPP

#include <string>
#include <vector>

#include "analysis/liveness.hpp"
#include "ir/procedure.hpp"
#include "machine/machine.hpp"

namespace pathsched::sched {

/** List-scheduler candidate priority (ablation knob). */
enum class SchedPriority
{
    CriticalPath, ///< highest dependence height first (the default)
    SourceOrder,  ///< earliest ready instruction in program order
};

/** Counters reported by scheduleBlock. */
struct ScheduleStats
{
    uint64_t blocksScheduled = 0;
    uint64_t loadsSpeculated = 0;
    uint64_t totalCycles = 0; ///< static schedule lengths, summed
    /** Of blocksScheduled, the blocks whose schedule scheduleProcedure
     *  kept instead of rebuilding. */
    uint64_t blocksKept = 0;
    /** Of blocksScheduled, the blocks of two or more instructions whose
     *  issue order is their source order, so nothing moved. */
    uint64_t inPlace = 0;
    /** Liveness solves made by the pass these stats count (compaction
     *  or the postschedule; scheduleBlock solves none), and the
     *  worklist block visits they took (Liveness::visits). */
    uint64_t liveSolves = 0;
    uint64_t liveVisits = 0;

    /** Count @p live as one solve of the pass. */
    void
    countSolve(const analysis::Liveness &live)
    {
        ++liveSolves;
        liveVisits += live.visits();
    }

    ScheduleStats &
    operator+=(const ScheduleStats &o)
    {
        blocksScheduled += o.blocksScheduled;
        loadsSpeculated += o.loadsSpeculated;
        totalCycles += o.totalCycles;
        blocksKept += o.blocksKept;
        inPlace += o.inPlace;
        liveSolves += o.liveSolves;
        liveVisits += o.liveVisits;
        return *this;
    }
};

/**
 * Compact block @p b of @p proc in place.  @p live must describe the
 * procedure in its current (post-renaming) form.
 */
ScheduleStats scheduleBlock(
    ir::Procedure &proc, ir::BlockId b, const analysis::Liveness &live,
    const machine::MachineModel &mm,
    SchedPriority priority = SchedPriority::CriticalPath);

/**
 * Validate the schedule of block @p b: dependence latencies, issue
 * order on zero-latency edges, slot and control-slot limits.  Appends a
 * description of each violation to @p errors and returns true when
 * none were found.  Intended for tests.
 */
bool validateSchedule(const ir::Procedure &proc, ir::BlockId b,
                      const analysis::Liveness &live,
                      const machine::MachineModel &mm,
                      std::vector<std::string> &errors);

} // namespace pathsched::sched

#endif // PATHSCHED_SCHED_SCHEDULER_HPP
