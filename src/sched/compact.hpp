/**
 * @file
 * The compact pass: whole-program compaction driver.
 *
 * Per procedure: local optimization and renaming over every block
 * (appending compensation stubs), then a liveness recomputation, then
 * list scheduling of every block — superblocks and plain blocks alike,
 * so the basic-block baseline and the superblock configurations share
 * one compactor, as in the paper ("our experimental results use the
 * same compact pass for both edge- and path-profile-based superblock
 * scheduling").
 */

#ifndef PATHSCHED_SCHED_COMPACT_HPP
#define PATHSCHED_SCHED_COMPACT_HPP

#include <optional>

#include "analysis/liveness.hpp"
#include "ir/procedure.hpp"
#include "machine/machine.hpp"
#include "obs/timer.hpp"
#include "sched/local_opt.hpp"
#include "sched/renamer.hpp"
#include "sched/scheduler.hpp"
#include "support/status.hpp"

namespace pathsched::sched {

/** Compaction knobs.  None bounds the pass's work: the pipeline polls
 *  the run's deadline at the stage boundaries around it. */
struct CompactOptions
{
    SchedPriority priority = SchedPriority::CriticalPath;
    /**
     * Optional observability sink: per-procedure local-opt / rename /
     * preschedule wall times are sampled through it (the caller picks
     * the prefix, e.g. "time.P4.compact.").  Null disables timing.
     */
    const obs::Observer *observer = nullptr;
    /**
     * Optional out-slot (not owned).  On success it receives the
     * liveness solve compaction scheduled against, which still
     * describes the compacted procedure exactly: scheduling only
     * reorders within blocks, and only moves a def across an exit
     * where the register is dead at that exit's targets.  Register
     * allocation reuses it (regalloc::AllocOptions::liveness).
     * Untouched on failure.
     */
    std::optional<analysis::Liveness> *liveness = nullptr;
};

/** Aggregated counters from compactProgram. */
struct CompactStats
{
    LocalOptStats opt;
    RenameStats rename;
    ScheduleStats sched;

    CompactStats &
    operator+=(const CompactStats &o)
    {
        opt += o.opt;
        rename += o.rename;
        sched += o.sched;
        return *this;
    }
};

/**
 * Compact every block of procedure @p proc of @p prog in place,
 * accumulating counters into @p stats — the recoverable per-procedure
 * entry point behind compactProgram().  Returns
 * ErrorKind::ScheduleFailed when any block ends up without a valid
 * schedule; the procedure may be partially rewritten then, so the
 * caller must discard or restore it.
 */
Status compactProcedure(ir::Program &prog, ir::ProcId proc,
                        const machine::MachineModel &mm,
                        const CompactOptions &options,
                        CompactStats &stats);

/** Compact every block of every procedure of @p prog in place.
 *  Panics on failure — callers that need recovery use
 *  compactProcedure(). */
CompactStats compactProgram(ir::Program &prog,
                            const machine::MachineModel &mm,
                            const CompactOptions &options = CompactOptions());

/**
 * The postschedule of procedure @p proc: list scheduling only (no
 * optimization or renaming) of every block without a valid schedule of
 * its size.  Register allocation clears exactly the schedules it makes
 * stale (the blocks it inserted spill code into, and the blocks on
 * which its assignment is not injective), so those are the blocks
 * whose dependence graph gained spill code or the anti/output
 * dependences of register reuse.  A kept block counts in ScheduleStats as scheduled, with its
 * kept cycle count and no new speculated loads, exactly as
 * rescheduling it would; ScheduleStats::blocksKept counts it too.
 * Liveness is solved only when some block is rescheduled.
 */
ScheduleStats scheduleProcedure(
    ir::Program &prog, ir::ProcId proc, const machine::MachineModel &mm,
    SchedPriority priority = SchedPriority::CriticalPath);

/** scheduleProcedure() over every procedure of @p prog. */
ScheduleStats scheduleProgram(
    ir::Program &prog, const machine::MachineModel &mm,
    SchedPriority priority = SchedPriority::CriticalPath);

} // namespace pathsched::sched

#endif // PATHSCHED_SCHED_COMPACT_HPP
