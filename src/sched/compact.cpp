#include "sched/compact.hpp"

#include <chrono>
#include <memory>
#include <optional>

#include "analysis/liveness.hpp"
#include "pipeline/stages.hpp"
#include "support/strutil.hpp"

namespace pathsched::sched {

Status
compactProcedure(ir::Program &prog, ir::ProcId proc_id,
                 const machine::MachineModel &mm,
                 const CompactOptions &options, CompactStats &stats)
{
    using Clock = std::chrono::steady_clock;
    using Ms = std::chrono::duration<double, std::milli>;
    static const obs::Observer no_obs;
    const obs::Observer &ob =
        options.observer != nullptr ? *options.observer : no_obs;
    // Local opt and renaming interleave per block, so their times are
    // accumulated across the block loop and sampled once per procedure
    // (as distributions only; intervals would overlap in a trace).
    const bool timed = ob.stats != nullptr;

    ps_assert_msg(proc_id < prog.procs.size(),
                  "compactProcedure: procedure %u out of range", proc_id);
    ir::Procedure &proc = prog.procs[proc_id];
    proc.syncSideTables();

    // Phase 1: local optimization and renaming on the blocks that
    // exist now.  Renaming appends stub blocks, which must not be
    // re-processed (they are already minimal).
    const size_t original_blocks = proc.blocks.size();
    double opt_ms = 0, rename_ms = 0;
    {
        analysis::Liveness live(proc);
        stats.sched.countSolve(live);
        for (ir::BlockId b = 0; b < original_blocks; ++b) {
            const auto t0 = timed ? Clock::now() : Clock::time_point();
            stats.opt += optimizeBlock(proc, b, live);
            const auto t1 = timed ? Clock::now() : Clock::time_point();
            stats.rename += renameBlock(proc, b, live);
            if (timed) {
                opt_ms += Ms(t1 - t0).count();
                rename_ms += Ms(Clock::now() - t1).count();
            }
        }
    }
    if (timed) {
        ob.addSample("localopt", opt_ms);
        ob.addSample("rename", rename_ms);
    }
    proc.syncSideTables();

    // Phase 2: liveness over the renamed procedure (fresh registers
    // and stubs included), then schedule everything.
    auto t = ob.time("presched");
    analysis::Liveness live(proc);
    stats.sched.countSolve(live);
    for (ir::BlockId b = 0; b < proc.blocks.size(); ++b)
        stats.sched += scheduleBlock(proc, b, live, mm,
                                     options.priority);

    // Every block must have come out with a usable schedule; a miss
    // means the procedure cannot be costed and must be quarantined.
    for (ir::BlockId b = 0; b < proc.blocks.size(); ++b) {
        const ir::BlockSchedule &sched = proc.schedules[b];
        if (!sched.valid ||
            sched.cycleOf.size() != proc.blocks[b].instrs.size()) {
            return Status::error(
                ErrorKind::ScheduleFailed,
                strfmt("proc %s block %u has no valid schedule",
                       proc.name.c_str(), b));
        }
    }
    if (options.liveness != nullptr)
        options.liveness->emplace(std::move(live));
    return Status();
}

CompactStats
compactProgram(ir::Program &prog, const machine::MachineModel &mm,
               const CompactOptions &options)
{
    CompactStats stats;
    pipeline::forEachProcOrDie(prog, "compaction", [&](ir::ProcId p) {
        return compactProcedure(prog, p, mm, options, stats);
    });
    return stats;
}

ScheduleStats
scheduleProcedure(ir::Program &prog, ir::ProcId proc_id,
                  const machine::MachineModel &mm, SchedPriority priority)
{
    ScheduleStats stats;
    ps_assert_msg(proc_id < prog.procs.size(),
                  "scheduleProcedure: procedure %u out of range",
                  proc_id);
    ir::Procedure &proc = prog.procs[proc_id];
    proc.syncSideTables();
    // Solved on the first block that needs it; every block before it
    // is kept, i.e. unchanged, so the solve sees the procedure as a
    // solve up front would.
    std::optional<analysis::Liveness> live;
    for (ir::BlockId b = 0; b < proc.blocks.size(); ++b) {
        const ir::BlockSchedule &kept = proc.schedules[b];
        if (kept.valid &&
            kept.cycleOf.size() == proc.blocks[b].instrs.size()) {
            ++stats.blocksScheduled;
            ++stats.blocksKept;
            stats.totalCycles += kept.numCycles;
            continue;
        }
        if (!live)
            stats.countSolve(live.emplace(proc));
        stats += scheduleBlock(proc, b, *live, mm, priority);
    }
    return stats;
}

ScheduleStats
scheduleProgram(ir::Program &prog, const machine::MachineModel &mm,
                SchedPriority priority)
{
    ScheduleStats stats;
    for (ir::ProcId p = 0; p < prog.procs.size(); ++p)
        stats += scheduleProcedure(prog, p, mm, priority);
    return stats;
}

} // namespace pathsched::sched
