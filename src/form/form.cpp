#include "form/form.hpp"

#include "form/enlarge.hpp"
#include "form/internal.hpp"
#include "form/materialize.hpp"
#include "form/select.hpp"
#include "ir/verifier.hpp"
#include "pipeline/stages.hpp"
#include "support/logging.hpp"

namespace pathsched::form {

Status
formProcedure(ir::Program &prog, ir::ProcId proc_id,
              const profile::EdgeProfiler *ep,
              const profile::PathProfiler *pp, const FormConfig &config,
              FormStats &stats)
{
    if (config.mode == ProfileMode::Edge) {
        ps_assert_msg(ep != nullptr, "edge formation needs an edge profile");
    } else {
        ps_assert_msg(pp != nullptr, "path formation needs a path profile");
    }
    ps_assert_msg(proc_id < prog.procs.size(),
                  "formProcedure: procedure %u out of range", proc_id);

    // A null observer keeps the timers sink-free (near-zero cost).
    static const obs::Observer no_obs;
    const obs::Observer &ob =
        config.observer != nullptr ? *config.observer : no_obs;

    ir::Procedure &proc = prog.procs[proc_id];
    ProcFormState state(proc, config);
    std::unique_ptr<FormProfile> profile =
        config.mode == ProfileMode::Edge
            ? makeEdgeFormProfile(proc, state.cfg, *ep)
            : makePathFormProfile(proc, state.cfg, *pp);

    {
        auto t = ob.time("select");
        selectTraces(state, *profile);
    }
    stats.tracesSelected += state.traces.size();
    for (const Trace &t : state.traces) {
        if (t.size() >= 2)
            ++stats.multiBlockTraces;
    }

    if (config.enlarge) {
        auto t = ob.time("enlarge");
        enlargeTraces(state, *profile, stats);
    }

    {
        auto t = ob.time("materialize");
        Status st = materializeTraces(state, stats);
        if (!st.ok())
            return st;
        removeUnreachable(proc, stats);
    }
    proc.syncSideTables();

    return ir::verifyProcStatus(prog, proc_id,
                                ir::VerifyMode::Superblock);
}

FormStats
formProgram(ir::Program &prog, const profile::EdgeProfiler *ep,
            const profile::PathProfiler *pp, const FormConfig &config)
{
    FormStats stats;
    pipeline::forEachProcOrDie(prog, "formation", [&](ir::ProcId p) {
        return formProcedure(prog, p, ep, pp, config, stats);
    });
    ir::verifyOrDie(prog, ir::VerifyMode::Superblock);
    return stats;
}

} // namespace pathsched::form
