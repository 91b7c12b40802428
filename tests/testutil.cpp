#include "testutil.hpp"

#include <algorithm>

#include "gen/generator.hpp"
#include "pipeline/backend.hpp"
#include "profile/edge_profile.hpp"
#include "profile/path_profile.hpp"
#include "workloads/workloads.hpp"

namespace pathsched::testing {

GeneratedProgram
makeRandomProgram(uint64_t seed, const GenParams &params)
{
    gen::GenSpec spec;
    spec.seed = seed;
    spec.procs = params.numProcs;
    spec.depth = params.maxDepth;
    spec.loopDepth = std::min(params.maxDepth, 3u);
    spec.stmts = params.maxStmtsPerRegion;
    spec.memWords = params.memWords;
    spec.callDensity = params.allowCalls ? params.callDensity : 0;
    spec.loopDensity = params.loopDensity;
    if (!params.allowLoads)
        spec.loadDensity = 0;
    if (!params.allowStores)
        spec.storeDensity = 0;
    if (!params.allowEmit)
        spec.emitDensity = 0;

    gen::Workload w = gen::generate(spec);
    GeneratedProgram out;
    out.program = std::move(w.program);
    out.input = std::move(w.train);
    return out;
}

bool
sameInstr(const ir::Instruction &a, const ir::Instruction &b)
{
    return a.op == b.op && a.useImm == b.useImm && a.dst == b.dst &&
           a.src1 == b.src1 && a.src2 == b.src2 && a.imm == b.imm &&
           a.target0 == b.target0 && a.target1 == b.target1 &&
           a.callee == b.callee && a.args == b.args;
}

std::vector<TrainedProgram>
workloadsAndFamilies()
{
    std::vector<TrainedProgram> out;
    for (workloads::Workload &w : workloads::standardBenchmarks())
        out.push_back({w.name, std::move(w.program), std::move(w.train)});
    static const gen::BranchKind kFamilies[] = {
        gen::BranchKind::Random, gen::BranchKind::Tttf,
        gen::BranchKind::Phased, gen::BranchKind::Correlated,
        gen::BranchKind::Mixed};
    for (const gen::BranchKind family : kFamilies) {
        for (uint32_t i = 0; i < 4; ++i) {
            gen::GenSpec spec;
            spec.seed = 1 + i;
            spec.branch = family;
            gen::Workload w = gen::generate(spec);
            out.push_back({spec.toString(), std::move(w.program),
                           std::move(w.train)});
        }
    }
    return out;
}

Status
forEachFormed(
    const TrainedProgram &s,
    const std::function<void(ir::Program &, ir::ProcId,
                             const std::string &)> &formed,
    const std::function<void(ir::Program &, const std::string &)>
        &finished)
{
    const pipeline::PipelineOptions opt;
    profile::EdgeProfiler edge(s.program);
    profile::PathProfiler path(s.program, opt.pathParams);
    {
        interp::InterpOptions iopts;
        iopts.maxSteps = opt.maxSteps;
        interp::Interpreter it(s.program, iopts);
        it.addListener(&edge);
        it.addListener(&path);
        if (it.run(s.train).truncated())
            return Status::error(ErrorKind::StepLimit,
                                 s.name + ": training run truncated");
    }
    path.finalize();
    profile::EdgeProfiler projected(s.program);
    const obs::Observer no_sink;

    for (const char *name : {"BB", "M4", "M16", "P4", "P4e"}) {
        const pipeline::BackendDesc *be = pipeline::findBackend(name);
        const std::string label = s.name + "/" + name;
        ir::Program prog = s.program;
        pipeline::TransformContext tc;
        tc.config = be->config;
        tc.opt = &opt;
        tc.edge = &edge;
        tc.path = &path;
        tc.projectedEdge = &projected;
        tc.timed = &no_sink;
        pipeline::TransformStats xf;
        for (ir::ProcId p = 0; p < prog.procs.size(); ++p) {
            if (be->hasTransform()) {
                const char *stage = be->transformLabel;
                if (Status st = be->transform(prog, p, tc, xf, &stage);
                    !st.ok())
                    return Status::error(st.kind(),
                                         label + ": " + st.message());
            }
            formed(prog, p, label);
        }
        if (finished)
            finished(prog, label);
    }
    return Status();
}

} // namespace pathsched::testing
