#include "replay.hpp"

#include <malloc.h>

#include <fstream>

#include "analysis/callgraph.hpp"
#include "ir/verifier.hpp"
#include "layout/code_layout.hpp"
#include "layout/pettis_hansen.hpp"
#include "profile/edge_profile.hpp"
#include "profile/path_profile.hpp"
#include "regalloc/linear_scan.hpp"
#include "sched/compact.hpp"

namespace perfbench {

using namespace pathsched;

Tracer::Scope::Scope(Tracer &t, const char *name, double *acc)
    : t_(t), id_(int32_t(t.spans_.size())), acc_(acc)
{
    Span s;
    s.name = name;
    s.parent = t.open_.empty() ? -1 : t.open_.back();
    s.run = t.run_;
    s.startNs = t.nowNs();
    t.spans_.push_back(s);
    t.open_.push_back(id_);
}

Tracer::Scope::~Scope()
{
    Span &s = t_.spans_[size_t(id_)];
    s.endNs = t_.nowNs();
    t_.open_.pop_back();
    *acc_ += double(s.endNs - s.startNs) / 1e6;
}

int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    out << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\":" << i << ",\"name\":\"" << s.name
            << "\",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
            << ",\"parent\":" << s.parent << ",\"run\":" << s.run << "}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    out.close();
    return bool(out);
}

double
LayerTotals::pipelineLayerMs() const
{
    return verifyMs + (trainMs - trainBareOfProfiledMs) + trainProfiledMs +
           finalizeMs + formMs + compactMs + regallocMs + postschedMs +
           layoutMs + testMs + refMs;
}

namespace {

/** Heap bytes in use now.  Its growth across a run is the memory the
 *  run still holds at its end; unlike the resident set it does not
 *  depend on whether an earlier run's freed pages were returned. */
uint64_t
heapInUse()
{
    const struct mallinfo2 mi = mallinfo2();
    return uint64_t(mi.uordblks) + uint64_t(mi.hblkhd);
}

/** Put procedure @p p back to its original body after a failed stage,
 *  so later stages of the replay run on well-formed IR. */
void
restore(ir::Program &prog, const ir::Program &program, ir::ProcId p)
{
    prog.procs[p] = program.procs[p];
    prog.procs[p].syncSideTables();
}

uint64_t
instrTotal(const ir::Program &prog)
{
    uint64_t n = 0;
    for (const auto &proc : prog.procs)
        n += proc.instrCount();
    return n;
}

} // namespace

ReplayResult
replayPipeline(const ir::Program &program, const interp::ProgramInput &train,
               const interp::ProgramInput &test,
               const pipeline::BackendDesc &be,
               const pipeline::PipelineOptions &opt, Tracer &tr,
               LayerTotals &lt)
{
    ReplayResult r;
    Tracer::Scope root(tr, "pipeline.run", &lt.replayMs);
    auto fail = [&r](Status st) {
        if (r.status.ok())
            r.status = std::move(st);
    };
    {
        Tracer::Scope s(tr, "ir.verify", &lt.verifyMs);
        Status st = ir::verifyStatus(program, ir::VerifyMode::Strict);
        if (!st.ok()) {
            r.status = st;
            return r;
        }
    }

    // Training run.  A profiled backend's run is replayed twice, bare
    // and with its listeners: the difference is the profilers' cost.
    profile::EdgeProfiler edge(program);
    profile::PathProfiler path(program, opt.pathParams);
    interp::InterpOptions topts;
    topts.maxSteps = opt.maxSteps;
    topts.collectCallCounts = true;
    interp::RunResult train_run;
    {
        double bare_ms = 0;
        {
            Tracer::Scope s(tr, "interp.train", &bare_ms);
            train_run = interp::Interpreter(program, topts).run(train);
        }
        lt.trainMs += bare_ms;
        lt.trainOps += train_run.dynInstrs;
        if (be.needsProfile()) {
            lt.trainBareOfProfiledMs += bare_ms;
            const uint64_t heap0 = heapInUse();
            {
                Tracer::Scope s(tr, "interp.train_profiled",
                                &lt.trainProfiledMs);
                interp::Interpreter it(program, topts);
                if (be.needsEdgeProfile())
                    it.addListener(&edge);
                if (be.needsPathProfile())
                    it.addListener(&path);
                train_run = it.run(train);
            }
            const uint64_t heap1 = heapInUse();
            if (heap1 > heap0 && heap1 - heap0 > lt.profileGrowthBytes)
                lt.profileGrowthBytes = heap1 - heap0;
        }
    }
    if (train_run.truncated()) {
        r.status = Status::error(ErrorKind::StepLimit,
                                 "training run truncated");
        return r;
    }
    if (be.needsPathProfile()) {
        {
            Tracer::Scope s(tr, "profile.finalize", &lt.finalizeMs);
            path.finalize();
        }
        lt.paths += path.numPaths();
        lt.pathSteps += path.numSteps();
    }

    ir::Program prog = program;
    const size_t num_procs = prog.procs.size();
    std::vector<uint8_t> recursive;
    if (opt.registerAllocate) {
        Tracer::Scope s(tr, "regalloc.recursive", &lt.regallocMs);
        recursive = regalloc::findRecursiveProcs(prog);
    }

    // Phase A, stage-major like runPipeline's one-thread task order.
    if (be.hasTransform()) {
        const obs::Observer no_sink;
        profile::EdgeProfiler projected(program);
        pipeline::TransformContext tc;
        tc.config = be.config;
        tc.opt = &opt;
        tc.edge = &edge;
        tc.path = &path;
        tc.projectedEdge = &projected;
        tc.timed = &no_sink;
        pipeline::TransformStats xf;
        for (ir::ProcId p = 0; p < num_procs; ++p) {
            const char *stage = be.transformLabel;
            Status st;
            {
                Tracer::Scope s(tr, "form.transform", &lt.formMs);
                st = be.transform(prog, p, tc, xf, &stage);
            }
            if (!st.ok()) {
                fail(st);
                restore(prog, program, p);
            }
        }
        lt.superblocks += xf.form.superblocksFormed;
        lt.blocksDuplicated += xf.form.blocksDuplicated;
    }
    lt.instrsOut += instrTotal(prog);

    sched::CompactOptions copts;
    copts.priority = opt.schedPriority;
    for (ir::ProcId p = 0; p < num_procs; ++p) {
        sched::CompactStats cs;
        Status st;
        {
            Tracer::Scope s(tr, "sched.compact", &lt.compactMs);
            st = sched::compactProcedure(prog, p, opt.machine, copts, cs);
        }
        if (!st.ok()) {
            fail(st);
            restore(prog, program, p);
        }
    }

    if (opt.registerAllocate) {
        regalloc::AllocStats alloc;
        std::vector<regalloc::SpillPlan> spill(num_procs);
        for (ir::ProcId p = 0; p < num_procs; ++p) {
            regalloc::AllocOptions ao;
            ao.recursive = &recursive;
            ao.spill = &spill[p];
            Status st;
            {
                Tracer::Scope s(tr, "regalloc.allocate", &lt.regallocMs);
                st = regalloc::allocateProcedure(
                    prog, p, opt.machine.numRegs, alloc, ao);
            }
            if (!st.ok())
                fail(st);
        }
        {
            Tracer::Scope s(tr, "regalloc.rebase", &lt.regallocMs);
            for (ir::ProcId p = 0; p < num_procs; ++p) {
                if (spill[p].slots == 0)
                    continue;
                regalloc::rebaseSpillSlots(prog.procs[p], prog.memWords);
                prog.memWords += spill[p].slots;
            }
        }
        lt.spilled += alloc.regsSpilled;
        lt.procsSkipped += alloc.procsSkipped;
        if (alloc.maxPressure > lt.maxPressure)
            lt.maxPressure = alloc.maxPressure;

        lt.instrsIn += instrTotal(prog);
        for (ir::ProcId p = 0; p < num_procs; ++p) {
            Tracer::Scope s(tr, "sched.postsched", &lt.postschedMs);
            sched::scheduleProcedure(prog, p, opt.machine,
                                     opt.schedPriority);
        }
    }

    for (ir::ProcId p = 0; p < num_procs; ++p) {
        Status st;
        {
            Tracer::Scope s(tr, "ir.verify", &lt.verifyMs);
            st = ir::verifyProcStatus(prog, p, ir::VerifyMode::Superblock);
        }
        if (!st.ok())
            fail(st);
    }

    layout::CodeLayout code_layout;
    {
        Tracer::Scope s(tr, "layout.place", &lt.layoutMs);
        std::vector<ir::ProcId> order;
        if (opt.pettisHansen) {
            analysis::CallGraph cg(prog);
            for (const auto &[e, count] : train_run.callCounts)
                cg.addWeight(e.first, e.second, count);
            order = layout::pettisHansenOrder(cg);
        }
        code_layout = layout::layoutProgram(prog, order, opt.blockOrder);
    }
    r.codeBytes = code_layout.totalBytes;
    lt.codeBytes += code_layout.totalBytes;

    {
        interp::InterpOptions iopts;
        iopts.maxSteps = opt.maxSteps;
        iopts.codeLayout = &code_layout;
        icache::ICache icache_sim(opt.cacheParams);
        if (opt.useICache)
            iopts.cache = &icache_sim;
        Tracer::Scope s(tr, "interp.test", &lt.testMs);
        r.test = interp::Interpreter(prog, iopts).run(test);
    }
    lt.testOps += r.test.dynInstrs;
    lt.sbEntries += r.test.sbEntries;
    lt.sbCompletions += r.test.sbCompletions;
    lt.icacheAccesses += r.test.icacheAccesses;
    lt.icacheMisses += r.test.icacheMisses;

    {
        interp::InterpOptions iopts;
        iopts.maxSteps = opt.maxSteps;
        interp::RunResult ref;
        {
            Tracer::Scope s(tr, "interp.ref", &lt.refMs);
            ref = interp::Interpreter(program, iopts).run(test);
        }
        lt.refOps += ref.dynInstrs;
    }
    return r;
}

} // namespace perfbench
