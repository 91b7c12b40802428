/**
 * @file
 * Resource-governance tests: Deadline units, interpreter step-bound
 * and deadline truncation, and the pipeline's governance contract — a
 * measured run over the step bound (PipelineOptions::maxSteps)
 * degrades the procedure it stopped in through the quarantine path
 * (never aborts), while an expired run-wide deadline stops the chains
 * where they see it and ends the run with a typed status, degrading
 * nothing.
 * A source scan keeps governance out of the passes: the pipeline's
 * per-procedure chain applies it at stage boundaries.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "ir/builder.hpp"
#include "obs/stats.hpp"
#include "obs/timer.hpp"
#include "pipeline/backend.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/report.hpp"
#include "support/budget.hpp"
#include "support/faultinject.hpp"
#include "support/strutil.hpp"
#include "workloads/workloads.hpp"

namespace pathsched {
namespace {

using pipeline::PipelineOptions;
using pipeline::PipelineResult;
using pipeline::SchedConfig;

// ---------------------------------------------------------------------
// Deadline.

TEST(Deadline, DefaultNeverExpires)
{
    const Deadline d;
    EXPECT_FALSE(d.active());
    EXPECT_FALSE(d.expired());
    EXPECT_EQ(d.remainingMs(), 0.0);
    EXPECT_FALSE(Deadline::never().active());
}

TEST(Deadline, ZeroBudgetExpiresImmediately)
{
    const Deadline d = Deadline::afterMs(0);
    EXPECT_TRUE(d.active());
    EXPECT_TRUE(d.expired());
    EXPECT_EQ(d.remainingMs(), 0.0);
}

TEST(Deadline, GenerousBudgetIsPending)
{
    const Deadline d = Deadline::afterMs(60'000);
    EXPECT_TRUE(d.active());
    EXPECT_FALSE(d.expired());
    EXPECT_GT(d.remainingMs(), 0.0);
}

// ---------------------------------------------------------------------
// Interpreter truncation.

/** main(n): branchy counting loop, ~6 ops per iteration. */
ir::Program
loopProgram()
{
    ir::Program prog;
    ir::IrBuilder b(prog);
    const ir::ProcId mainp = b.newProc("main", 1);
    const ir::RegId n = b.param(0);

    const ir::BlockId entry = 0;
    const ir::BlockId header = b.newBlock();
    const ir::BlockId body = b.newBlock();
    const ir::BlockId hot = b.newBlock(); // taken 3 iterations in 4
    const ir::BlockId latch = b.newBlock();
    const ir::BlockId done = b.newBlock();

    b.setBlock(entry);
    const ir::RegId i = b.ldi(0);
    const ir::RegId acc = b.ldi(0);
    b.jmp(header);

    b.setBlock(header);
    const ir::RegId c = b.cmpLt(i, n);
    b.brz(c, done, body);

    b.setBlock(body);
    const ir::RegId low = b.alui(ir::Opcode::And, i, 3);
    b.brnz(low, hot, latch);

    b.setBlock(hot);
    b.aluiTo(ir::Opcode::Add, acc, acc, 1);
    b.jmp(latch);

    b.setBlock(latch);
    b.aluiTo(ir::Opcode::Add, acc, acc, 3);
    b.aluiTo(ir::Opcode::Add, i, i, 1);
    b.jmp(header);

    b.setBlock(done);
    b.emitValue(acc);
    b.ret(acc);

    prog.mainProc = mainp;
    return prog;
}

interp::ProgramInput
inputN(int64_t n)
{
    interp::ProgramInput in;
    in.mainArgs = {n};
    return in;
}

TEST(InterpBudget, StepBudgetTruncatesWithAttribution)
{
    const ir::Program prog = loopProgram();
    interp::InterpOptions opts;
    opts.maxSteps = 50;
    interp::Interpreter interp(prog, opts);
    const interp::RunResult r = interp.run(inputN(1000));
    EXPECT_TRUE(r.stepLimit);
    EXPECT_EQ(r.dynInstrs, 50u);
    EXPECT_FALSE(r.deadlineStop);
    EXPECT_TRUE(r.truncated());
    EXPECT_EQ(r.stopProc, prog.mainProc);
}

TEST(InterpBudget, CompleteRunHasNoTruncationOrStopProc)
{
    const ir::Program prog = loopProgram();
    interp::Interpreter interp(prog);
    const interp::RunResult r = interp.run(inputN(10));
    EXPECT_FALSE(r.truncated());
    EXPECT_EQ(r.stopProc, ir::kNoProc);
}

TEST(InterpBudget, ExpiredDeadlineTruncatesLongRun)
{
    // The deadline is polled every kDeadlineCheckStride steps, so the
    // run must be long enough to cross at least one stride boundary.
    const ir::Program prog = loopProgram();
    interp::InterpOptions opts;
    opts.deadline = Deadline::afterMs(0);
    interp::Interpreter interp(prog, opts);
    const interp::RunResult r = interp.run(inputN(100'000));
    EXPECT_TRUE(r.deadlineStop);
    EXPECT_TRUE(r.truncated());
    EXPECT_EQ(r.stopProc, prog.mainProc);
}

// ---------------------------------------------------------------------
// Pipeline governance: an expired deadline stops the run with a typed
// status, and a measured run over the step bound degrades the
// procedure it stopped in.

PipelineResult
runWc(SchedConfig config, const PipelineOptions &opts)
{
    const auto w = workloads::makeByName("wc");
    return pipeline::runPipeline(w.program, w.train, w.test, config,
                                 opts);
}

TEST(PipelineBudget, ExpiredDeadlineReturnsTypedStatus)
{
    PipelineOptions opts;
    opts.robustness.deadline = Deadline::afterMs(0);
    const PipelineResult r = runWc(SchedConfig::P4, opts);
    ASSERT_FALSE(r.status.ok());
    EXPECT_EQ(r.status.kind(), ErrorKind::DeadlineExceeded);
}

TEST(PipelineBudget, DeadlineExpiredBeforeTheChainsStopsThemAtTheirEntry)
{
    // Prepared without a deadline, so the training and reference runs
    // complete; every chain then finds the deadline up before its first
    // pass, which stops it without degrading anything.
    const auto w = workloads::makeByName("wc");
    const pipeline::BackendDesc &be = pipeline::backendFor(SchedConfig::P4);
    PipelineOptions opts;
    const pipeline::PreparedWorkload pw = pipeline::prepareWorkload(
        w.program, w.train, w.test, pipeline::needsOf(be), opts);
    ASSERT_TRUE(pw.status.ok()) << pw.status.toString();
    opts.robustness.deadline = Deadline::afterMs(0);
    const PipelineResult r = pipeline::runBackend(pw, be, opts);
    ASSERT_FALSE(r.status.ok());
    EXPECT_EQ(r.status.kind(), ErrorKind::DeadlineExceeded);
    EXPECT_EQ(r.status.message(), "form: deadline expired");
    EXPECT_TRUE(r.degraded.empty());
}

TEST(PipelineBudget, ExpiredDeadlineLeavesNoDegradation)
{
    // Deadlines from 0 to 12 ms expire at every point of gcc/P4's
    // chains: a chain stops where it sees the deadline, so no
    // procedure degrades and no BB fallback runs.
    const auto w = workloads::makeByName("gcc");
    const pipeline::BackendDesc &be = pipeline::backendFor(SchedConfig::P4);
    const pipeline::PreparedWorkload pw = pipeline::prepareWorkload(
        w.program, w.train, w.test, pipeline::needsOf(be), {});
    ASSERT_TRUE(pw.status.ok()) << pw.status.toString();
    for (uint64_t ms = 0; ms <= 12; ++ms) {
        obs::StatRegistry registry;
        obs::Observer observer;
        observer.stats = &registry;
        PipelineOptions opts;
        opts.observability.observer = &observer;
        opts.robustness.deadline = Deadline::afterMs(ms);
        const PipelineResult r = pipeline::runBackend(pw, be, opts);
        SCOPED_TRACE(::testing::Message() << ms << " ms");
        if (!r.status.ok()) {
            EXPECT_EQ(r.status.kind(), ErrorKind::DeadlineExceeded)
                << r.status.toString();
        }
        EXPECT_TRUE(r.degraded.empty());
        EXPECT_EQ(registry.find("time.P4.fallback"), nullptr);
    }
}

TEST(PipelineBudget, TinyStepBudgetReturnsTypedStatusNotPanic)
{
    // Far below even the training run: the pipeline must report a
    // typed StepLimit naming the run, never abort.
    PipelineOptions opts;
    opts.maxSteps = 100;
    const PipelineResult r = runWc(SchedConfig::P4, opts);
    ASSERT_FALSE(r.status.ok());
    EXPECT_EQ(r.status.kind(), ErrorKind::StepLimit);
    EXPECT_EQ(r.status.message(), "training run exceeded 100 steps");
}

TEST(PipelineBudget, TestRunBudgetDegradesTheStoppedProcedure)
{
    // A step bound the original program fits under but the transformed
    // (speculation + compensation stubs) program exceeds: the pipeline
    // must attribute the overrun to the procedure it stopped in,
    // degrade it to BB, and complete within the bound.
    const ir::Program prog = loopProgram();
    const interp::ProgramInput train = inputN(40);
    const interp::ProgramInput test = inputN(5000);

    interp::Interpreter ref(prog);
    const uint64_t orig_steps = ref.run(test).dynInstrs;

    PipelineOptions opts;
    const PipelineResult plain = pipeline::runPipeline(
        prog, train, test, SchedConfig::P4, opts);
    ASSERT_TRUE(plain.status.ok());
    const uint64_t transformed_steps = plain.test.dynInstrs;
    if (transformed_steps <= orig_steps)
        GTEST_SKIP() << "transformed run not longer than the original "
                        "(nothing to attribute)";

    opts.maxSteps = (orig_steps + transformed_steps) / 2;
    const PipelineResult r = pipeline::runPipeline(
        prog, train, test, SchedConfig::P4, opts);
    EXPECT_TRUE(r.status.ok()) << r.status.toString();
    EXPECT_TRUE(r.outputMatches);
    ASSERT_FALSE(r.degraded.empty());
    EXPECT_EQ(r.degraded[0].stage, "interp");
    EXPECT_EQ(r.degraded[0].kind, ErrorKind::StepLimit);
    EXPECT_EQ(r.degraded[0].procName, "main");
    EXPECT_LE(r.test.dynInstrs, opts.maxSteps);
}

TEST(PipelineBudget, GenerousLimitsLeaveTheRunUnchanged)
{
    const PipelineResult plain = runWc(SchedConfig::P4, {});
    ASSERT_TRUE(plain.status.ok());
    EXPECT_FALSE(plain.degradedRun());

    // A generous deadline and step bound must not change any
    // measurement either.
    PipelineOptions opts;
    opts.robustness.deadline = Deadline::afterMs(600'000);
    opts.maxSteps = 1'000'000'000;
    const PipelineResult governed = runWc(SchedConfig::P4, opts);
    ASSERT_TRUE(governed.status.ok());
    EXPECT_FALSE(governed.degradedRun());
    EXPECT_EQ(governed.test.cycles, plain.test.cycles);
    EXPECT_EQ(governed.test.dynInstrs, plain.test.dynInstrs);
    EXPECT_EQ(governed.codeBytes, plain.codeBytes);
}

TEST(PipelineBudget, StepOverrunIsOneTypedDegradationInTheReport)
{
    // wc/P4's transformed main overruns a million steps where the
    // original does not: the test run degrades main, and only main, as
    // a StepLimit at "interp", counted under robust.P4.errors.
    obs::StatRegistry registry;
    obs::Observer observer;
    observer.stats = &registry;
    PipelineOptions opts;
    opts.maxSteps = 1'000'000;
    opts.observability.observer = &observer;
    PipelineResult governed = runWc(SchedConfig::P4, opts);
    ASSERT_TRUE(governed.status.ok()) << governed.status.toString();
    EXPECT_TRUE(governed.outputMatches);
    ASSERT_EQ(governed.degraded.size(), 1u);
    EXPECT_EQ(governed.degraded[0].procName, "main");
    EXPECT_EQ(governed.degraded[0].stage, "interp");
    EXPECT_EQ(governed.degraded[0].kind, ErrorKind::StepLimit);
    EXPECT_EQ(governed.degraded[0].message,
              "test run exceeded 1000000 steps in proc main");
    EXPECT_LE(governed.test.dynInstrs, opts.maxSteps);
    EXPECT_EQ(registry.counter("robust.P4.degraded"), 1u);
    EXPECT_EQ(registry.counter("robust.P4.errors.StepLimit"), 1u);
    std::vector<pipeline::ReportRun> runs;
    runs.push_back({"wc", std::move(governed)});
    const std::string json = pipeline::reportJson(runs, &registry);
    EXPECT_EQ(json.find("\"budget\""), std::string::npos);
}

/** The id of @p prog's procedure named @p name. */
ir::ProcId
procNamed(const ir::Program &prog, const std::string &name)
{
    for (ir::ProcId p = 0; p < prog.procs.size(); ++p) {
        if (prog.procs[p].name == name)
            return p;
    }
    ADD_FAILURE() << "no procedure " << name;
    return ir::kNoProc;
}

TEST(PipelineBudget, OverrunInAnAlreadyDegradedProcedureSuspectsTheRest)
{
    // vortex/M16 over a step bound a quarter of the way from the
    // original's steps to the transformed program's stops in lookup.
    // With lookup already on its BB body (an injected form fault), the
    // overrun names no procedure left to degrade, so the output
    // comparison suspects every other one: typed output-compare
    // degradations, matching output, no panic.
    const auto w = workloads::makeByName("vortex");
    const uint64_t ref_steps =
        interp::Interpreter(w.program).run(w.test).dynInstrs;
    const PipelineResult plain = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::M16, {});
    ASSERT_TRUE(plain.status.ok()) << plain.status.toString();
    ASSERT_GT(plain.test.dynInstrs, ref_steps);
    PipelineOptions opts;
    opts.maxSteps = (3 * ref_steps + plain.test.dynInstrs) / 4;

    const PipelineResult unfaulted = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::M16, opts);
    ASSERT_TRUE(unfaulted.status.ok()) << unfaulted.status.toString();
    ASSERT_FALSE(unfaulted.degraded.empty());
    ASSERT_EQ(unfaulted.degraded[0].procName, "lookup");
    ASSERT_EQ(unfaulted.degraded[0].stage, "interp");

    FaultInjector inj;
    std::string err;
    ASSERT_TRUE(inj.parse(
        strfmt("stage=form,proc=%u", procNamed(w.program, "lookup")), err))
        << err;
    opts.robustness.faults = &inj;
    const PipelineResult r = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::M16, opts);
    ASSERT_TRUE(r.status.ok()) << r.status.toString();
    EXPECT_TRUE(r.outputMatches);
    EXPECT_LE(r.test.dynInstrs, opts.maxSteps);
    ASSERT_EQ(r.degraded.size(), w.program.procs.size());
    EXPECT_EQ(r.degraded[0].procName, "lookup");
    EXPECT_EQ(r.degraded[0].stage, "form");
    EXPECT_EQ(r.degraded[0].kind, ErrorKind::Injected);
    for (size_t i = 1; i < r.degraded.size(); ++i) {
        EXPECT_NE(r.degraded[i].procName, "lookup");
        EXPECT_EQ(r.degraded[i].stage, "output-compare");
        EXPECT_EQ(r.degraded[i].kind, ErrorKind::StepLimit);
    }
}

TEST(PipelineBudget, OverrunOfTheBBFallbackIsATypedStepLimit)
{
    // On 8 registers wc's BB schedule spills, so even its all-BB
    // program runs longer than the original.  A bound between the two
    // fits the training and reference runs, but no degradation can
    // bring the measured run under it: a typed StepLimit, not a panic.
    const auto w = workloads::makeByName("wc");
    const uint64_t ref_steps =
        interp::Interpreter(w.program).run(w.test).dynInstrs;
    PipelineOptions opts;
    opts.machine.numRegs = 8;
    const PipelineResult bb = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::BB, opts);
    ASSERT_TRUE(bb.status.ok()) << bb.status.toString();
    ASSERT_GT(bb.test.dynInstrs, ref_steps);
    opts.maxSteps = (ref_steps + bb.test.dynInstrs) / 2;
    const PipelineResult r = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);
    ASSERT_FALSE(r.status.ok());
    EXPECT_EQ(r.status.kind(), ErrorKind::StepLimit);
    EXPECT_EQ(r.status.message(),
              strfmt("measured test run exceeded %llu steps",
                     (unsigned long long)opts.maxSteps));
}

// ---------------------------------------------------------------------
// The guard: the passes know nothing of governance.

TEST(GovernanceGuard, PassesIncludeNoBudgetOrInjectorHeader)
{
#ifndef PATHSCHED_SOURCE_DIR
    GTEST_SKIP() << "source tree location not compiled in";
#else
    namespace fs = std::filesystem;
    const fs::path root(PATHSCHED_SOURCE_DIR);
    ASSERT_TRUE(fs::exists(root / "src" / "support" / "budget.hpp"))
        << "PATHSCHED_SOURCE_DIR does not point at the repo";

    const std::vector<std::string> headers = {"support/budget.hpp",
                                              "support/faultinject.hpp"};
    std::vector<std::string> offenders;
    for (const char *dir : {"src/form", "src/sched", "src/regalloc"}) {
        for (const auto &ent : fs::recursive_directory_iterator(root / dir)) {
            const std::string ext = ent.path().extension().string();
            if (!ent.is_regular_file() || (ext != ".cpp" && ext != ".hpp"))
                continue;
            std::ifstream in(ent.path());
            std::stringstream ss;
            ss << in.rdbuf();
            const std::string text = ss.str();
            for (const std::string &h : headers) {
                if (text.find("#include \"" + h + "\"") != std::string::npos)
                    offenders.push_back(
                        fs::relative(ent.path(), root).string() + ": " + h);
            }
        }
    }
    EXPECT_TRUE(offenders.empty())
        << "a pass includes a governance header; budgets and fault "
           "injection belong to the pipeline's stage boundaries:\n  " +
               [&] {
                   std::string joined;
                   for (const auto &o : offenders)
                       joined += o + "\n  ";
                   return joined;
               }();
#endif
}

} // namespace
} // namespace pathsched
