/**
 * @file
 * Fault-tolerance tests: the typed-error taxonomy, the deterministic
 * fault-injection harness, and the pipeline's per-procedure BB
 * quarantine.  The core matrix injects one fault at every stage
 * boundary of a real workload and asserts the run still completes with
 * correct output, exactly one recorded degradation, and the
 * "robust.<config>.*" counters set.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "obs/stats.hpp"
#include "obs/timer.hpp"
#include "pipeline/backend.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/report.hpp"
#include "support/faultinject.hpp"
#include "support/status.hpp"
#include "support/strutil.hpp"
#include "workloads/workloads.hpp"

namespace pathsched {
namespace {

using pipeline::PipelineOptions;
using pipeline::PipelineResult;
using pipeline::SchedConfig;

// ---------------------------------------------------------------------
// Status / ErrorKind basics.

TEST(Status, DefaultIsOkAndErrorCarriesKindAndMessage)
{
    const Status ok;
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.toString(), "OK");

    const Status bad =
        Status::error(ErrorKind::ScheduleFailed, "block 3 unscheduled");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.kind(), ErrorKind::ScheduleFailed);
    EXPECT_EQ(bad.message(), "block 3 unscheduled");
    EXPECT_EQ(bad.toString(), "ScheduleFailed: block 3 unscheduled");
}

TEST(Status, EveryKindNameParsesBack)
{
    // The full closed taxonomy: kAllErrorKinds must cover every kind
    // exactly once, and every name must round-trip through the parser.
    size_t n = 0;
    for (ErrorKind k : kAllErrorKinds) {
        ++n;
        ErrorKind parsed;
        ASSERT_TRUE(parseErrorKind(errorKindName(k), parsed))
            << errorKindName(k);
        EXPECT_EQ(parsed, k);
        // Canonical names are unique (no two kinds share one).
        for (ErrorKind other : kAllErrorKinds) {
            if (other != k) {
                EXPECT_STRNE(errorKindName(k), errorKindName(other));
            }
        }
    }
    EXPECT_EQ(n, 12u) << "new ErrorKind added without updating "
                         "kAllErrorKinds or this test";

    ErrorKind parsed;
    EXPECT_TRUE(parseErrorKind("verify", parsed));
    EXPECT_EQ(parsed, ErrorKind::VerifyFailed);
    EXPECT_TRUE(parseErrorKind("deadline", parsed));
    EXPECT_EQ(parsed, ErrorKind::DeadlineExceeded);
    EXPECT_TRUE(parseErrorKind("budget", parsed));
    EXPECT_EQ(parsed, ErrorKind::BudgetExceeded);
    EXPECT_TRUE(parseErrorKind("io", parsed));
    EXPECT_EQ(parsed, ErrorKind::IoError);
    EXPECT_TRUE(parseErrorKind("unavailable", parsed));
    EXPECT_EQ(parsed, ErrorKind::Unavailable);
    EXPECT_FALSE(parseErrorKind("no-such-kind", parsed));
}

TEST(Status, ExpectedHoldsValueOrError)
{
    Expected<int> good(7);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 7);

    Expected<int> bad(Status::error(ErrorKind::BadProfile, "nope"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().kind(), ErrorKind::BadProfile);
}

// ---------------------------------------------------------------------
// FaultInjector.

TEST(FaultInjector, ParseAcceptsFullGrammar)
{
    FaultInjector inj;
    std::string err;
    ASSERT_TRUE(inj.parse(
        "stage=form,proc=3,kind=verify,count=2;stage=compact", err))
        << err;
    EXPECT_EQ(inj.size(), 2u);

    // Second spec: any proc, default kind, unlimited fires.
    EXPECT_EQ(inj.fire("compact", 17), ErrorKind::Injected);
    EXPECT_EQ(inj.fire("compact", 0), ErrorKind::Injected);

    // First spec: only proc 3, kind verify, at most twice.
    EXPECT_EQ(inj.fire("form", 2), std::nullopt);
    EXPECT_EQ(inj.fire("form", 3), ErrorKind::VerifyFailed);
    EXPECT_EQ(inj.fire("form", 3), ErrorKind::VerifyFailed);
    EXPECT_EQ(inj.fire("form", 3), std::nullopt); // budget spent
    EXPECT_EQ(inj.totalFired(), 4u);
}

TEST(FaultInjector, ParseRejectsMalformedSpecs)
{
    const char *bad[] = {
        "",                       // empty
        "proc=1",                 // no stage
        "stage=form,proc=x",      // bad proc id
        "stage=form,proc=-1",     // negative proc id
        "stage=form,kind=nope",   // unknown kind
        "stage=form,count=0",     // zero budget
        "stage=form,prob=2.0",    // out-of-range probability
        "stage=form,bogus=1",     // unknown field
        "stage=form,procid",      // field without '='
    };
    for (const char *spec : bad) {
        FaultInjector inj;
        std::string err;
        EXPECT_FALSE(inj.parse(spec, err)) << spec;
        EXPECT_FALSE(err.empty()) << spec;
    }
}

TEST(FaultInjector, ProbabilisticFiresAreSeedDeterministic)
{
    auto fires = [](uint64_t seed) {
        FaultInjector inj(seed);
        std::string err;
        EXPECT_TRUE(inj.parse("stage=form,prob=0.5", err)) << err;
        std::vector<bool> seen;
        for (uint32_t p = 0; p < 256; ++p)
            seen.push_back(inj.fire("form", p).has_value());
        return seen;
    };
    // Same seed => the same fire set, draw for draw, across two
    // independently constructed injectors.
    const auto a = fires(42);
    const auto b = fires(42);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, fires(43));
    // prob=0.5 over 256 draws fires some but not all (the determinism
    // check above would pass vacuously for an always/never injector).
    EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
    EXPECT_NE(std::count(a.begin(), a.end(), true), 256);
}

// ---------------------------------------------------------------------
// Pipeline quarantine: the injection matrix.

PipelineResult
runWc(SchedConfig config, PipelineOptions opts)
{
    const auto w = workloads::makeByName("wc");
    return pipeline::runPipeline(w.program, w.train, w.test, config,
                                 opts);
}

class InjectMatrix : public ::testing::TestWithParam<const char *>
{};

TEST_P(InjectMatrix, WcP4CompletesWithExactlyOneDegradation)
{
    const std::string stage = GetParam();
    FaultInjector inj;
    std::string err;
    ASSERT_TRUE(inj.parse("stage=" + stage + ",count=1", err)) << err;

    obs::StatRegistry registry;
    obs::Observer observer;
    observer.stats = &registry;
    PipelineOptions opts;
    opts.robustness.faults = &inj;
    opts.observability.observer = &observer;

    const PipelineResult r = runWc(SchedConfig::P4, opts);
    EXPECT_TRUE(r.status.ok()) << r.status.toString();
    EXPECT_TRUE(r.outputMatches);
    EXPECT_GT(r.test.cycles, 0u);
    EXPECT_EQ(inj.totalFired(), 1u);
    ASSERT_EQ(r.degraded.size(), 1u);
    EXPECT_TRUE(r.degradedRun());
    EXPECT_EQ(r.degraded[0].stage, stage);
    EXPECT_EQ(r.degraded[0].kind, ErrorKind::Injected);
    EXPECT_FALSE(r.degraded[0].procName.empty());

    EXPECT_EQ(registry.counter("robust.P4.degraded"), 1u);
    EXPECT_EQ(registry.counter("robust.P4.errors.Injected"), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Stages, InjectMatrix,
    ::testing::Values("form", "materialize", "compact", "regalloc",
                      "verify", "output-compare"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(Robustness, InjectedKindIsRecordedVerbatim)
{
    FaultInjector inj;
    std::string err;
    ASSERT_TRUE(inj.parse("stage=compact,count=1,kind=schedule", err))
        << err;
    PipelineOptions opts;
    opts.robustness.faults = &inj;
    const PipelineResult r = runWc(SchedConfig::P4, opts);
    EXPECT_TRUE(r.outputMatches);
    ASSERT_EQ(r.degraded.size(), 1u);
    EXPECT_EQ(r.degraded[0].kind, ErrorKind::ScheduleFailed);
}

TEST(Robustness, ArmedButNonMatchingInjectorChangesNothing)
{
    const PipelineResult clean = runWc(SchedConfig::P4, {});
    ASSERT_TRUE(clean.status.ok());
    EXPECT_FALSE(clean.degradedRun());

    FaultInjector inj;
    std::string err;
    ASSERT_TRUE(inj.parse("stage=form,proc=1000000", err)) << err;
    PipelineOptions opts;
    opts.robustness.faults = &inj;
    const PipelineResult armed = runWc(SchedConfig::P4, opts);

    EXPECT_EQ(inj.totalFired(), 0u);
    EXPECT_FALSE(armed.degradedRun());
    EXPECT_EQ(armed.test.cycles, clean.test.cycles);
    EXPECT_EQ(armed.test.dynInstrs, clean.test.dynInstrs);
    EXPECT_EQ(armed.codeBytes, clean.codeBytes);
}

// Every fallback entry, one stage at a time, with every procedure
// failing there: on wc, and on gcc, whose P4 procedures spill.
class FullDegradation
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>>
{};

TEST_P(FullDegradation, FallsBackToBBNumbers)
{
    const auto [stage, workload] = GetParam();
    const auto w = workloads::makeByName(workload);
    const PipelineResult bb = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::BB, {});

    FaultInjector inj;
    std::string err;
    ASSERT_TRUE(inj.parse("stage=" + stage, err)) << err; // every proc
    PipelineOptions opts;
    opts.robustness.faults = &inj;
    const PipelineResult r = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);

    EXPECT_TRUE(r.status.ok()) << r.status.toString();
    EXPECT_TRUE(r.outputMatches);
    EXPECT_EQ(r.degraded.size(), w.program.procs.size());
    for (const auto &d : r.degraded)
        EXPECT_EQ(d.stage, stage) << d.procName;
    // With every procedure quarantined the transformed program is the
    // BB program: the measured numbers must agree exactly.
    EXPECT_EQ(r.test.cycles, bb.test.cycles);
    EXPECT_EQ(r.test.dynInstrs, bb.test.dynInstrs);
    EXPECT_EQ(r.codeBytes, bb.codeBytes);
}

INSTANTIATE_TEST_SUITE_P(
    Stages, FullDegradation,
    ::testing::Combine(::testing::Values("form", "materialize", "compact",
                                         "regalloc", "verify",
                                         "output-compare"),
                       ::testing::Values("wc", "gcc")),
    [](const ::testing::TestParamInfo<FullDegradation::ParamType> &info) {
        std::string name =
            std::get<0>(info.param) + "_" + std::get<1>(info.param);
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(Robustness, TrainingStepLimitReturnsTypedStatus)
{
    PipelineOptions opts;
    opts.maxSteps = 100; // far below wc's training run
    const PipelineResult r = runWc(SchedConfig::P4, opts);
    ASSERT_FALSE(r.status.ok());
    EXPECT_EQ(r.status.kind(), ErrorKind::StepLimit);
    EXPECT_FALSE(r.degradedRun());
}

TEST(Robustness, ReferenceRunBudgetReturnsTypedStatusOncePerPrepare)
{
    // wc's test text runs longer than its training text, so a step
    // bound between the two lets the training run finish and stops
    // the reference run of the original program.
    const auto w = workloads::makeByName("wc");
    const uint64_t train_steps =
        interp::Interpreter(w.program).run(w.train).dynInstrs;
    const uint64_t test_steps =
        interp::Interpreter(w.program).run(w.test).dynInstrs;
    ASSERT_LT(train_steps, test_steps);
    PipelineOptions opts;
    opts.maxSteps = (train_steps + test_steps) / 2;
    const pipeline::PreparedWorkload prep = pipeline::prepareWorkload(
        w.program, w.train, w.test,
        pipeline::needsOf(pipeline::allBackends()), opts);
    EXPECT_EQ(prep.training.dynInstrs, train_steps);
    const std::string want =
        strfmt("reference test run exceeded %llu steps",
               (unsigned long long)opts.maxSteps);
    for (const pipeline::BackendDesc *be : pipeline::allBackends()) {
        const PipelineResult r = pipeline::runBackend(prep, *be, opts);
        ASSERT_FALSE(r.status.ok()) << be->name;
        EXPECT_EQ(r.status.kind(), ErrorKind::StepLimit) << be->name;
        EXPECT_EQ(r.status.message(), want) << be->name;
        EXPECT_FALSE(r.degradedRun()) << be->name;
    }
}

TEST(Robustness, DegradationsAppearInJsonReport)
{
    FaultInjector inj;
    std::string err;
    ASSERT_TRUE(inj.parse("stage=regalloc,count=1", err)) << err;
    PipelineOptions opts;
    opts.robustness.faults = &inj;
    PipelineResult r = runWc(SchedConfig::P4, opts);
    ASSERT_EQ(r.degraded.size(), 1u);

    std::vector<pipeline::ReportRun> runs;
    runs.push_back({"wc", std::move(r)});
    const std::string json = pipeline::reportJson(runs, nullptr);
    EXPECT_NE(json.find("\"status\": \"OK\""), std::string::npos);
    EXPECT_NE(json.find("\"degraded\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"degradations\":"), std::string::npos);
    EXPECT_NE(json.find("\"stage\": \"regalloc\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"Injected\""), std::string::npos);
}

TEST(Robustness, CleanReportCarriesOkStatusAndZeroDegraded)
{
    PipelineResult r = runWc(SchedConfig::BB, {});
    std::vector<pipeline::ReportRun> runs;
    runs.push_back({"wc", std::move(r)});
    const std::string json = pipeline::reportJson(runs, nullptr);
    EXPECT_NE(json.find("\"status\": \"OK\""), std::string::npos);
    EXPECT_NE(json.find("\"degraded\": 0"), std::string::npos);
    EXPECT_EQ(json.find("\"degradations\":"), std::string::npos);
}

} // namespace
} // namespace pathsched
