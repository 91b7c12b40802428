/**
 * @file
 * parallelFor, concurrent-run determinism and fault-isolation tests.
 *
 * A pipeline run is serial; parallelism lives between runs, which may
 * share one PreparedWorkload from any threads.  The contract is that a
 * run's thread and its neighbours change nothing it produces: the
 * transformed IR, the measured run, its degradations and every
 * non-timing statistic must be byte-identical to the same run made
 * alone, for every configuration.  The matrix here pins that down.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ir/printer.hpp"
#include "obs/stats.hpp"
#include "obs/timer.hpp"
#include "pipeline/backend.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/pipeline.hpp"
#include "support/faultinject.hpp"
#include "support/strutil.hpp"
#include "workloads/workloads.hpp"

namespace pathsched {
namespace {

using pipeline::PipelineOptions;
using pipeline::PipelineResult;
using pipeline::SchedConfig;

// ---------------------------------------------------------------------
// parallelFor unit tests.

TEST(ParallelFor, RunsEveryIndexExactlyOnce)
{
    for (const unsigned threads : {1u, 4u, 16u}) {
        for (const size_t n : {size_t(0), size_t(1), size_t(3),
                               size_t(1000)}) {
            std::vector<std::atomic<int>> hits(n);
            pipeline::parallelFor(threads, n,
                                  [&](size_t i) { ++hits[i]; });
            for (size_t i = 0; i < n; ++i)
                EXPECT_EQ(hits[i].load(), 1)
                    << "threads=" << threads << " n=" << n << " i=" << i;
        }
    }
}

TEST(ParallelFor, SingleThreadRunsInIndexOrderOnTheCallingThread)
{
    // The serial pipeline is the procedure-id chain order, so index
    // order on the caller is a documented guarantee at threads = 1.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<size_t> order;
    bool on_caller = true;
    pipeline::parallelFor(1, 20, [&](size_t i) {
        order.push_back(i);
        on_caller = on_caller && std::this_thread::get_id() == caller;
    });
    EXPECT_TRUE(on_caller);
    ASSERT_EQ(order.size(), 20u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, ForwardsABodyExceptionToTheCaller)
{
    for (const unsigned threads : {1u, 4u}) {
        std::atomic<size_t> ran{0};
        const auto body = [&](size_t i) {
            ++ran;
            if (i == 7)
                throw std::runtime_error("boom");
        };
        EXPECT_THROW(pipeline::parallelFor(threads, 1000, body),
                     std::runtime_error)
            << "threads=" << threads;
        // Serially, nothing after the throwing index starts.
        if (threads == 1) {
            EXPECT_EQ(ran.load(), 8u);
        }
    }
}

// ---------------------------------------------------------------------
// Concurrent-runs matrix: every registered backend on its own thread,
// all sharing one PreparedWorkload, must be byte-identical to the same
// runs made one after another.

/** Registry text without the wall-clock subtree ("time.*").  Everything
 *  else must be invariant across runs. */
std::string
invariantStats(const obs::StatRegistry &reg)
{
    std::istringstream in(reg.toText());
    std::string line, out;
    while (std::getline(in, line)) {
        if (line.rfind("time.", 0) == 0)
            continue;
        out += line;
        out += '\n';
    }
    return out;
}

struct RunCapture
{
    std::string ir;
    /** Each transformed procedure's text, by procedure id. */
    std::vector<std::string> procs;
    std::string stats;
    uint64_t cycles = 0;
    std::vector<int64_t> output;
    int64_t returnValue = 0;
    /** "proc:stage" of every degradation, in report order. */
    std::vector<std::string> degradedAt;
    /** The "train" row's ms: non-zero only for the run that claimed
     *  the prepared training cost. */
    double trainMs = 0;
};

/** One runBackend() on @p prepared, recording into its own registry. */
RunCapture
captureRun(const pipeline::PreparedWorkload &prepared,
           const pipeline::BackendDesc &be, FaultInjector *faults = nullptr)
{
    obs::StatRegistry registry;
    obs::Observer observer;
    observer.stats = &registry;
    PipelineOptions opts;
    opts.keepTransformed = true;
    opts.observability.observer = &observer;
    opts.robustness.faults = faults;
    const PipelineResult r = pipeline::runBackend(prepared, be, opts);
    EXPECT_TRUE(r.status.ok()) << r.status.toString();
    EXPECT_TRUE(r.outputMatches);
    RunCapture c;
    if (r.transformed) {
        c.ir = ir::toString(*r.transformed);
        for (const ir::Procedure &proc : r.transformed->procs)
            c.procs.push_back(ir::toString(proc));
    }
    c.stats = invariantStats(registry);
    c.cycles = r.test.cycles;
    c.output = r.test.output;
    c.returnValue = r.test.returnValue;
    for (const pipeline::Degradation &d : r.degraded)
        c.degradedAt.push_back(std::to_string(d.proc) + ":" + d.stage);
    c.trainMs = r.stages.front().ms;
    return c;
}

pipeline::PreparedWorkload
prepareAll(const workloads::Workload &w)
{
    return pipeline::prepareWorkload(
        w.program, w.train, w.test,
        pipeline::needsOf(pipeline::allBackends()), PipelineOptions());
}

/** Serially: one captureRun of every backend. */
std::vector<RunCapture>
serialRuns(const workloads::Workload &w, FaultInjector *faults = nullptr)
{
    const pipeline::PreparedWorkload prep = prepareAll(w);
    std::vector<RunCapture> out;
    for (const pipeline::BackendDesc *be : pipeline::allBackends())
        out.push_back(captureRun(prep, *be, faults));
    return out;
}

/** Concurrently: every backend's captureRun on its own thread, all on
 *  one fresh PreparedWorkload. */
std::vector<RunCapture>
concurrentRuns(const workloads::Workload &w, FaultInjector *faults = nullptr)
{
    const pipeline::PreparedWorkload prep = prepareAll(w);
    const auto &backends = pipeline::allBackends();
    std::vector<RunCapture> out(backends.size());
    {
        // jthreads join on scope exit, also when starting one throws.
        std::vector<std::jthread> workers;
        for (size_t i = 0; i < backends.size(); ++i)
            workers.emplace_back(
                [&, i] { out[i] = captureRun(prep, *backends[i], faults); });
    }
    return out;
}

void
expectSameRuns(const std::vector<RunCapture> &par,
               const std::vector<RunCapture> &serial,
               const std::string &workload)
{
    ASSERT_EQ(par.size(), serial.size());
    const auto &backends = pipeline::allBackends();
    for (size_t i = 0; i < par.size(); ++i) {
        const std::string what = workload + "/" + backends[i]->name;
        EXPECT_FALSE(serial[i].ir.empty()) << what;
        EXPECT_EQ(par[i].ir, serial[i].ir) << what;
        EXPECT_EQ(par[i].cycles, serial[i].cycles) << what;
        EXPECT_EQ(par[i].output, serial[i].output) << what;
        EXPECT_EQ(par[i].returnValue, serial[i].returnValue) << what;
        EXPECT_EQ(par[i].degradedAt, serial[i].degradedAt) << what;
        EXPECT_EQ(par[i].stats, serial[i].stats) << what;
    }
}

class DeterminismMatrix
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(DeterminismMatrix, ParallelRunsAreByteIdenticalToSerial)
{
    const auto w = workloads::makeByName(GetParam());
    const std::vector<RunCapture> serial = serialRuns(w);
    const std::vector<RunCapture> par = concurrentRuns(w);
    expectSameRuns(par, serial, GetParam());
    // The shared training run's cost is claimed by exactly one run.
    size_t claimed = 0;
    for (const RunCapture &c : par)
        claimed += c.trainMs > 0;
    EXPECT_EQ(claimed, 1u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, DeterminismMatrix,
                         ::testing::Values("wc", "alt", "corr", "li"));

// ---------------------------------------------------------------------
// Fault isolation: a quarantined procedure must not poison its
// siblings, and chain failures are reported in procedure-id order.
// Concurrent runs may share one injector (it locks itself); with
// proc-targeted faults, which fire on every query, attribution does
// not depend on how the runs interleave.

/** Arm a compact fault on procedure @p c and a regalloc fault on @p r. */
void
armCompactAndRegalloc(FaultInjector &inj, ir::ProcId c, ir::ProcId r)
{
    std::string err;
    ASSERT_TRUE(inj.parse(strfmt("stage=compact,proc=%u", c), err)) << err;
    ASSERT_TRUE(inj.parse(strfmt("stage=regalloc,proc=%u", r), err)) << err;
}

TEST(FaultIsolation, QuarantineLeavesTheOtherProceduresAlone)
{
    // gcc has enough procedures for siblings on both sides of the
    // faulted ones.
    const auto w = workloads::makeByName("gcc");
    const pipeline::PreparedWorkload prep = prepareAll(w);
    const pipeline::BackendDesc &p4 = pipeline::backendFor(SchedConfig::P4);
    FaultInjector inj(0);
    armCompactAndRegalloc(inj, 2, 5);
    const RunCapture clean = captureRun(prep, p4);
    const RunCapture faulted = captureRun(prep, p4, &inj);
    EXPECT_TRUE(clean.degradedAt.empty());
    EXPECT_EQ(faulted.degradedAt,
              (std::vector<std::string>{"2:compact", "5:regalloc"}));
    EXPECT_EQ(faulted.output, clean.output);

    // Every procedure but the two is scheduled as in the clean run.
    const std::vector<std::string> &a = clean.procs;
    const std::vector<std::string> &b = faulted.procs;
    ASSERT_EQ(a.size(), b.size());
    ASSERT_GT(a.size(), 6u);
    for (size_t p = 0; p < a.size(); ++p) {
        if (p != 2 && p != 5) {
            EXPECT_EQ(b[p], a[p]) << "proc " << p;
        }
    }
}

TEST(FaultIsolation, ChainFailuresAreReportedInProcedureIdOrder)
{
    // A verify fault on a low-id procedure and a form fault on a
    // higher-id one are both failures inside a procedure's own chain,
    // so the report lists them by procedure id.
    const auto w = workloads::makeByName("gcc");
    FaultInjector inj(0);
    std::string err;
    ASSERT_TRUE(inj.parse("stage=verify,proc=0", err)) << err;
    ASSERT_TRUE(inj.parse("stage=form,proc=2", err)) << err;
    const RunCapture r = captureRun(
        prepareAll(w), pipeline::backendFor(SchedConfig::P4), &inj);
    EXPECT_EQ(r.degradedAt,
              (std::vector<std::string>{"0:verify", "2:form"}));
}

TEST(FaultIsolation, ConcurrentRunsShareOneInjector)
{
    // Every backend on its own thread queries the one injector; each
    // run degrades exactly as it does alone.
    const auto w = workloads::makeByName("li");
    const ir::ProcId last = ir::ProcId(w.program.procs.size() - 1);
    ASSERT_GE(last, 2u);
    const std::vector<std::string> expected = {
        "1:compact", std::to_string(last) + ":regalloc"};
    FaultInjector serial_inj(0);
    armCompactAndRegalloc(serial_inj, 1, last);
    const std::vector<RunCapture> serial = serialRuns(w, &serial_inj);
    for (const RunCapture &c : serial)
        EXPECT_EQ(c.degradedAt, expected);
    FaultInjector par_inj(0);
    armCompactAndRegalloc(par_inj, 1, last);
    expectSameRuns(concurrentRuns(w, &par_inj), serial, "li");
}

} // namespace
} // namespace pathsched
