/**
 * @file
 * parallelFor, determinism and stage-cache tests.
 *
 * The per-procedure parallel-for's contract is that the thread count
 * changes only which worker runs each procedure's chain, never what
 * the chains produce: the transformed IR, the measured run, and every
 * non-timing statistic must be byte-identical to the serial run for
 * every configuration.  The matrix here pins that down, along with the
 * memoized stage cache (hit-after-no-change, miss-after-input-change,
 * corrupt-entry rejection) and the grouped PipelineOptions fields.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ir/printer.hpp"
#include "obs/stats.hpp"
#include "obs/timer.hpp"
#include "pipeline/backend.hpp"
#include "pipeline/cache.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/pipeline.hpp"
#include "support/faultinject.hpp"
#include "support/vio.hpp"
#include "workloads/workloads.hpp"

namespace pathsched {
namespace {

using pipeline::PipelineOptions;
using pipeline::PipelineResult;
using pipeline::SchedConfig;
using pipeline::StageCache;

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
// Determinism matrix: N threads must be byte-identical to serial for
// every registered configuration.

/** Registry text with the thread/timing-dependent subtrees removed:
 *  "time.*" (wall clocks), "executor.*" (thread counts).  Everything
 *  else must be invariant across thread counts. */
std::string
invariantStats(const obs::StatRegistry &reg)
{
    std::istringstream in(reg.toText());
    std::string line, out;
    while (std::getline(in, line)) {
        if (line.rfind("time.", 0) == 0 ||
            line.rfind("executor.", 0) == 0)
            continue;
        out += line;
        out += '\n';
    }
    return out;
}

struct RunCapture
{
    std::string ir;
    std::string stats;
    uint64_t cycles = 0;
    std::vector<int64_t> output;
    int64_t returnValue = 0;
    size_t degraded = 0;
};

RunCapture
captureRun(const workloads::Workload &w, SchedConfig config,
           unsigned threads, FaultInjector *faults = nullptr)
{
    obs::StatRegistry registry;
    obs::Observer observer;
    observer.stats = &registry;
    PipelineOptions opts;
    opts.keepTransformed = true;
    opts.observability.observer = &observer;
    opts.executor.threads = threads;
    opts.robustness.faults = faults;
    const PipelineResult r = pipeline::runPipeline(
        w.program, w.train, w.test, config, opts);
    EXPECT_TRUE(r.status.ok()) << r.status.toString();
    EXPECT_TRUE(r.outputMatches);
    RunCapture c;
    if (r.transformed)
        c.ir = ir::toString(*r.transformed);
    c.stats = invariantStats(registry);
    c.cycles = r.test.cycles;
    c.output = r.test.output;
    c.returnValue = r.test.returnValue;
    c.degraded = r.degraded.size();
    return c;
}

class DeterminismMatrix
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(DeterminismMatrix, ParallelRunsAreByteIdenticalToSerial)
{
    const auto w = workloads::makeByName(GetParam());
    for (const pipeline::BackendDesc *be : pipeline::allBackends()) {
        const SchedConfig config = be->config;
        const RunCapture serial = captureRun(w, config, 1);
        EXPECT_FALSE(serial.ir.empty());
        for (const unsigned threads : {2u, 8u}) {
            const RunCapture par = captureRun(w, config, threads);
            const std::string what = std::string(GetParam()) + "/" +
                                     pipeline::configName(config) +
                                     " x" + std::to_string(threads);
            EXPECT_EQ(par.ir, serial.ir) << what;
            EXPECT_EQ(par.cycles, serial.cycles) << what;
            EXPECT_EQ(par.output, serial.output) << what;
            EXPECT_EQ(par.returnValue, serial.returnValue) << what;
            EXPECT_EQ(par.stats, serial.stats) << what;
            EXPECT_EQ(par.degraded, serial.degraded) << what;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, DeterminismMatrix,
                         ::testing::Values("wc", "alt", "corr"));

// ---------------------------------------------------------------------
// Fault isolation: a quarantined procedure on one worker must not
// poison its siblings, and attribution must not depend on the thread
// count (proc-targeted deterministic faults only — see pipeline.cpp).

TEST(FaultIsolation, QuarantineIsIdenticalAcrossThreadCounts)
{
    // gcc has enough procedures that the chains genuinely overlap.
    const auto w = workloads::makeByName("gcc");
    auto arm = [](FaultInjector &inj) {
        std::string err;
        ASSERT_TRUE(inj.parse("stage=compact,proc=2", err)) << err;
        ASSERT_TRUE(inj.parse("stage=regalloc,proc=5", err)) << err;
    };
    FaultInjector serial_inj(0);
    arm(serial_inj);
    const RunCapture serial =
        captureRun(w, SchedConfig::P4, 1, &serial_inj);
    EXPECT_EQ(serial.degraded, 2u);

    FaultInjector par_inj(0);
    arm(par_inj);
    const RunCapture par = captureRun(w, SchedConfig::P4, 4, &par_inj);
    EXPECT_EQ(par.degraded, 2u);
    EXPECT_EQ(par.ir, serial.ir);
    EXPECT_EQ(par.cycles, serial.cycles);
    EXPECT_EQ(par.output, serial.output);
    EXPECT_EQ(par.stats, serial.stats);
}

// ---------------------------------------------------------------------
// A PreparedWorkload is immutable once built, so backends may share it
// from several threads at once.

TEST(SharedPrepare, ConcurrentBackendsMatchSerialAndCountTheCostOnce)
{
    const auto w = workloads::makeByName("li");
    PipelineOptions opts;
    opts.keepTransformed = true;
    const auto &backends = pipeline::allBackends();
    const pipeline::ProfileNeeds needs = pipeline::needsOf(backends);

    const pipeline::PreparedWorkload serial_prep =
        pipeline::prepareWorkload(w.program, w.train, w.test, needs, opts);
    std::vector<PipelineResult> serial;
    for (const pipeline::BackendDesc *be : backends)
        serial.push_back(pipeline::runBackend(serial_prep, *be, opts));

    const pipeline::PreparedWorkload prep =
        pipeline::prepareWorkload(w.program, w.train, w.test, needs, opts);
    std::vector<PipelineResult> par(backends.size());
    {
        std::vector<std::thread> workers;
        for (size_t i = 0; i < backends.size(); ++i)
            workers.emplace_back([&, i] {
                par[i] = pipeline::runBackend(prep, *backends[i], opts);
            });
        for (std::thread &t : workers)
            t.join();
    }
    size_t counted = 0;
    for (size_t i = 0; i < backends.size(); ++i) {
        SCOPED_TRACE(backends[i]->name);
        ASSERT_TRUE(par[i].status.ok()) << par[i].status.toString();
        ASSERT_NE(par[i].transformed, nullptr);
        EXPECT_EQ(ir::toString(*par[i].transformed),
                  ir::toString(*serial[i].transformed));
        EXPECT_EQ(par[i].test.cycles, serial[i].test.cycles);
        EXPECT_EQ(par[i].test.output, serial[i].test.output);
        counted += par[i].stages.front().ms > 0;
    }
    EXPECT_EQ(counted, 1u);
}

// ---------------------------------------------------------------------
// Stage cache.

TEST(StageCacheTest, WarmRerunHitsEveryProcedureAndMatchesCold)
{
    const auto w = workloads::makeByName("wc");
    StageCache cache;
    PipelineOptions opts;
    opts.keepTransformed = true;
    opts.executor.cache = &cache;
    const PipelineResult cold = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);
    ASSERT_TRUE(cold.status.ok());
    EXPECT_EQ(cold.exec.cacheHits, 0u);
    EXPECT_GT(cold.exec.cacheMisses, 0u);

    const PipelineResult warm = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);
    ASSERT_TRUE(warm.status.ok());
    EXPECT_EQ(warm.exec.cacheMisses, 0u);
    EXPECT_EQ(warm.exec.cacheHits, cold.exec.cacheMisses);

    // A hit replays the chain exactly: same IR, same measured run,
    // same per-stage counters.
    EXPECT_EQ(ir::toString(*warm.transformed),
              ir::toString(*cold.transformed));
    EXPECT_EQ(warm.test.cycles, cold.test.cycles);
    EXPECT_EQ(warm.test.output, cold.test.output);
    EXPECT_EQ(warm.form.superblocksFormed, cold.form.superblocksFormed);
    EXPECT_EQ(warm.compact.sched.totalCycles,
              cold.compact.sched.totalCycles);
    EXPECT_EQ(warm.alloc.regsSpilled, cold.alloc.regsSpilled);
}

TEST(StageCacheTest, ProfileChangeMissesTheCache)
{
    // Same program, same config — but a different training input
    // changes the profile content hash, so reuse would be wrong.
    auto w = workloads::makeByName("wc");
    StageCache cache;
    PipelineOptions opts;
    opts.executor.cache = &cache;
    const PipelineResult first = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);
    ASSERT_TRUE(first.status.ok());

    auto edited = w.train;
    ASSERT_FALSE(edited.memImage.empty());
    edited.memImage[0] ^= 1; // different text -> different path counts
    const PipelineResult second = pipeline::runPipeline(
        w.program, edited, w.test, SchedConfig::P4, opts);
    ASSERT_TRUE(second.status.ok());
    EXPECT_GT(second.exec.cacheMisses, 0u);
}

TEST(StageCacheTest, ConfigKnobsAreInTheKey)
{
    const auto w = workloads::makeByName("wc");
    StageCache cache;
    PipelineOptions opts;
    opts.executor.cache = &cache;
    const PipelineResult first = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);
    ASSERT_TRUE(first.status.ok());

    PipelineOptions narrower = opts;
    narrower.maxInstrs = 32;
    const PipelineResult second = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, narrower);
    ASSERT_TRUE(second.status.ok());
    EXPECT_EQ(second.exec.cacheHits, 0u);
    EXPECT_GT(second.exec.cacheMisses, 0u);
}

TEST(StageCacheTest, BudgetedAndFaultedRunsBypassTheCache)
{
    const auto w = workloads::makeByName("wc");
    StageCache cache;
    PipelineOptions opts;
    opts.executor.cache = &cache;
    opts.robustness.budget.formGrowthOps = 1'000'000'000;
    const PipelineResult r = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.exec.cacheHits, 0u);
    EXPECT_EQ(r.exec.cacheMisses, 0u);
    EXPECT_EQ(cache.stats().stores, 0u);
}

class DiskCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "pathsched_cache_" +
               std::to_string(::getpid());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string dir_;
};

TEST_F(DiskCacheTest, EntriesPersistAcrossCacheInstances)
{
    const auto w = workloads::makeByName("wc");
    PipelineOptions opts;
    opts.keepTransformed = true;
    uint64_t stored = 0;
    std::string cold_ir;
    {
        StageCache writer(dir_);
        opts.executor.cache = &writer;
        const PipelineResult cold = pipeline::runPipeline(
            w.program, w.train, w.test, SchedConfig::P4, opts);
        ASSERT_TRUE(cold.status.ok());
        stored = writer.stats().stores;
        cold_ir = ir::toString(*cold.transformed);
    }
    EXPECT_GT(stored, 0u);

    // A fresh instance (fresh process in real use) hits via disk.
    StageCache reader(dir_);
    opts.executor.cache = &reader;
    const PipelineResult warm = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);
    ASSERT_TRUE(warm.status.ok());
    EXPECT_EQ(warm.exec.cacheMisses, 0u);
    EXPECT_GT(reader.stats().diskHits, 0u);
    EXPECT_EQ(ir::toString(*warm.transformed), cold_ir);
}

TEST_F(DiskCacheTest, CorruptEntriesAreRejectedAsMisses)
{
    const auto w = workloads::makeByName("wc");
    PipelineOptions opts;
    opts.keepTransformed = true;
    std::string cold_ir;
    {
        StageCache writer(dir_);
        opts.executor.cache = &writer;
        const PipelineResult cold = pipeline::runPipeline(
            w.program, w.train, w.test, SchedConfig::P4, opts);
        ASSERT_TRUE(cold.status.ok());
        cold_ir = ir::toString(*cold.transformed);
    }

    // Flip a byte in the middle of every entry file: the checksum must
    // catch it and the run must recompute rather than trust the blob.
    size_t corrupted = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir_)) {
        std::fstream f(e.path(),
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.is_open());
        f.seekg(0, std::ios::end);
        const auto size = f.tellg();
        ASSERT_GT(size, 0);
        f.seekp(std::streamoff(size) / 2);
        char c = 0;
        f.seekg(std::streamoff(size) / 2);
        f.read(&c, 1);
        c = char(c ^ 0xff);
        f.seekp(std::streamoff(size) / 2);
        f.write(&c, 1);
        ++corrupted;
    }
    ASSERT_GT(corrupted, 0u);

    StageCache reader(dir_);
    opts.executor.cache = &reader;
    const PipelineResult r = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.outputMatches);
    EXPECT_EQ(reader.stats().corrupt, corrupted);
    EXPECT_EQ(r.exec.cacheHits, 0u);
    EXPECT_EQ(ir::toString(*r.transformed), cold_ir);
}

TEST_F(DiskCacheTest, DiskFaultDisablesTheTierWithoutChangingOutput)
{
    // A mid-run ENOSPC on the cache directory must demote the cache to
    // memory-only: the pipeline keeps running, produces bit-identical
    // IR, and never touches the sick disk again.
    const auto w = workloads::makeByName("wc");
    PipelineOptions opts;
    opts.keepTransformed = true;

    // Baseline: no cache at all.
    std::string plain_ir;
    {
        const PipelineResult plain = pipeline::runPipeline(
            w.program, w.train, w.test, SchedConfig::P4, opts);
        ASSERT_TRUE(plain.status.ok());
        plain_ir = ir::toString(*plain.transformed);
    }

    Vio vio;
    std::string err;
    ASSERT_TRUE(vio.parseFaults("path=cache,kind=enospc", err)) << err;
    StageCache cache(dir_, &vio);
    opts.executor.cache = &cache;
    const PipelineResult r = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.outputMatches);
    EXPECT_TRUE(cache.diskDisabled());
    EXPECT_GE(cache.stats().diskFailures, 1u);
    EXPECT_EQ(ir::toString(*r.transformed), plain_ir);

    // The memory tier survives: an in-process rerun hits it.
    const PipelineResult warm = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);
    ASSERT_TRUE(warm.status.ok());
    EXPECT_GT(warm.exec.cacheHits, 0u);
    EXPECT_EQ(ir::toString(*warm.transformed), plain_ir);

    // Nothing half-written was left behind on the faulted disk.
    size_t leftovers = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir_)) {
        (void)e;
        ++leftovers;
    }
    EXPECT_EQ(leftovers, 0u);
}

TEST(StageCacheTest, SerializeProcedureRoundTrips)
{
    const auto w = workloads::makeByName("alt");
    for (const auto &proc : w.program.procs) {
        std::string blob;
        pipeline::serializeProcedure(proc, blob);
        size_t pos = 0;
        ir::Procedure out;
        ASSERT_TRUE(pipeline::deserializeProcedure(blob, pos, out));
        EXPECT_EQ(pos, blob.size());
        out.syncSideTables();
        EXPECT_EQ(ir::toString(out), ir::toString(proc));
    }
    // Truncation at any point must fail cleanly, never read past end.
    std::string blob;
    pipeline::serializeProcedure(w.program.procs[0], blob);
    for (size_t cut = 0; cut < blob.size();
         cut += 1 + blob.size() / 37) {
        size_t pos = 0;
        ir::Procedure out;
        EXPECT_FALSE(pipeline::deserializeProcedure(
            blob.substr(0, cut), pos, out));
    }
}

// ---------------------------------------------------------------------
// PipelineOptions v2: the grouped option fields.

TEST(PipelineOptionsV2, GroupedBudgetGovernsARun)
{
    const auto w = workloads::makeByName("wc");
    PipelineOptions opts;
    opts.robustness.budget.deadline = Deadline::afterMs(0);
    const PipelineResult r = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);
    EXPECT_FALSE(r.status.ok());
    EXPECT_EQ(r.status.kind(), ErrorKind::DeadlineExceeded);
}

} // namespace
} // namespace pathsched
