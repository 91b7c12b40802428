/**
 * @file
 * Executor scaling and stage-cache benchmark.
 *
 * Three measurements, all written to BENCH_executor.json:
 *
 *  1. Batch sweep scaling: every (workload x config) pipeline run of a
 *     Table-1 sweep as one index of a parallelFor, at 1 worker vs 8.  The runs are independent, so on a
 *     multi-core machine the 8-thread sweep should approach the core
 *     count; on a single core both degenerate to the serial sweep.
 *  2. In-run scaling: the largest workload (gcc, 259 procedures) with
 *     the pipeline's own per-procedure parallel-for at 1 vs 8 threads.
 *     Amdahl applies — the train/test/verify interpreter runs are
 *     serial — so this is a smaller, honest number.
 *  3. Stage-cache effect: the same run cold vs warm (in-memory tier),
 *     where the warm run skips every transform chain.
 *
 * Determinism is asserted, not assumed: each measurement cross-checks
 * cycle counts against the serial baseline before timing is reported.
 */

#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>

#include "common.hpp"
#include "pipeline/cache.hpp"
#include "pipeline/executor.hpp"
#include "support/logging.hpp"

using namespace pathsched;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** One full sweep, each pipeline run one parallelFor index; returns
 *  wall ms and fills cycles per (workload, config) for verification. */
double
sweep(const std::vector<std::string> &benchmarks,
      const std::vector<pipeline::SchedConfig> &configs,
      unsigned threads,
      std::map<std::pair<std::string, pipeline::SchedConfig>,
               uint64_t> &cycles)
{
    // Workloads build once, outside the timed region; tasks share them
    // read-only, the way a batch driver shares its corpus.
    std::map<std::string, workloads::Workload> corpus;
    for (const auto &name : benchmarks)
        corpus.emplace(name, workloads::makeByName(name));

    std::vector<std::pair<std::string, pipeline::SchedConfig>> runs;
    for (const auto &name : benchmarks) {
        for (const auto config : configs)
            runs.emplace_back(name, config);
    }

    std::mutex mu;
    const auto t0 = Clock::now();
    pipeline::parallelFor(threads, runs.size(), [&](size_t i) {
        const auto &[name, config] = runs[i];
        const workloads::Workload &w = corpus.at(name);
        pipeline::PipelineOptions opts; // serial inside a run
        const auto r = pipeline::runPipeline(w.program, w.train, w.test,
                                             config, opts);
        if (!r.status.ok())
            panic("%s/%s failed: %s", name.c_str(), r.name.c_str(),
                  r.status.toString().c_str());
        std::lock_guard<std::mutex> lk(mu);
        cycles[runs[i]] = r.test.cycles;
    });
    return msSince(t0);
}

} // namespace

int
main()
{
    const std::vector<std::string> benchmarks = bench::allBenchmarks();
    const std::vector<pipeline::SchedConfig> configs = {
        pipeline::SchedConfig::BB, pipeline::SchedConfig::M4,
        pipeline::SchedConfig::P4};

    bench::JsonReport report("executor");

    // --- 1. Batch sweep at 1 vs 8 workers. ---
    std::map<std::pair<std::string, pipeline::SchedConfig>, uint64_t>
        serial_cycles, par_cycles;
    const double sweep1 = sweep(benchmarks, configs, 1, serial_cycles);
    const double sweep8 = sweep(benchmarks, configs, 8, par_cycles);
    if (par_cycles != serial_cycles)
        panic("8-worker sweep changed results vs serial");
    const double sweep_speedup = sweep1 / sweep8;
    std::printf("batch sweep (%zu runs): 1 worker %.0f ms, "
                "8 workers %.0f ms  (speedup %.2fx, %u cores)\n",
                serial_cycles.size(), sweep1, sweep8, sweep_speedup,
                pipeline::hardwareThreads());
    report.row("sweep", "1-worker");
    report.metric("ms", sweep1);
    report.row("sweep", "8-worker");
    report.metric("ms", sweep8);
    report.metric("speedup", sweep_speedup);
    report.metric("cores",
                  double(pipeline::hardwareThreads()));

    // --- 2. In-run per-procedure parallelism on the largest program.
    const auto gcc = workloads::makeByName("gcc");
    auto timedRun = [&](unsigned threads,
                        pipeline::StageCache *cache) -> double {
        pipeline::PipelineOptions opts;
        opts.executor.threads = threads;
        opts.executor.cache = cache;
        const auto t0 = Clock::now();
        const auto r = pipeline::runPipeline(gcc.program, gcc.train,
                                             gcc.test,
                                             pipeline::SchedConfig::P4,
                                             opts);
        const double ms = msSince(t0);
        if (!r.status.ok())
            panic("gcc/P4 failed: %s", r.status.toString().c_str());
        const uint64_t want =
            serial_cycles.at({"gcc", pipeline::SchedConfig::P4});
        if (r.test.cycles != want)
            panic("gcc/P4 cycles drifted: %llu vs %llu",
                  (unsigned long long)r.test.cycles,
                  (unsigned long long)want);
        return ms;
    };
    const double run1 = timedRun(1, nullptr);
    const double run8 = timedRun(8, nullptr);
    std::printf("gcc/P4 in-run: 1 thread %.0f ms, 8 threads %.0f ms "
                "(speedup %.2fx)\n",
                run1, run8, run1 / run8);
    report.row("gcc-P4", "1-thread");
    report.metric("ms", run1);
    report.row("gcc-P4", "8-thread");
    report.metric("ms", run8);
    report.metric("speedup", run1 / run8);

    // --- 3. Cold vs warm stage cache. ---
    pipeline::StageCache cache;
    const double cold = timedRun(1, &cache);
    const double warm = timedRun(1, &cache);
    std::printf("gcc/P4 stage cache: cold %.0f ms, warm %.0f ms "
                "(speedup %.2fx; %llu hits)\n",
                cold, warm, cold / warm,
                (unsigned long long)cache.stats().hits);
    report.row("gcc-P4-cache", "cold");
    report.metric("ms", cold);
    report.row("gcc-P4-cache", "warm");
    report.metric("ms", warm);
    report.metric("speedup", cold / warm);
    report.metric("hits", double(cache.stats().hits));

    if (!report.write())
        std::fprintf(stderr,
                     "warning: could not write BENCH_executor.json\n");
    return 0;
}
