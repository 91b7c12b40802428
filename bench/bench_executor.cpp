/**
 * @file
 * Executor scaling benchmark.
 *
 * Batch sweep scaling, written to BENCH_executor.json: every
 * (workload x config) pipeline run of a Table-1 sweep as one index of
 * a parallelFor, at 1 worker vs 8.  The runs are independent, so on a
 * multi-core machine the 8-thread sweep should approach the core
 * count; on a single core both degenerate to the serial sweep.
 *
 * A shared host lends a sweep fewer cores at some moments than at
 * others, so one pair of sweeps can read far below what the program
 * scales to.  The benchmark times kPairs alternating (1-worker,
 * 8-worker) pairs and reports each; a gate reads the best pair.
 *
 * Determinism is asserted, not assumed: every sweep's cycle counts are
 * cross-checked against the first serial sweep's before timing is
 * reported.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>

#include "common.hpp"
#include "pipeline/executor.hpp"
#include "support/logging.hpp"

using namespace pathsched;

namespace {

using Clock = std::chrono::steady_clock;
/** Test cycles per (workload, config) run of a sweep. */
using Cycles =
    std::map<std::pair<std::string, pipeline::SchedConfig>, uint64_t>;

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
      unsigned threads, Cycles &cycles)
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
        pipeline::PipelineOptions opts;
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

    // Alternating (1-worker, 8-worker) sweep pairs.
    constexpr int kPairs = 3;
    const unsigned cores = pipeline::hardwareThreads();
    Cycles want;
    double best = 0;
    for (int pair = 1; pair <= kPairs; ++pair) {
        Cycles serial_cycles, par_cycles;
        const double sweep1 = sweep(benchmarks, configs, 1, serial_cycles);
        const double sweep8 = sweep(benchmarks, configs, 8, par_cycles);
        if (want.empty())
            want = serial_cycles;
        if (serial_cycles != want || par_cycles != want)
            panic("pair %d: a sweep changed results vs the first serial "
                  "sweep",
                  pair);
        const double speedup = sweep1 / sweep8;
        best = std::max(best, speedup);
        std::printf("batch sweep pair %d (%zu runs): 1 worker %.0f ms, "
                    "8 workers %.0f ms  (speedup %.2fx, %u cores)\n",
                    pair, want.size(), sweep1, sweep8, speedup, cores);
        report.row("sweep", "pair-" + std::to_string(pair));
        report.metric("ms1", sweep1);
        report.metric("ms8", sweep8);
        report.metric("speedup", speedup);
        report.metric("cores", double(cores));
    }
    std::printf("best of %d pairs: %.2fx\n", kPairs, best);

    if (!report.write())
        std::fprintf(stderr,
                     "warning: could not write BENCH_executor.json\n");
    return 0;
}
