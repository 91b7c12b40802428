/**
 * @file
 * Regenerates Figure 5: cycle counts with the 32 KB direct-mapped
 * instruction cache (6-cycle miss penalty); "P4" and "P4e" normalized
 * against the edge-based approach (M4).  Microbenchmarks are omitted
 * as in the paper ("they always fit in the cache").
 *
 * Expected shape: P4 keeps most of its ideal-cache win; at least one
 * large-footprint benchmark loses under P4's code expansion; P4e
 * recovers it and outperforms the edge-based approach across the
 * SPEC-like set.
 */

#include <cstdio>

#include "common.hpp"

using namespace pathsched;
using pipeline::backendFor;
using pipeline::SchedConfig;

int
main()
{
    pipeline::PipelineOptions opts;
    opts.useICache = true;
    bench::ExperimentRunner runner(opts);

    std::vector<double> p4, p4e;
    const auto benchmarks = bench::nonMicroBenchmarks();
    for (const auto &name : benchmarks) {
        const auto &m4 = runner.run(name, backendFor(SchedConfig::M4));
        const auto &r4 = runner.run(name, backendFor(SchedConfig::P4));
        const auto &r4e = runner.run(name, backendFor(SchedConfig::P4e));
        p4.push_back(double(r4.test.cycles) / double(m4.test.cycles));
        p4e.push_back(double(r4e.test.cycles) / double(m4.test.cycles));
    }
    bench::printNormalizedTable(
        "Figure 5: normalized cycle counts, 32KB direct-mapped I-cache "
        "(vs M4)",
        benchmarks, {{"P4", p4}, {"P4e", p4e}});
    return 0;
}
