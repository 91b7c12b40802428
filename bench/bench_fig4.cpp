/**
 * @file
 * Regenerates Figure 4: cycle counts for path-based superblock
 * scheduling (P4) normalized against the edge-based approach (M4).
 * Both approaches are limited to an unroll factor of 4 and assume an
 * ideal instruction cache.
 *
 * Expected shape: 2-16% reduction on the SPEC-like set, much larger
 * reductions on the microbenchmarks.
 */

#include <cstdio>

#include "common.hpp"

using namespace pathsched;
using pipeline::backendFor;
using pipeline::SchedConfig;

int
main()
{
    bench::ExperimentRunner runner; // default options: perfect I-cache

    std::vector<double> p4;
    const auto benchmarks = bench::allBenchmarks();
    for (const auto &name : benchmarks) {
        const auto &m4 = runner.run(name, backendFor(SchedConfig::M4));
        const auto &r = runner.run(name, backendFor(SchedConfig::P4));
        p4.push_back(double(r.test.cycles) / double(m4.test.cycles));
    }
    bench::printNormalizedTable(
        "Figure 4: normalized cycle counts, perfect I-cache (vs M4)",
        benchmarks, {{"P4", p4}});
    return 0;
}
