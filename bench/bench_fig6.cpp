/**
 * @file
 * Regenerates Figure 6: is it more important to unroll aggressively or
 * to exploit the actual important paths?  "P4e" (paths, unroll bound
 * 4) and "M16" (edge profiles, unroll factor 16) with the 32 KB
 * I-cache, both normalized against M4.
 *
 * Expected shape: except for a few benchmarks where plain unrolling is
 * what matters (the eqntott analogue), paths at unroll 4 beat edges at
 * unroll 16.
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

    std::vector<double> p4e, m16;
    const auto benchmarks = bench::allBenchmarks();
    for (const auto &name : benchmarks) {
        const auto &m4 = runner.run(name, backendFor(SchedConfig::M4));
        const auto &r4e = runner.run(name, backendFor(SchedConfig::P4e));
        const auto &r16 = runner.run(name, backendFor(SchedConfig::M16));
        p4e.push_back(double(r4e.test.cycles) / double(m4.test.cycles));
        m16.push_back(double(r16.test.cycles) / double(m4.test.cycles));
    }
    bench::printNormalizedTable(
        "Figure 6: normalized cycle counts, 32KB I-cache (vs M4)",
        benchmarks, {{"P4e", p4e}, {"M16", m16}});
    return 0;
}
