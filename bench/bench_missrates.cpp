/**
 * @file
 * Regenerates the §4 instruction-cache miss-rate discussion: the 32 KB
 * direct-mapped I-cache miss rate under the edge-based (M4) and
 * path-based (P4, P4e) approaches, plus code sizes.
 *
 * The paper highlights gcc (2.67% -> 3.92%) and go (2.53% -> 4.67%):
 * path-based code expansion raises the miss rates of the benchmarks
 * with non-trivial footprints, and the P4e heuristic pulls the
 * expansion back.
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

    std::printf("I-cache miss rates and code sizes "
                "(32KB direct-mapped, 32B lines, 6-cycle penalty)\n\n");
    std::printf("%-8s %9s %9s %9s   %10s %10s %10s\n", "bench",
                "M4 miss", "P4 miss", "P4e miss", "M4 KB", "P4 KB",
                "P4e KB");

    for (const auto &name : bench::nonMicroBenchmarks()) {
        const auto &m4 = runner.run(name, backendFor(SchedConfig::M4));
        const auto &p4 = runner.run(name, backendFor(SchedConfig::P4));
        const auto &p4e = runner.run(name, backendFor(SchedConfig::P4e));
        auto rate = [](const pipeline::PipelineResult &r) {
            return r.test.icacheAccesses == 0
                       ? 0.0
                       : 100.0 * double(r.test.icacheMisses) /
                             double(r.test.icacheAccesses);
        };
        std::printf("%-8s %8.2f%% %8.2f%% %8.2f%%   %10.1f %10.1f "
                    "%10.1f\n",
                    name.c_str(), rate(m4), rate(p4), rate(p4e),
                    double(m4.codeBytes) / 1024.0,
                    double(p4.codeBytes) / 1024.0,
                    double(p4e.codeBytes) / 1024.0);
    }
    return 0;
}
