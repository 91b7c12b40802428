/**
 * @file
 * Path-depth ablation (§2.2): the paper profiles general paths of up
 * to 15 conditional branches.  This sweep shows how the P4 result
 * degrades as the profiling depth shrinks: shallow windows lose the
 * cross-iteration correlation that drives path-based unrolling and
 * correlated-branch formation.
 */

#include <cstdio>

#include "common.hpp"

using namespace pathsched;
using pipeline::backendFor;
using pipeline::SchedConfig;

int
main()
{
    const uint32_t depths[] = {1, 3, 7, 15};
    // A representative subset: the correlation-heavy micros plus two
    // loop benchmarks and one interpreter.
    const std::vector<std::string> benchmarks = {"alt", "ph", "corr",
                                                 "wc", "esp", "perl"};

    std::vector<std::pair<std::string, std::vector<double>>> series;
    for (const uint32_t depth : depths) {
        pipeline::PipelineOptions opts;
        opts.pathParams.maxBranches = depth;
        bench::ExperimentRunner runner(opts);
        std::vector<double> ratios;
        for (const auto &name : benchmarks) {
            const auto &m4 = runner.run(name, backendFor(SchedConfig::M4));
            const auto &p4 = runner.run(name, backendFor(SchedConfig::P4));
            ratios.push_back(double(p4.test.cycles) /
                             double(m4.test.cycles));
        }
        series.emplace_back("depth " + std::to_string(depth),
                            std::move(ratios));
    }
    bench::printNormalizedTable(
        "Path-depth ablation: P4 cycles normalized vs M4, by profiling "
        "depth (branches per path)",
        benchmarks, series);
    return 0;
}
