/**
 * @file
 * Forward-vs-general path ablation (§2.2): prior path profiling
 * (Ball-Larus, Bala) collected *forward* paths, chopped at back edges.
 * The paper argues general paths matter because they "remain exact for
 * traces that cover more than a single iteration of a loop" and
 * "capture branch correlation that spans multiple loop iterations".
 *
 * This bench runs P4 twice — once on general paths, once with the
 * profiler restricted to forward paths — and compares against M4.
 * On the periodic/phased loops, forward paths lose exactly the
 * cross-back-edge information that drives path-based unrolling.
 */

#include <cstdio>

#include "common.hpp"

using namespace pathsched;
using pipeline::backendFor;
using pipeline::SchedConfig;

int
main()
{
    bench::ExperimentRunner general_runner;

    pipeline::PipelineOptions fwd;
    fwd.pathParams.forwardPathsOnly = true;
    bench::ExperimentRunner forward_runner(fwd);

    std::vector<double> general, forward;
    const auto benchmarks = bench::allBenchmarks();
    for (const auto &name : benchmarks) {
        {
            const auto &m4 =
                general_runner.run(name, backendFor(SchedConfig::M4));
            const auto &p4 =
                general_runner.run(name, backendFor(SchedConfig::P4));
            general.push_back(double(p4.test.cycles) /
                              double(m4.test.cycles));
        }
        {
            const auto &m4 =
                forward_runner.run(name, backendFor(SchedConfig::M4));
            const auto &p4 =
                forward_runner.run(name, backendFor(SchedConfig::P4));
            forward.push_back(double(p4.test.cycles) /
                              double(m4.test.cycles));
        }
    }
    bench::printNormalizedTable(
        "Forward-path ablation: P4 cycles normalized vs M4, by path "
        "kind",
        benchmarks, {{"general", general}, {"forward", forward}});
    return 0;
}
