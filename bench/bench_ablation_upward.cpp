/**
 * @file
 * Upward-growth ablation (footnote 2): "We have not included support
 * for upward trace growth in our current implementation ... we
 * predict that this additional capability will not noticeably improve
 * the performance of our scheduled code."
 *
 * We did implement it (both profile modes), so the prediction is
 * testable: this bench compares P4 and M4 with and without upward
 * trace growth.
 */

#include <cstdio>

#include "common.hpp"

using namespace pathsched;
using pipeline::backendFor;
using pipeline::SchedConfig;

int
main()
{
    bench::ExperimentRunner down_runner;

    pipeline::PipelineOptions up;
    up.growUpward = true;
    bench::ExperimentRunner up_runner(up);

    std::vector<double> p4_down, p4_up, m4_up;
    const auto benchmarks = bench::allBenchmarks();
    for (const auto &name : benchmarks) {
        const auto &m4 = down_runner.run(name, backendFor(SchedConfig::M4));
        const auto &p4 = down_runner.run(name, backendFor(SchedConfig::P4));
        const auto &m4u = up_runner.run(name, backendFor(SchedConfig::M4));
        const auto &p4u = up_runner.run(name, backendFor(SchedConfig::P4));
        p4_down.push_back(double(p4.test.cycles) /
                          double(m4.test.cycles));
        p4_up.push_back(double(p4u.test.cycles) /
                        double(m4.test.cycles));
        m4_up.push_back(double(m4u.test.cycles) /
                        double(m4.test.cycles));
    }
    bench::printNormalizedTable(
        "Upward-growth ablation: cycles normalized vs plain M4",
        benchmarks,
        {{"P4", p4_down}, {"P4+up", p4_up}, {"M4+up", m4_up}});
    return 0;
}
