/**
 * @file
 * Scheduler-priority ablation: the compactor picks ready instructions
 * by critical-path height (standard list scheduling).  This bench
 * swaps in a naive source-order priority to quantify how much of the
 * end-to-end win depends on that design choice, for both the P4 and
 * M4 formations.
 */

#include <cstdio>

#include "common.hpp"
#include "sched/scheduler.hpp"

using namespace pathsched;
using pipeline::backendFor;
using pipeline::SchedConfig;

int
main()
{
    bench::ExperimentRunner height_runner;

    pipeline::PipelineOptions naive;
    naive.schedPriority = sched::SchedPriority::SourceOrder;
    bench::ExperimentRunner naive_runner(naive);

    std::vector<double> p4_cp, p4_src, m4_src;
    const auto benchmarks = bench::allBenchmarks();
    for (const auto &name : benchmarks) {
        const auto &m4 = height_runner.run(name, backendFor(SchedConfig::M4));
        const auto &p4 = height_runner.run(name, backendFor(SchedConfig::P4));
        const auto &m4n = naive_runner.run(name, backendFor(SchedConfig::M4));
        const auto &p4n = naive_runner.run(name, backendFor(SchedConfig::P4));
        p4_cp.push_back(double(p4.test.cycles) / double(m4.test.cycles));
        p4_src.push_back(double(p4n.test.cycles) /
                         double(m4.test.cycles));
        m4_src.push_back(double(m4n.test.cycles) /
                         double(m4.test.cycles));
    }
    bench::printNormalizedTable(
        "Scheduler-priority ablation: cycles normalized vs M4 "
        "(critical-path)",
        benchmarks,
        {{"P4/height", p4_cp},
         {"P4/source", p4_src},
         {"M4/source", m4_src}});
    return 0;
}
