/**
 * @file
 * Latency ablation (§3.2): "we have also generated results with more
 * realistic instruction latencies, and we found that the benefit of
 * path-profile-based scheduling increased."
 *
 * Runs P4-vs-M4 under unit latencies and under the realistic table
 * (loads/multiplies 3 cycles, divides 8) and prints both ratios.
 */

#include <cstdio>

#include "common.hpp"
#include "machine/machine.hpp"

using namespace pathsched;
using pipeline::backendFor;
using pipeline::SchedConfig;

int
main()
{
    bench::ExperimentRunner unit_runner; // unit latencies

    pipeline::PipelineOptions realistic;
    realistic.machine = machine::MachineModel::realisticLatency();
    bench::ExperimentRunner real_runner(realistic);

    std::vector<double> unit_ratio, real_ratio;
    const auto benchmarks = bench::allBenchmarks();
    for (const auto &name : benchmarks) {
        {
            const auto &m4 = unit_runner.run(name,
                                             backendFor(SchedConfig::M4));
            const auto &p4 = unit_runner.run(name,
                                             backendFor(SchedConfig::P4));
            unit_ratio.push_back(double(p4.test.cycles) /
                                 double(m4.test.cycles));
        }
        {
            const auto &m4 = real_runner.run(name,
                                             backendFor(SchedConfig::M4));
            const auto &p4 = real_runner.run(name,
                                             backendFor(SchedConfig::P4));
            real_ratio.push_back(double(p4.test.cycles) /
                                 double(m4.test.cycles));
        }
    }
    bench::printNormalizedTable(
        "Latency ablation: P4 cycles normalized vs M4 "
        "(lower = bigger path-profile benefit)",
        benchmarks,
        {{"unit", unit_ratio}, {"realistic", real_ratio}});
    return 0;
}
