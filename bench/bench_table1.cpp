/**
 * @file
 * Regenerates Table 1: per-benchmark binary size and dynamic branch /
 * cycle / instruction counts of the basic-block-scheduled build on the
 * experimental machine model (§3.3).  Also writes BENCH_table1.json,
 * the machine-readable row the ROADMAP's perf trajectory tracks.
 */

#include <cstdio>

#include "common.hpp"
#include "support/strutil.hpp"

using namespace pathsched;
using pipeline::backendFor;
using pipeline::SchedConfig;

int
main()
{
    bench::ExperimentRunner runner;
    bench::JsonReport report("table1");

    std::printf("Table 1: benchmarks, data sets, and statistics\n");
    std::printf("(basic-block scheduled, perfect I-cache; counts are "
                "raw, the paper reports millions)\n\n");
    std::printf("%-8s %-10s %10s %14s %14s %14s\n", "bench", "group",
                "size(KB)", "branches", "cycles", "instrs");

    for (const auto &name : bench::allBenchmarks()) {
        const auto &w = runner.workload(name);
        const auto &r = runner.run(name, backendFor(SchedConfig::BB));
        std::printf("%-8s %-10s %10.1f %14s %14s %14s\n", name.c_str(),
                    w.group.c_str(), double(r.codeBytes) / 1024.0,
                    withCommas(r.test.dynBranches).c_str(),
                    withCommas(r.test.cycles).c_str(),
                    withCommas(r.test.dynInstrs).c_str());
        report.row(name, r);
    }
    if (!report.write())
        std::fprintf(stderr, "warning: could not write BENCH_table1.json\n");
    return 0;
}
