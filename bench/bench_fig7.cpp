/**
 * @file
 * Regenerates Figure 7: the number of basic blocks *executed* per
 * dynamic superblock (the paper's gray bars) compared to the *size* in
 * blocks of a dynamic superblock (white extensions), dynamically
 * weighted, for the M4, M16, P4e and P4 schemes.
 *
 * Expected shape: the path-based schemes reach further into their
 * superblocks ("average" rises), often with smaller superblocks than
 * M16; for the go/li analogues M4 -> M16 barely moves the average.
 */

#include <cstdio>

#include "common.hpp"

using namespace pathsched;
using pipeline::backendFor;
using pipeline::SchedConfig;

int
main()
{
    bench::ExperimentRunner runner; // perfect cache, as in Fig. 7

    const pipeline::BackendDesc *const configs[] = {
        &backendFor(SchedConfig::M4), &backendFor(SchedConfig::M16),
        &backendFor(SchedConfig::P4e), &backendFor(SchedConfig::P4)};

    std::printf("Figure 7: blocks executed per dynamic superblock "
                "(exec) vs superblock size in blocks (size)\n\n");
    std::printf("%-8s", "bench");
    for (const auto config : configs)
        std::printf("  %14s", config->name);
    std::printf("\n%-8s", "");
    for (size_t i = 0; i < 4; ++i)
        std::printf("  %14s", "exec/size");
    std::printf("\n");

    for (const auto &name : bench::allBenchmarks()) {
        std::printf("%-8s", name.c_str());
        for (const auto config : configs) {
            const auto &r = runner.run(name, *config);
            std::printf("  %6.2f/%7.2f", r.test.sbAvgBlocksExecuted(),
                        r.test.sbAvgBlocksInSuperblock());
        }
        std::printf("\n");
    }
    return 0;
}
