/**
 * @file
 * Block-layout ablation: assign each procedure's superblocks
 * contiguous low addresses ("hot first", the intra-procedural half of
 * Pettis-Hansen chaining) and measure the I-cache effect on the
 * large-footprint benchmarks under every configuration.
 */

#include <cstdio>

#include "common.hpp"
#include "layout/code_layout.hpp"

using namespace pathsched;
using pipeline::backendFor;
using pipeline::SchedConfig;

int
main()
{
    pipeline::PipelineOptions by_id;
    by_id.useICache = true;
    bench::ExperimentRunner id_runner(by_id);

    pipeline::PipelineOptions hot;
    hot.useICache = true;
    hot.blockOrder = layout::BlockOrder::HotFirst;
    bench::ExperimentRunner hot_runner(hot);

    std::printf("Block-layout ablation (32KB I-cache): miss rates by "
                "block order\n\n");
    std::printf("%-8s %-5s %12s %12s %14s\n", "bench", "cfg",
                "id-order", "hot-first", "cycle ratio");
    for (const auto &name : {std::string("gcc"), std::string("go")}) {
        for (const pipeline::BackendDesc *config :
             {&backendFor(SchedConfig::M4), &backendFor(SchedConfig::P4),
              &backendFor(SchedConfig::P4e)}) {
            const auto &a = id_runner.run(name, *config);
            const auto &b = hot_runner.run(name, *config);
            auto rate = [](const pipeline::PipelineResult &r) {
                return r.test.icacheAccesses
                           ? 100.0 * double(r.test.icacheMisses) /
                                 double(r.test.icacheAccesses)
                           : 0.0;
            };
            std::printf("%-8s %-5s %11.2f%% %11.2f%% %14.3f\n",
                        name.c_str(), config->name,
                        rate(a), rate(b),
                        double(b.test.cycles) / double(a.test.cycles));
        }
    }
    return 0;
}
