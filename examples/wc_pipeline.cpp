/**
 * @file
 * End-to-end pipeline walkthrough on the wc workload: every paper
 * configuration, with and without the instruction cache, plus the
 * formation and compaction statistics the passes report.
 */

#include <cstdio>

#include "pipeline/backend.hpp"
#include "pipeline/pipeline.hpp"
#include "support/strutil.hpp"
#include "workloads/workloads.hpp"

using namespace pathsched;

int
main()
{
    const workloads::Workload w = workloads::makeWc();
    std::printf("wc end-to-end: %s\n", w.description.c_str());
    std::printf("train input: %zu words, test input: %zu words\n\n",
                w.train.memImage.size(), w.test.memImage.size());

    std::printf("%-5s %12s %8s %9s %10s %8s %9s\n", "cfg", "cycles",
                "vs M4", "code(B)", "sb-formed", "enlarged",
                "exec/size");

    pipeline::PipelineOptions opts;
    // One training run (collecting every profile kind some backend
    // reads) and one reference run, shared by every backend below.
    const pipeline::PreparedWorkload prepared = pipeline::prepareWorkload(
        w.program, w.train, w.test,
        pipeline::needsOf(pipeline::allBackends()), opts);
    uint64_t m4_cycles = 0;
    // Every registered backend, in registry order — a new backend shows
    // up in this table with no edit here.
    for (const pipeline::BackendDesc *be : pipeline::allBackends()) {
        const auto r = pipeline::runBackend(prepared, *be, opts);
        if (r.name == "M4")
            m4_cycles = r.test.cycles;
        std::printf("%-5s %12llu %8s %9llu %10llu %8llu %5.1f/%.1f\n",
                    r.name.c_str(), (unsigned long long)r.test.cycles,
                    m4_cycles ? strfmt("%.3f", double(r.test.cycles) /
                                                   double(m4_cycles))
                                    .c_str()
                              : "-",
                    (unsigned long long)r.codeBytes,
                    (unsigned long long)r.form.superblocksFormed,
                    (unsigned long long)r.form.enlargedSuperblocks,
                    r.test.sbAvgBlocksExecuted(),
                    r.test.sbAvgBlocksInSuperblock());
    }

    // The I-cache only affects the measured test run, so these runs
    // share the same prepare.
    std::printf("\nwith the 32KB direct-mapped I-cache attached:\n");
    opts.useICache = true;
    for (const auto config :
         {pipeline::SchedConfig::M4, pipeline::SchedConfig::P4,
          pipeline::SchedConfig::P4e}) {
        const auto r = pipeline::runBackend(
            prepared, pipeline::backendFor(config), opts);
        std::printf("  %-4s cycles=%llu  miss rate=%.3f%%  "
                    "stalls=%llu\n",
                    r.name.c_str(), (unsigned long long)r.test.cycles,
                    r.test.icacheAccesses
                        ? 100.0 * double(r.test.icacheMisses) /
                              double(r.test.icacheAccesses)
                        : 0.0,
                    (unsigned long long)r.test.stallCycles);
    }

    std::printf("\nwc output on the test text (lines, words, chars): ");
    for (const int64_t v : prepared.reference.output)
        std::printf("%lld ", (long long)v);
    std::printf("\n");
    return 0;
}
