/**
 * @file
 * Integration tests: the full pipeline over every workload and
 * configuration, plus determinism and option handling.
 */

#include <gtest/gtest.h>

#include "pipeline/backend.hpp"
#include "pipeline/pipeline.hpp"
#include "workloads/workloads.hpp"

namespace pathsched::pipeline {
namespace {

struct PipelineCase
{
    std::string workload;
    SchedConfig config;
};

std::string
caseName(const ::testing::TestParamInfo<PipelineCase> &info)
{
    return info.param.workload + "_" + configName(info.param.config);
}

class PipelineAllConfigs : public ::testing::TestWithParam<PipelineCase>
{};

TEST_P(PipelineAllConfigs, TransformedProgramBehavesIdentically)
{
    const auto &c = GetParam();
    const auto w = workloads::makeByName(c.workload);
    PipelineOptions opts;
    const PipelineResult r =
        runPipeline(w.program, w.train, w.test, c.config, opts);
    EXPECT_TRUE(r.outputMatches);
    EXPECT_GT(r.test.cycles, 0u);
    EXPECT_GT(r.test.dynInstrs, 0u);
    EXPECT_EQ(r.name, configName(c.config));
    if (backendFor(c.config).formsSuperblocks()) {
        EXPECT_GT(r.form.superblocksFormed, 0u) << c.workload;
        EXPECT_GT(r.test.sbEntries, 0u) << c.workload;
        // Executed blocks never exceed the superblock's size.
        EXPECT_LE(r.test.sbBlocksExecuted, r.test.sbBlocksInSb);
    }
}

std::vector<PipelineCase>
allCases()
{
    std::vector<PipelineCase> cases;
    for (const auto &name : workloads::benchmarkNames()) {
        for (const BackendDesc *be : allBackends())
            cases.push_back({name, be->config});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, PipelineAllConfigs,
                         ::testing::ValuesIn(allCases()), caseName);

TEST(Pipeline, SchedulingBeatsBasicBlocks)
{
    // Superblock scheduling should never lose to per-block scheduling
    // under a perfect cache (same compactor, strictly more scope).
    for (const auto &name : workloads::benchmarkNames()) {
        const auto w = workloads::makeByName(name);
        PipelineOptions opts;
        const auto bb =
            runPipeline(w.program, w.train, w.test, SchedConfig::BB, opts);
        const auto p4 =
            runPipeline(w.program, w.train, w.test, SchedConfig::P4, opts);
        EXPECT_LT(p4.test.cycles, bb.test.cycles) << name;
    }
}

TEST(Pipeline, DeterministicAcrossRuns)
{
    const auto w = workloads::makeByName("corr");
    PipelineOptions opts;
    const auto a =
        runPipeline(w.program, w.train, w.test, SchedConfig::P4, opts);
    const auto b2 =
        runPipeline(w.program, w.train, w.test, SchedConfig::P4, opts);
    EXPECT_EQ(a.test.cycles, b2.test.cycles);
    EXPECT_EQ(a.codeBytes, b2.codeBytes);
    EXPECT_EQ(a.numPaths, b2.numPaths);
    EXPECT_EQ(a.test.output, b2.test.output);
}

TEST(Pipeline, SourceProgramUntouched)
{
    const auto w = workloads::makeByName("alt");
    const size_t before = w.program.instrCount();
    PipelineOptions opts;
    runPipeline(w.program, w.train, w.test, SchedConfig::P4, opts);
    EXPECT_EQ(w.program.instrCount(), before);
}

TEST(Pipeline, CacheRunChargesStalls)
{
    const auto w = workloads::makeByName("gcc");
    PipelineOptions opts;
    opts.useICache = true;
    const auto r =
        runPipeline(w.program, w.train, w.test, SchedConfig::P4, opts);
    EXPECT_GT(r.test.icacheAccesses, 0u);
    EXPECT_GT(r.test.icacheMisses, 0u);
    EXPECT_EQ(r.test.stallCycles,
              r.test.icacheMisses * opts.cacheParams.missPenaltyCycles);
    EXPECT_GT(r.test.cycles, r.test.stallCycles);
}

TEST(Pipeline, PerfectCacheHasNoStalls)
{
    const auto w = workloads::makeByName("alt");
    PipelineOptions opts;
    const auto r =
        runPipeline(w.program, w.train, w.test, SchedConfig::M4, opts);
    EXPECT_EQ(r.test.stallCycles, 0u);
    EXPECT_EQ(r.test.icacheAccesses, 0u);
}

TEST(Pipeline, EnlargementToggleShrinksCode)
{
    const auto w = workloads::makeByName("alt");
    PipelineOptions with;
    PipelineOptions without;
    without.enlarge = false;
    const auto a =
        runPipeline(w.program, w.train, w.test, SchedConfig::P4, with);
    const auto b2 =
        runPipeline(w.program, w.train, w.test, SchedConfig::P4, without);
    EXPECT_LT(b2.codeBytes, a.codeBytes);
    EXPECT_TRUE(b2.outputMatches);
}

TEST(Pipeline, PathDepthOneDegradesAlt)
{
    // With a 1-branch window the profiler cannot see the TTTF pattern,
    // so path formation loses most of its edge over M4 on alt.
    const auto w = workloads::makeByName("alt");
    PipelineOptions deep;
    PipelineOptions shallow;
    shallow.pathParams.maxBranches = 1;
    const auto d =
        runPipeline(w.program, w.train, w.test, SchedConfig::P4, deep);
    const auto s =
        runPipeline(w.program, w.train, w.test, SchedConfig::P4, shallow);
    EXPECT_LT(d.test.cycles, s.test.cycles);
}

TEST(Pipeline, FormConfigMapping)
{
    PipelineOptions opts;
    opts.completionThreshold = 0.75;
    opts.maxInstrs = 99;
    opts.enlarge = false;
    opts.growUpward = true;
    const auto fc = [&](const char *name) {
        const BackendDesc *be = findBackend(name);
        EXPECT_NE(be, nullptr) << name;
        return formConfigFor(*be, opts);
    };
    // The paper's presets (§4): mode, unroll factor, loop heads and
    // the non-loop stop rule.
    for (const char *n : {"M4", "M16"})
        EXPECT_EQ(fc(n).mode, form::ProfileMode::Edge) << n;
    EXPECT_EQ(fc("M4").unrollFactor, 4u);
    EXPECT_EQ(fc("M16").unrollFactor, 16u);
    for (const char *n : {"P4", "P4e"}) {
        EXPECT_EQ(fc(n).mode, form::ProfileMode::Path) << n;
        EXPECT_EQ(fc(n).maxLoopHeads, 4u) << n;
    }
    for (const char *n : {"BB", "M4", "M16", "P4"})
        EXPECT_FALSE(fc(n).nonLoopStopsAtAnyHead) << n;
    EXPECT_TRUE(fc("P4e").nonLoopStopsAtAnyHead);
    // Every preset takes the formation knobs from the options.
    for (const BackendDesc *be : allBackends()) {
        const form::FormConfig c = formConfigFor(*be, opts);
        EXPECT_EQ(c.completionThreshold, 0.75) << be->name;
        EXPECT_EQ(c.maxInstrs, 99u) << be->name;
        EXPECT_FALSE(c.enlarge) << be->name;
        EXPECT_TRUE(c.growUpward) << be->name;
    }
}

TEST(Pipeline, ReportsFormAndPathStatistics)
{
    const auto w = workloads::makeByName("wc");
    PipelineOptions opts;
    const auto r =
        runPipeline(w.program, w.train, w.test, SchedConfig::P4, opts);
    EXPECT_GT(r.numPaths, 0u);
    EXPECT_GT(r.trainSteps, 0u);
    EXPECT_GT(r.form.tracesSelected, 0u);
    EXPECT_GT(r.codeBytes, 0u);
}

} // namespace
} // namespace pathsched::pipeline
