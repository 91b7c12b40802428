/**
 * @file
 * Integration tests: the full pipeline over every workload and
 * configuration, plus determinism and option handling.
 */

#include <gtest/gtest.h>

#include "gen/generator.hpp"
#include "ir/printer.hpp"
#include "pipeline/backend.hpp"
#include "pipeline/pipeline.hpp"
#include "profile/serialize.hpp"
#include "profile/validate.hpp"
#include "support/faultinject.hpp"
#include "support/strutil.hpp"
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

/** The stat registry minus its wall-time ("time.") and thread/cache
 *  ("executor.") subtrees, one "path kind counter gauge count" line per
 *  stat. */
std::string
deterministicStats(const obs::StatRegistry &reg)
{
    std::string out;
    for (const auto &[path, st] : reg.all()) {
        if (path.starts_with("time.") || path.starts_with("executor."))
            continue;
        out += strfmt("%s %d %llu %.17g %llu\n", path.c_str(),
                      int(st.kind), (unsigned long long)st.counter,
                      st.gauge, (unsigned long long)st.dist.count());
    }
    return out;
}

void
expectSameRun(const PipelineResult &a, const PipelineResult &b)
{
    SCOPED_TRACE(a.name);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.status.toString(), b.status.toString());
    EXPECT_EQ(a.test.cycles, b.test.cycles);
    EXPECT_EQ(a.test.icacheAccesses, b.test.icacheAccesses);
    EXPECT_EQ(a.test.icacheMisses, b.test.icacheMisses);
    EXPECT_EQ(a.test.stallCycles, b.test.stallCycles);
    EXPECT_EQ(a.codeBytes, b.codeBytes);
    EXPECT_EQ(a.test.output, b.test.output);
    EXPECT_EQ(a.numPaths, b.numPaths);
    EXPECT_EQ(a.trainSteps, b.trainSteps);
    ASSERT_NE(a.transformed, nullptr);
    ASSERT_NE(b.transformed, nullptr);
    EXPECT_EQ(ir::toString(*a.transformed), ir::toString(*b.transformed));
    ASSERT_EQ(a.degraded.size(), b.degraded.size());
    for (size_t i = 0; i < a.degraded.size(); ++i) {
        EXPECT_EQ(a.degraded[i].proc, b.degraded[i].proc);
        EXPECT_EQ(a.degraded[i].stage, b.degraded[i].stage);
        EXPECT_EQ(a.degraded[i].kind, b.degraded[i].kind);
        EXPECT_EQ(a.degraded[i].message, b.degraded[i].message);
    }
}

/**
 * Run every registered backend on one program twice — through one
 * shared PreparedWorkload, and through separate runPipeline calls —
 * and require identical results and non-timing stats.  Each mode arms
 * its own injector from @p fault_spec (empty: no injection), so both
 * start from the same fault state.  Returns the shared runs.
 */
std::vector<PipelineResult>
expectSharedMatchesSeparate(const ir::Program &program,
                            const interp::ProgramInput &train,
                            const interp::ProgramInput &test,
                            PipelineOptions opts,
                            const std::string &fault_spec = "")
{
    opts.keepTransformed = true;
    opts.useICache = true;
    opts.observability.interpStats = true;
    FaultInjector shared_faults, separate_faults;
    if (!fault_spec.empty()) {
        std::string err;
        EXPECT_TRUE(shared_faults.parse(fault_spec, err)) << err;
        EXPECT_TRUE(separate_faults.parse(fault_spec, err)) << err;
    }

    obs::StatRegistry shared_stats;
    obs::Observer shared_obs;
    shared_obs.stats = &shared_stats;
    PipelineOptions so = opts;
    so.observability.observer = &shared_obs;
    if (!fault_spec.empty())
        so.robustness.faults = &shared_faults;
    const PreparedWorkload prepared = prepareWorkload(
        program, train, test, needsOf(allBackends()), so);
    std::vector<PipelineResult> shared;
    for (const BackendDesc *be : allBackends())
        shared.push_back(runBackend(prepared, *be, so));

    obs::StatRegistry separate_stats;
    obs::Observer separate_obs;
    separate_obs.stats = &separate_stats;
    PipelineOptions po = opts;
    po.observability.observer = &separate_obs;
    if (!fault_spec.empty())
        po.robustness.faults = &separate_faults;
    for (size_t i = 0; i < allBackends().size(); ++i)
        expectSameRun(shared[i], runPipeline(program, train, test,
                                             allBackends()[i]->config,
                                             po));
    EXPECT_EQ(deterministicStats(shared_stats),
              deterministicStats(separate_stats));
    return shared;
}

TEST(Pipeline, SharedPrepareMatchesPerBackendRuns)
{
    struct Program
    {
        std::string name;
        ir::Program program;
        interp::ProgramInput train, test;
    };
    std::vector<Program> programs;
    for (const char *name : {"wc", "li"}) {
        workloads::Workload w = workloads::makeByName(name);
        programs.push_back({name, std::move(w.program), std::move(w.train),
                            std::move(w.test)});
    }
    for (uint64_t seed : {11, 29}) {
        gen::GenSpec spec;
        spec.seed = seed;
        gen::Workload g = gen::generate(spec);
        programs.push_back({g.name, std::move(g.program),
                            std::move(g.train), std::move(g.test)});
    }
    for (const Program &p : programs) {
        for (unsigned threads : {1u, 4u}) {
            SCOPED_TRACE(p.name + strfmt(" threads=%u", threads));
            PipelineOptions opts;
            opts.executor.threads = threads;
            for (const PipelineResult &r : expectSharedMatchesSeparate(
                     p.program, p.train, p.test, opts)) {
                EXPECT_TRUE(r.status.ok()) << r.status.toString();
                EXPECT_TRUE(r.outputMatches);
            }
        }
    }
}

TEST(Pipeline, SharedPrepareHonoursExternalProfilesAndFaults)
{
    const auto w = workloads::makeByName("wc");
    PipelineOptions opts;

    // An admitted path profile collected on the *test* input: P4 and
    // P4e read it, so the prepare trains no paths, while M4 and M16
    // still read the prepared training edges.
    profile::PathProfiler pp(w.program, opts.pathParams);
    {
        interp::Interpreter interp(w.program);
        interp.addListener(&pp);
        interp.run(w.test);
    }
    profile::AdmittedPathProfile paths(w.program, opts.pathParams);
    ASSERT_TRUE(profile::admitPathProfile(profile::toText(pp), w.program,
                                          opts.pathParams,
                                          profile::AdmissionMode::Repair,
                                          paths)
                    .ok());
    PipelineOptions ext = opts;
    ext.profileInput.paths = &paths;
    const PreparedWorkload prep = prepareWorkload(
        w.program, w.train, w.test, needsOf(allBackends()), ext);
    EXPECT_FALSE(prep.paths.has_value());
    EXPECT_TRUE(prep.edges.has_value());
    const auto runs = expectSharedMatchesSeparate(w.program, w.train,
                                                  w.test, ext);
    const PipelineResult trained = runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);
    EXPECT_EQ(runs[size_t(SchedConfig::P4)].numPaths, pp.numPaths());
    EXPECT_NE(runs[size_t(SchedConfig::P4)].numPaths, trained.numPaths);

    // An armed fault degrades the same procedure in every backend,
    // shared prepare or not.
    for (const PipelineResult &r :
         expectSharedMatchesSeparate(w.program, w.train, w.test, opts,
                                     "stage=regalloc,proc=0")) {
        ASSERT_EQ(r.degraded.size(), 1u) << r.name;
        EXPECT_EQ(r.degraded[0].proc, 0u);
        EXPECT_EQ(r.degraded[0].stage, "regalloc");
    }
}

TEST(Pipeline, SharedPrepareCountsTrainingAndReferenceOnce)
{
    const auto w = workloads::makeByName("wc");
    const PipelineOptions opts;
    const PreparedWorkload prep = prepareWorkload(
        w.program, w.train, w.test, needsOf(allBackends()), opts);
    ASSERT_TRUE(prep.status.ok());
    int claimed = 0;
    for (const BackendDesc *be : allBackends()) {
        const PipelineResult r = runBackend(prep, *be, opts);
        // Same rows in the same order for every backend.
        ASSERT_GE(r.stages.size(), 2u);
        EXPECT_EQ(r.stages.front().name, "train");
        EXPECT_EQ(r.stages.back().name, "verify");
        if (r.stages.front().ms > 0) {
            ++claimed;
            EXPECT_EQ(r.stages.front().ms, prep.trainCost.ms);
            EXPECT_EQ(r.stages.back().ms, prep.referenceCost.ms);
        } else {
            EXPECT_EQ(r.stages.back().ms, 0.0);
        }
        // A backend that reads no paths reports none, even though the
        // shared prepare built the path profile.
        EXPECT_EQ(r.numPaths > 0, be->needsPathProfile()) << be->name;
    }
    EXPECT_EQ(claimed, 1);
}

} // namespace
} // namespace pathsched::pipeline
