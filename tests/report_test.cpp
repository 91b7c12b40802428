/**
 * @file
 * Round-trip guard for the machine-readable reports.
 *
 * Runs the wc workload through every paper configuration with the full
 * observability stack attached, serializes through the same
 * pipeline::reportJson the CLI's --json flag uses, parses the document
 * back, and checks the members the BENCH trajectory and external
 * tooling rely on: every config's test.cycles, per-stage wall times,
 * and registry counters.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/stats.hpp"
#include "obs/timer.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/report.hpp"
#include "workloads/workloads.hpp"

namespace pathsched {
namespace {

using pipeline::SchedConfig;

const std::vector<SchedConfig> kAllConfigs = {
    SchedConfig::BB, SchedConfig::M4, SchedConfig::M16, SchedConfig::P4,
    SchedConfig::P4e};

class ReportRoundTrip : public ::testing::Test
{
  protected:
    // One shared run of wc x all configs (the expensive part).
    static void
    SetUpTestSuite()
    {
        registry_ = new obs::StatRegistry();
        trace_ = new obs::StageTrace();
        runs_ = new std::vector<pipeline::ReportRun>();

        obs::Observer observer;
        observer.stats = registry_;
        observer.trace = trace_;

        const auto w = workloads::makeByName("wc");
        pipeline::PipelineOptions opts;
        opts.observability.observer = &observer;
        for (const SchedConfig c : kAllConfigs)
            runs_->push_back({"wc", pipeline::runPipeline(
                                        w.program, w.train, w.test, c,
                                        opts)});
        doc_ = new std::string(pipeline::reportJson(*runs_, registry_));
    }

    static void
    TearDownTestSuite()
    {
        delete runs_;
        delete registry_;
        delete trace_;
        delete doc_;
        runs_ = nullptr;
        registry_ = nullptr;
        trace_ = nullptr;
        doc_ = nullptr;
    }

    static std::vector<pipeline::ReportRun> *runs_;
    static obs::StatRegistry *registry_;
    static obs::StageTrace *trace_;
    static std::string *doc_;
};

std::vector<pipeline::ReportRun> *ReportRoundTrip::runs_ = nullptr;
obs::StatRegistry *ReportRoundTrip::registry_ = nullptr;
obs::StageTrace *ReportRoundTrip::trace_ = nullptr;
std::string *ReportRoundTrip::doc_ = nullptr;

TEST_F(ReportRoundTrip, DocumentParsesBack)
{
    obs::JsonValue v;
    std::string err;
    ASSERT_TRUE(obs::JsonValue::parse(*doc_, v, &err)) << err;
    ASSERT_NE(v.find("schema"), nullptr);
    EXPECT_EQ(v.find("schema")->asString(), pipeline::kReportSchema);
}

TEST_F(ReportRoundTrip, EveryConfigReportsTestCycles)
{
    obs::JsonValue v;
    ASSERT_TRUE(obs::JsonValue::parse(*doc_, v));
    const obs::JsonValue *runs = v.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->items().size(), kAllConfigs.size());

    std::set<std::string> configs_seen;
    for (const auto &run : runs->items()) {
        ASSERT_NE(run.find("workload"), nullptr);
        EXPECT_EQ(run.find("workload")->asString(), "wc");
        ASSERT_NE(run.find("config"), nullptr);
        configs_seen.insert(run.find("config")->asString());

        const obs::JsonValue *cycles = run.findPath("test.cycles");
        ASSERT_NE(cycles, nullptr) << "missing test.cycles for config "
                                   << run.find("config")->asString();
        EXPECT_GT(cycles->asNumber(), 0.0);
        EXPECT_TRUE(run.find("outputMatches")->asBool());
    }
    EXPECT_EQ(configs_seen,
              (std::set<std::string>{"BB", "M4", "M16", "P4", "P4e"}));
}

TEST_F(ReportRoundTrip, EveryRunCarriesStageWallTimes)
{
    obs::JsonValue v;
    ASSERT_TRUE(obs::JsonValue::parse(*doc_, v));
    for (const auto &run : v.find("runs")->items()) {
        const obs::JsonValue *stages = run.find("stages");
        ASSERT_NE(stages, nullptr);
        ASSERT_TRUE(stages->isArray());
        std::set<std::string> names;
        for (const auto &s : stages->items()) {
            names.insert(s.find("name")->asString());
            EXPECT_GE(s.find("ms")->asNumber(), 0.0);
        }
        // Every pipeline run goes through at least these stages.
        for (const char *required :
             {"train", "compact", "regalloc", "postsched", "layout",
              "test", "verify"})
            EXPECT_TRUE(names.count(required))
                << "missing stage " << required;
        EXPECT_GE(run.find("totalMs")->asNumber(), 0.0);
    }
}

TEST_F(ReportRoundTrip, RegistryCountersMatchResults)
{
    // The registry's test.<cfg>.cycles counters must agree with the
    // PipelineResult values serialized into the report.
    for (const auto &run : *runs_) {
        const std::string key = "test." + run.result.name + ".cycles";
        EXPECT_EQ(registry_->counter(key), run.result.test.cycles)
            << key;
    }
    // Superblock configs registered formation counters.
    EXPECT_GT(registry_->counter("form.P4.superblocks"), 0u);
    EXPECT_GT(registry_->counter("form.M4.superblocks"), 0u);
    // The interpreter's run counters are published under
    // interp.<cfg>.{train,test} whenever a registry is attached.
    for (const auto &run : *runs_) {
        const std::string prefix = "interp." + run.result.name;
        EXPECT_EQ(registry_->counter(prefix + ".test.ops"),
                  run.result.test.dynInstrs)
            << prefix;
        EXPECT_EQ(registry_->counter(prefix + ".train.ops"),
                  run.result.trainSteps)
            << prefix;
    }
}

TEST_F(ReportRoundTrip, RegistryNestsIntoStatsSubtree)
{
    obs::JsonValue v;
    ASSERT_TRUE(obs::JsonValue::parse(*doc_, v));
    const obs::JsonValue *cycles =
        v.findPath("stats.test.P4.cycles");
    ASSERT_NE(cycles, nullptr);
    EXPECT_GT(cycles->asNumber(), 0.0);
    // Stage-time distributions made it in, with sane members.
    const obs::JsonValue *train =
        v.findPath("stats.time.P4.train");
    ASSERT_NE(train, nullptr);
    EXPECT_GE(train->findPath("mean")->asNumber(), 0.0);
    EXPECT_GE(train->findPath("count")->asNumber(), 1.0);
}

TEST_F(ReportRoundTrip, TraceIsWellFormedAndCoversStages)
{
    obs::JsonValue v;
    std::string err;
    ASSERT_TRUE(obs::JsonValue::parse(trace_->toChromeTrace(), v, &err))
        << err;
    const obs::JsonValue *events = v.find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_GE(events->items().size(), 5u * 7u); // >= stages x configs
    bool saw_p4_train = false;
    for (const auto &e : events->items()) {
        EXPECT_EQ(e.find("ph")->asString(), "X");
        if (e.find("name")->asString() == "time.P4.train")
            saw_p4_train = true;
    }
    EXPECT_TRUE(saw_p4_train);
}

TEST(ReportSchedStats, CompactionAndPostscheduleAreReportedApart)
{
    // gcc is the workload whose postschedule keeps blocks compaction
    // speculated loads in.  runs[].compact.sched is compaction's own
    // count, as --stats publishes it; runs[].postsched is the final
    // schedule's, whose totalCycles the report used to carry under
    // compact.sched (those values are pinned here).
    obs::StatRegistry registry;
    obs::Observer observer;
    observer.stats = &registry;
    pipeline::PipelineOptions opts;
    opts.observability.observer = &observer;
    const auto w = workloads::makeByName("gcc");
    std::vector<pipeline::ReportRun> runs;
    for (const SchedConfig c : kAllConfigs)
        runs.push_back({"gcc", pipeline::runPipeline(w.program, w.train,
                                                     w.test, c, opts)});
    obs::JsonValue v;
    ASSERT_TRUE(
        obs::JsonValue::parse(pipeline::reportJson(runs, &registry), v));

    const std::vector<std::pair<std::string, uint64_t>> kTotalCycles = {
        {"BB", 8781}, {"M4", 8663}, {"M16", 8751}, {"P4", 11225},
        {"P4e", 8717}};
    const obs::JsonValue *items = v.find("runs");
    ASSERT_NE(items, nullptr);
    ASSERT_EQ(items->items().size(), kTotalCycles.size());
    uint64_t speculated = 0;
    for (size_t i = 0; i < kTotalCycles.size(); ++i) {
        const obs::JsonValue &run = items->items()[i];
        const std::string &cfg = kTotalCycles[i].first;
        ASSERT_EQ(run.find("config")->asString(), cfg);
        const obs::JsonValue *loads =
            run.findPath("compact.sched.loadsSpeculated");
        const obs::JsonValue *stat =
            v.findPath("stats.compact." + cfg + ".loadsSpeculated");
        ASSERT_NE(loads, nullptr) << cfg;
        ASSERT_NE(stat, nullptr) << cfg;
        EXPECT_EQ(loads->asNumber(), stat->asNumber()) << cfg;
        speculated += uint64_t(loads->asNumber());

        const obs::JsonValue *total = run.findPath("postsched.totalCycles");
        ASSERT_NE(total, nullptr) << cfg;
        EXPECT_EQ(uint64_t(total->asNumber()), kTotalCycles[i].second)
            << cfg;
        EXPECT_EQ(run.findPath("postsched.blocksKept")->asNumber(),
                  v.findPath("stats.sched." + cfg + ".postschedKept")
                      ->asNumber())
            << cfg;
    }
    // M4 4, M16 8, P4 262, P4e 1: the postschedule's count reads 0.
    EXPECT_EQ(speculated, 275u);
}

} // namespace
} // namespace pathsched
