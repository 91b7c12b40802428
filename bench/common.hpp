/**
 * @file
 * Shared experiment runner for the per-figure bench binaries.
 *
 * Each bench binary regenerates one table or figure of the paper.  The
 * runner executes (workload x config) pipelines once, caches results
 * within the process — every config of one workload shares one
 * training run and one reference run — and provides the normalization
 * and formatting the figures use (all figures normalize against "M4",
 * the edge-based approach at unroll factor 4).
 */

#ifndef PATHSCHED_BENCH_COMMON_HPP
#define PATHSCHED_BENCH_COMMON_HPP

#include <map>
#include <string>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "workloads/workloads.hpp"

namespace pathsched::obs {
class JsonWriter;
}

namespace pathsched::bench {

/** Caching (workload, config, cache-on/off) -> PipelineResult runner. */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(pipeline::PipelineOptions base_options =
                                  pipeline::PipelineOptions());

    /** Run (or fetch) one configuration of one workload. */
    const pipeline::PipelineResult &run(const std::string &workload,
                                        pipeline::SchedConfig config);

    /** The workload definition (builds lazily, then caches). */
    const workloads::Workload &workload(const std::string &name);

    const pipeline::PipelineOptions &options() const { return options_; }

  private:
    pipeline::PipelineOptions options_;
    std::map<std::string, workloads::Workload> workloads_;
    /** Per workload, profiled for every registered backend. */
    std::map<std::string, pipeline::PreparedWorkload> prepared_;
    std::map<std::pair<std::string, pipeline::SchedConfig>,
             pipeline::PipelineResult>
        results_;
};

/** The benchmarks the paper's figures draw, in x-axis order. */
std::vector<std::string> allBenchmarks();       ///< Table 1, Figs. 4/6/7
std::vector<std::string> nonMicroBenchmarks();  ///< Fig. 5 (wc..vortex)

/** Print a standard figure table: one row per benchmark, one column
 *  per (label, normalized value) series. */
void printNormalizedTable(
    const std::string &title,
    const std::vector<std::string> &benchmarks,
    const std::vector<std::pair<std::string, std::vector<double>>> &series);

/**
 * JSON emitter for the BENCH_*.json trajectory files the ROADMAP
 * tracks.  Each bench binary creates one, adds a row per measurement,
 * and writes "BENCH_<name>.json":
 *
 *   {"schema":"pathsched.bench.v1", "bench":"table1",
 *    "rows":[{"bench":"wc","config":"BB","metrics":{"cycles":...}}]}
 *
 * Metric keys are free-form; row() seeds the standard pipeline
 * metrics, metric() adds or overrides one.
 */
class JsonReport
{
  public:
    /** @p name is the table/figure tag, e.g. "table1". */
    explicit JsonReport(std::string name) : name_(std::move(name)) {}

    /** Append a row seeded with @p r's standard metrics (cycles,
     *  instrs, branches, codeBytes, missRate, sb stats). */
    void row(const std::string &bench, const pipeline::PipelineResult &r);

    /** Append an empty row (config may be a series label). */
    void row(const std::string &bench, const std::string &config);

    /** Add/override one metric on the most recent row. */
    void metric(const std::string &key, double value);

    /** The whole report as a JSON document. */
    std::string json() const;

    /** Write json() to "BENCH_<name>.json" (or @p path when given);
     *  false on I/O failure.  Prints the destination to stderr. */
    bool write(const std::string &path = "") const;

  private:
    struct Row
    {
        std::string bench;
        std::string config;
        std::vector<std::pair<std::string, double>> metrics;
    };
    std::string name_;
    std::vector<Row> rows_;
};

} // namespace pathsched::bench

#endif // PATHSCHED_BENCH_COMMON_HPP
