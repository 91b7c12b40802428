#include "common.hpp"

#include <cstdio>
#include <fstream>

#include "obs/json.hpp"
#include "pipeline/backend.hpp"
#include "support/logging.hpp"
#include "support/statistics.hpp"
#include "support/strutil.hpp"

namespace pathsched::bench {

ExperimentRunner::ExperimentRunner(pipeline::PipelineOptions base_options)
    : options_(base_options)
{}

const workloads::Workload &
ExperimentRunner::workload(const std::string &name)
{
    auto it = workloads_.find(name);
    if (it == workloads_.end())
        it = workloads_.emplace(name, workloads::makeByName(name)).first;
    return it->second;
}

const pipeline::PipelineResult &
ExperimentRunner::run(const std::string &name,
                      const pipeline::BackendDesc &backend)
{
    const auto key = std::make_pair(name, &backend);
    auto it = results_.find(key);
    if (it == results_.end()) {
        auto prep = prepared_.find(name);
        if (prep == prepared_.end()) {
            const auto &w = workload(name);
            prep = prepared_
                       .emplace(name, pipeline::prepareWorkload(
                                          w.program, w.train, w.test,
                                          pipeline::needsOf(
                                              pipeline::allBackends()),
                                          options_))
                       .first;
        }
        it = results_
                 .emplace(key, pipeline::runBackend(prep->second, backend,
                                                    options_))
                 .first;
    }
    return it->second;
}

std::vector<std::string>
allBenchmarks()
{
    return workloads::benchmarkNames();
}

std::vector<std::string>
nonMicroBenchmarks()
{
    // Fig. 5's x-axis starts at wc: the three microbenchmarks are
    // excluded ("they are so small that they always fit in the cache").
    return {"wc", "com", "eqn", "esp", "gcc", "go", "ijpeg",
            "li", "m88k", "perl", "vortex"};
}

void
printNormalizedTable(
    const std::string &title,
    const std::vector<std::string> &benchmarks,
    const std::vector<std::pair<std::string, std::vector<double>>> &series)
{
    std::printf("\n%s\n", title.c_str());
    std::printf("%s\n", std::string(title.size(), '-').c_str());
    std::printf("%-8s", "bench");
    for (const auto &[label, values] : series) {
        (void)values;
        std::printf("  %10s", label.c_str());
    }
    std::printf("\n");
    for (size_t i = 0; i < benchmarks.size(); ++i) {
        std::printf("%-8s", benchmarks[i].c_str());
        for (const auto &[label, values] : series)
            std::printf("  %10.3f", values[i]);
        std::printf("\n");
    }
    std::printf("%-8s", "geomean");
    for (const auto &[label, values] : series) {
        (void)label;
        std::printf("  %10.3f", geomean(values));
    }
    std::printf("\n");
}

void
JsonReport::row(const std::string &bench,
                const pipeline::PipelineResult &r)
{
    row(bench, r.name);
    metric("cycles", double(r.test.cycles));
    metric("instrs", double(r.test.dynInstrs));
    metric("branches", double(r.test.dynBranches));
    metric("codeBytes", double(r.codeBytes));
    if (r.test.icacheAccesses != 0)
        metric("missRate", double(r.test.icacheMisses) /
                               double(r.test.icacheAccesses));
    metric("sbAvgBlocksExecuted", r.test.sbAvgBlocksExecuted());
    metric("sbAvgBlocksInSuperblock", r.test.sbAvgBlocksInSuperblock());
}

void
JsonReport::row(const std::string &bench, const std::string &config)
{
    rows_.push_back({bench, config, {}});
}

void
JsonReport::metric(const std::string &key, double value)
{
    ps_assert_msg(!rows_.empty(), "JsonReport::metric before any row");
    for (auto &[k, v] : rows_.back().metrics) {
        if (k == key) {
            v = value;
            return;
        }
    }
    rows_.back().metrics.emplace_back(key, value);
}

std::string
JsonReport::json() const
{
    obs::JsonWriter w;
    w.beginObject();
    w.member("schema", "pathsched.bench.v1");
    w.member("bench", name_);
    w.key("rows");
    w.beginArray();
    for (const Row &r : rows_) {
        w.beginObject();
        w.member("bench", r.bench);
        w.member("config", r.config);
        w.key("metrics");
        w.beginObject();
        for (const auto &[k, v] : r.metrics)
            w.member(k, v);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

bool
JsonReport::write(const std::string &path) const
{
    const std::string file =
        path.empty() ? "BENCH_" + name_ + ".json" : path;
    std::ofstream out(file);
    if (!out)
        return false;
    out << json() << '\n';
    if (!out)
        return false;
    std::fprintf(stderr, "wrote %zu rows to %s\n", rows_.size(),
                 file.c_str());
    return true;
}

} // namespace pathsched::bench
