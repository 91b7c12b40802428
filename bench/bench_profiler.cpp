/**
 * @file
 * Benchmarks the profilers themselves (§3.1): the general path
 * profiler's lazy successor-memoisation scheme should cost O(1)
 * amortized per executed edge when the number of distinct paths is
 * much smaller than the number of dynamic edges — i.e. close to the
 * edge profiler's cost and *independent of run length*.
 *
 * Uses google-benchmark.  Every path_profile case also reports
 * distinct_paths and trie_bytes: wc, com and perl are the cases where
 * paths << steps and the bound holds; gcc and go are the ones where it
 * does not (gcc: 1.33 M paths from 392 k profiler steps), so their
 * cost is the trie's construction and memory, not the steady state.
 * There, trie_bytes is mostly 24-byte nodes in 2^15-node segments,
 * and construction is the memo misses' walks: each descends the
 * levels of the new window that exist, then appends the rest as a
 * chain of new nodes.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "interp/interpreter.hpp"
#include "profile/edge_profile.hpp"
#include "profile/path_profile.hpp"
#include "workloads/workloads.hpp"

using namespace pathsched;

namespace {

/** Scale a workload's run length through main-arg / budget inputs. */
interp::ProgramInput
scaledInput(const workloads::Workload &w, int64_t scale_divisor)
{
    interp::ProgramInput in = w.test;
    if (!in.mainArgs.empty()) {
        in.mainArgs[0] /= scale_divisor;
    } else if (!in.memImage.empty()) {
        in.memImage[0] /= scale_divisor; // word 0 is the size knob
    }
    return in;
}

void
BM_InterpOnly(benchmark::State &state, const char *name)
{
    const auto w = workloads::makeByName(name);
    const auto in = scaledInput(w, state.range(0));
    for (auto _ : state) {
        interp::Interpreter interp(w.program, {});
        auto r = interp.run(in);
        state.SetItemsProcessed(state.items_processed() +
                                int64_t(r.dynInstrs));
        benchmark::DoNotOptimize(r.cycles);
    }
}

void
BM_EdgeProfile(benchmark::State &state, const char *name)
{
    const auto w = workloads::makeByName(name);
    const auto in = scaledInput(w, state.range(0));
    for (auto _ : state) {
        profile::EdgeProfiler ep(w.program);
        interp::Interpreter interp(w.program, {});
        interp.addListener(&ep);
        auto r = interp.run(in);
        state.SetItemsProcessed(state.items_processed() +
                                int64_t(r.dynInstrs));
        benchmark::DoNotOptimize(r.cycles);
    }
}

void
BM_PathProfile(benchmark::State &state, const char *name)
{
    const auto w = workloads::makeByName(name);
    const auto in = scaledInput(w, state.range(0));
    size_t paths = 0;
    size_t trie_bytes = 0;
    for (auto _ : state) {
        profile::PathProfiler pp(w.program, {});
        interp::Interpreter interp(w.program, {});
        interp.addListener(&pp);
        auto r = interp.run(in);
        pp.finalize();
        paths = pp.numPaths();
        trie_bytes = pp.trieBytes();
        state.SetItemsProcessed(state.items_processed() +
                                int64_t(r.dynInstrs));
        benchmark::DoNotOptimize(r.cycles);
    }
    state.counters["distinct_paths"] =
        benchmark::Counter(double(paths));
    state.counters["trie_bytes"] = benchmark::Counter(
        double(trie_bytes), benchmark::Counter::kDefaults,
        benchmark::Counter::kIs1024);
}

} // namespace

int
main(int argc, char **argv)
{
    // items_per_second ~ constant across run lengths (range = input
    // divisor) demonstrates the O(1)-per-edge amortized bound.
    // Name storage must outlive registration (RegisterBenchmark keeps
    // a pointer on older google-benchmark versions).
    static std::vector<std::string> names;
    names.reserve(64);
    auto reg = [](const std::string &label, auto fn, int64_t div) {
        names.push_back(label);
        benchmark::RegisterBenchmark(names.back().c_str(), fn)->Arg(div);
    };
    for (const char *name : {"wc", "com", "perl", "gcc", "go"}) {
        for (int64_t div : {8, 4, 2, 1}) {
            const std::string suffix =
                std::string(name) + "/div" + std::to_string(div);
            reg("interp_only/" + suffix,
                [name](benchmark::State &s) { BM_InterpOnly(s, name); },
                div);
            reg("edge_profile/" + suffix,
                [name](benchmark::State &s) { BM_EdgeProfile(s, name); },
                div);
            reg("path_profile/" + suffix,
                [name](benchmark::State &s) { BM_PathProfile(s, name); },
                div);
        }
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
