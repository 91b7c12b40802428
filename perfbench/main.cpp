/**
 * @file
 * pathsched's repository benchmark.  run.py builds this program and is
 * the command line users run; see baseline.json for the workloads, the
 * metric predictions and the measured baseline.
 *
 *   perfbench --workload sweep|paths-icache|gen-mix --seed N
 *             --seconds S --trace 0|1 [--spans FILE]
 *
 * With --trace 0 the program runs measured passes: every (program,
 * backend) pair of the workload through pipeline::runPipeline, serially,
 * one thread, no stage cache — a closed loop with one client — while
 * another pass still fits in S seconds and until at least 100 calls are
 * pooled.  With --trace 1 each pair runs untraced and then through the
 * traced replay
 * (replay.hpp), which must reproduce the pipeline's cycles, code bytes
 * and output.  Every run is checked against a reference interpretation
 * of the original program, and every deterministic value must repeat
 * across passes.  Timings are reported at a reference host speed (see
 * HostSpeed).  The last line of stdout is one JSON object.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory_resource>
#include <string>
#include <vector>

#include "gen/generator.hpp"
#include "obs/json.hpp"
#include "pipeline/backend.hpp"
#include "pipeline/pipeline.hpp"
#include "replay.hpp"
#include "support/hash.hpp"
#include "workloads/workloads.hpp"

using namespace pathsched;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** The paper's five configurations.  Fixed here rather than taken from
 *  allBackends(), so registering or deleting other backends leaves the
 *  workloads unchanged. */
const std::vector<std::string> kPaperBackends = {"BB", "M4", "M16", "P4",
                                                 "P4e"};

/** gen-mix size: 60 programs cover every (branch family, procedure
 *  count) pair once; eight rounds of that keep the cross-seed spread of
 *  the workload's totals small. */
constexpr uint32_t kGenPrograms = 480;

/** Set-up is repeated this often per run; setup_s is the median.  Two
 *  builds run up front, the rest spread over the measured time, so that
 *  setup_s samples the same machine state as the passes. */
constexpr size_t kSetupReps = 20;

/** Pooled runPipeline calls needed before run_ms_p90 has at least ten
 *  samples beyond it. */
constexpr size_t kMinSamples = 100;

struct Program
{
    std::string name;
    ir::Program program;
    interp::ProgramInput train;
    interp::ProgramInput test;
};

struct WorkloadDef
{
    const char *name;
    bool icache;
    std::vector<std::string> backends;
    /** Build the programs and inputs (the timed set-up). */
    std::function<std::vector<Program>(uint64_t seed)> build;
    /** Layer the set-up time belongs to, for the per-layer report. */
    const char *setupLayer;
};

Program
fromTable1(workloads::Workload w)
{
    return {w.name, std::move(w.program), std::move(w.train),
            std::move(w.test)};
}

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = {
        {"sweep", false, kPaperBackends,
         [](uint64_t) {
             std::vector<Program> out;
             for (const std::string &n : workloads::benchmarkNames())
                 out.push_back(fromTable1(workloads::makeByName(n)));
             return out;
         },
         "workloads.build_ms"},
        {"paths-icache", true, {"P4e"},
         [](uint64_t) {
             // Fig. 5's set: wc and the ten SPEC analogues.
             static const char *const kNames[] = {
                 "wc", "com",   "eqn", "esp",  "gcc",   "go",
                 "ijpeg", "li", "m88k", "perl", "vortex"};
             std::vector<Program> out;
             for (const char *n : kNames)
                 out.push_back(fromTable1(workloads::makeByName(n)));
             return out;
         },
         "workloads.build_ms"},
        {"gen-mix", false, kPaperBackends,
         [](uint64_t seed) {
             static const gen::BranchKind kFamilies[] = {
                 gen::BranchKind::Random, gen::BranchKind::Tttf,
                 gen::BranchKind::Phased, gen::BranchKind::Correlated,
                 gen::BranchKind::Mixed};
             std::vector<Program> out;
             uint64_t state = seed;
             for (uint32_t i = 0; i < kGenPrograms; ++i) {
                 gen::GenSpec spec;
                 spec.seed = splitmix64(state);
                 spec.branch = kFamilies[i % 5];
                 spec.procs = 3 + (i / 5) % 12; // 4..15 with main
                 spec.stmts = 8;
                 spec.maxTrips = 12;
                 gen::Workload w = gen::generate(spec);
                 out.push_back({"gen" + std::to_string(i),
                                std::move(w.program), std::move(w.train),
                                std::move(w.test)});
             }
             return out;
         },
         "gen.generate_ms"},
    };
    return defs;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Linear-interpolated percentile, @p q in [0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

/** A timing taken at @c at milliseconds into the run (its midpoint). */
struct Timed
{
    double at = 0, ms = 0;
};

/**
 * The host's speed over the run, from a reference kernel timed every
 * kProbeEveryMs between calls.  Neighbours on a shared host change its
 * throughput by a third within minutes; the kernel slows down with it,
 * so dividing a timing by the kernel's slowdown around it, against
 * kKernelRefMs, reports the timing at one reference speed.  The kernel
 * is the benchmark's own code on a private arena — ordered-map inserts
 * and a sort, the allocation- and pointer-heavy work the scheduler
 * does — so neither a change to the program nor its heap moves it.
 */
class HostSpeed
{
  public:
    /** The kernel's time on the idle 4-vCPU host the benchmark was
     *  defined on. */
    static constexpr double kKernelRefMs = 0.24;
    static constexpr double kProbeEveryMs = 50;
    /** Samples on each side of a timing that set its slowdown. */
    static constexpr size_t kWindow = 50;

    HostSpeed() : epoch_(Clock::now()), arena_(1 << 20) { sample(); }

    /** Milliseconds since construction. */
    double now() const { return msSince(epoch_); }

    void sampleWhenDue()
    {
        if (now() >= at_.back() + kProbeEveryMs)
            sample();
    }

    /** Time the kernel once.  An untimed run first brings the arena
     *  into the caches, so how much of them the program's last call
     *  used does not show in the sample. */
    void sample()
    {
        kernel();
        const double t0 = now();
        kernel();
        const double t1 = now();
        at_.push_back(t0);
        kernelMs_.push_back(t1 - t0);
    }

    /** Median slowdown of the samples around @p at. */
    double slowdownAt(double at) const
    {
        const size_t i = size_t(
            std::lower_bound(at_.begin(), at_.end(), at) - at_.begin());
        const size_t lo = i > kWindow ? i - kWindow : 0;
        const size_t hi = std::min(i + kWindow, at_.size());
        return median({kernelMs_.begin() + long(lo),
                       kernelMs_.begin() + long(hi)}) /
               kKernelRefMs;
    }

    /** Median slowdown over all samples from @p from to @p to. */
    double slowdownOver(double from, double to) const
    {
        std::vector<double> in;
        for (size_t i = 0; i < at_.size(); ++i) {
            if (at_[i] >= from && at_[i] <= to)
                in.push_back(kernelMs_[i]);
        }
        return in.empty() ? slowdownAt(from) : median(in) / kKernelRefMs;
    }

    double atReference(const Timed &t) const
    {
        return t.ms / slowdownAt(t.at);
    }

  private:
    void kernel()
    {
        std::pmr::monotonic_buffer_resource mr(arena_.data(), arena_.size(),
                                               std::pmr::null_memory_resource());
        std::pmr::map<uint64_t, uint64_t> m(&mr);
        std::pmr::vector<uint64_t> v(&mr);
        uint64_t s = 11;
        for (int i = 0; i < 1500; ++i)
            m[splitmix64(s) & 0xffff] += uint64_t(i);
        for (int i = 0; i < 1500; ++i)
            v.push_back(splitmix64(s));
        std::sort(v.begin(), v.end());
        sink_ = m.size() + v[0];
    }

    Clock::time_point epoch_;
    std::vector<std::byte> arena_;
    std::vector<double> at_, kernelMs_;
    volatile uint64_t sink_ = 0;
};

uint64_t
outputHash(const interp::RunResult &r)
{
    uint64_t h = fnv1a64(r.output.data(), r.output.size() * sizeof(int64_t));
    return fnv1a64Mix(h, uint64_t(r.returnValue));
}

/** One (program, backend) pair.  Passes visit the cases program-major,
 *  in the same order every time, so no run pays for another order's
 *  heap state. */
struct Case
{
    size_t program;
    const pipeline::BackendDesc *backend;
};

/** Everything about one pipeline call that must repeat exactly. */
struct Outcome
{
    std::string failure; ///< gate class, empty when the run passed
    uint64_t cycles = 0, codeBytes = 0, outHash = 0;
    uint64_t spilled = 0, skipped = 0, superblocks = 0, paths = 0;
    uint64_t icacheMisses = 0, trainSteps = 0;

    bool operator==(const Outcome &) const = default;
};

/** The correctness gate: status OK, output and return value equal to the
 *  reference run of the original program, no degraded procedure, and
 *  no procedure left on virtual registers. */
Outcome
judge(const pipeline::PipelineResult &r, const interp::RunResult &ref)
{
    Outcome o;
    if (!r.status.ok())
        o.failure = "status";
    else if (r.test.truncated() || r.test.output != ref.output ||
             r.test.returnValue != ref.returnValue)
        o.failure = "output-mismatch";
    else if (r.degradedRun())
        o.failure = "degraded";
    else if (r.alloc.procsSkipped > 0)
        o.failure = "regalloc-skipped";
    o.cycles = r.test.cycles;
    o.codeBytes = r.codeBytes;
    o.outHash = outputHash(r.test);
    o.spilled = r.alloc.regsSpilled;
    o.skipped = r.alloc.procsSkipped;
    o.superblocks = r.form.superblocksFormed;
    o.paths = r.numPaths;
    o.icacheMisses = r.test.icacheMisses;
    o.trainSteps = r.trainSteps;
    return o;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 [--spans FILE]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
            if (*end != '\0')
                usage("--seed takes an unsigned integer");
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (*end != '\0' || !(a.seconds > 0))
                usage("--seconds takes a positive number");
        } else if (k == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace takes 0 or 1");
            a.trace = v[0] == '1';
        } else if (k == "--spans") {
            a.spans = v;
        } else {
            usage(("unknown flag " + k).c_str());
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

/** The per-layer metrics of one traced round. */
std::vector<std::pair<std::string, double>>
layerMetrics(const perfbench::LayerTotals &lt, double untraced_ms)
{
    const double interp_ms = lt.trainMs + lt.testMs + lt.refMs;
    const uint64_t ops = lt.trainOps + lt.testOps + lt.refOps;
    auto pct = [](uint64_t num, uint64_t den) {
        return den ? 100.0 * double(num) / double(den) : 0.0;
    };
    return {
        {"interp.train_ms", lt.trainMs},
        {"interp.test_ms", lt.testMs},
        {"interp.ref_ms", lt.refMs},
        {"interp.ops", double(ops)},
        {"interp.mops_per_s", interp_ms > 0 ? double(ops) / interp_ms / 1e3
                                            : 0.0},
        {"profile.ms", lt.trainProfiledMs - lt.trainBareOfProfiledMs},
        {"profile.finalize_ms", lt.finalizeMs},
        {"profile.paths", double(lt.paths)},
        {"profile.paths_per_kstep",
         lt.pathSteps ? 1e3 * double(lt.paths) / double(lt.pathSteps)
                      : 0.0},
        {"profile.rss_mb", double(lt.profileGrowthBytes) / (1 << 20)},
        {"form.ms", lt.formMs},
        {"form.superblocks", double(lt.superblocks)},
        {"form.blocks_duplicated", double(lt.blocksDuplicated)},
        {"form.instrs_out", double(lt.instrsOut)},
        {"form.sb_completion_pct", pct(lt.sbCompletions, lt.sbEntries)},
        {"sched.compact_ms", lt.compactMs},
        {"sched.postsched_ms", lt.postschedMs},
        {"sched.instrs_in", double(lt.instrsIn)},
        {"regalloc.ms", lt.regallocMs},
        {"regalloc.spilled", double(lt.spilled)},
        {"regalloc.procs_skipped", double(lt.procsSkipped)},
        {"regalloc.max_pressure", double(lt.maxPressure)},
        {"ir.verify_ms", lt.verifyMs},
        {"layout.ms", lt.layoutMs},
        {"layout.code_bytes", double(lt.codeBytes)},
        {"icache.accesses", double(lt.icacheAccesses)},
        {"icache.misses", double(lt.icacheMisses)},
        {"icache.miss_pct", pct(lt.icacheMisses, lt.icacheAccesses)},
        {"pipeline.other_ms", untraced_ms - lt.pipelineLayerMs()},
        {"trace.overhead_pct",
         untraced_ms > 0
             ? 100.0 * (lt.replayMs - lt.trainBareOfProfiledMs - untraced_ms) /
                   untraced_ms
             : 0.0},
    };
}

/** Per-layer values that are counts: they must repeat exactly. */
bool
isCount(const std::string &name)
{
    static const char *const kCounts[] = {
        "interp.ops",       "profile.paths",      "form.superblocks",
        "form.blocks_duplicated", "form.instrs_out", "sched.instrs_in",
        "regalloc.spilled", "regalloc.procs_skipped",
        "regalloc.max_pressure", "layout.code_bytes", "icache.accesses",
        "icache.misses"};
    for (const char *c : kCounts) {
        if (name == c)
            return true;
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &d : workloadDefs()) {
        if (args.workload == d.name)
            def = &d;
    }
    if (def == nullptr)
        usage(("unknown workload " + args.workload).c_str());

    // Freed memory stays in the process: without this, every pass maps
    // and faults in again the hundreds of MB the path tries take, and the
    // cost of that depends on the host's memory pressure more than on
    // the program.
    mallopt(M_MMAP_MAX, 0);
    mallopt(M_TRIM_THRESHOLD, INT_MAX);

    // --- Set-up: the first build is kept.  The second, discarded at
    // once, leaves room on the heap that the later builds reuse, so
    // peak_rss_mb does not depend on when they fall. ---
    HostSpeed host;
    std::vector<Timed> setup_ms;
    auto setupOnce = [&] {
        const double t0 = host.now();
        std::vector<Program> built = def->build(args.seed);
        const double t1 = host.now();
        setup_ms.push_back({(t0 + t1) / 2, t1 - t0});
        host.sampleWhenDue();
        return built;
    };
    const std::vector<Program> programs = setupOnce();
    setupOnce();

    pipeline::PipelineOptions opts;
    opts.useICache = def->icache;
    opts.executor.threads = 1;
    opts.executor.cache = nullptr;

    std::vector<const pipeline::BackendDesc *> backends;
    for (const std::string &n : def->backends) {
        const pipeline::BackendDesc *be = pipeline::findBackend(n);
        if (be == nullptr) {
            std::fprintf(stderr, "perfbench: backend %s not registered\n",
                         n.c_str());
            return 2;
        }
        backends.push_back(be);
    }

    // Reference runs of the original programs: the gate's oracle.
    std::vector<interp::RunResult> refs;
    std::vector<uint64_t> static_instrs;
    for (const Program &p : programs) {
        refs.push_back(interp::Interpreter(p.program).run(p.test));
        uint64_t n = 0;
        for (const ir::Procedure &proc : p.program.procs)
            n += proc.instrCount();
        static_instrs.push_back(n);
    }

    std::vector<Case> cases;
    for (size_t p = 0; p < programs.size(); ++p) {
        for (const pipeline::BackendDesc *be : backends)
            cases.push_back({p, be});
    }

    std::vector<std::string> problems;
    std::vector<Outcome> first(cases.size());
    std::vector<bool> seen(cases.size(), false);
    uint64_t attempted = 0, op_failed = 0;
    auto record = [&](size_t c, const pipeline::PipelineResult &r) {
        const Outcome o = judge(r, refs[cases[c].program]);
        ++attempted;
        if (o.failure == "status" || o.failure == "output-mismatch")
            ++op_failed;
        if (o.failure == "output-mismatch")
            problems.push_back(programs[cases[c].program].name + "/" +
                               cases[c].backend->name +
                               ": output differs from the reference run");
        if (!seen[c]) {
            first[c] = o;
            seen[c] = true;
        } else if (!(first[c] == o)) {
            problems.push_back(programs[cases[c].program].name + "/" +
                               cases[c].backend->name +
                               ": a deterministic value changed between "
                               "passes");
        }
    };
    auto runOne = [&](size_t c, Timed &t) {
        const Case &cs = cases[c];
        const Program &p = programs[cs.program];
        const double t0 = host.now();
        pipeline::PipelineResult r = pipeline::runPipeline(
            p.program, p.train, p.test, cs.backend->config, opts);
        const double t1 = host.now();
        t = {(t0 + t1) / 2, t1 - t0};
        return r;
    };
    auto setupAtReference = [&] {
        std::vector<double> ms;
        for (const Timed &t : setup_ms)
            ms.push_back(host.atReference(t));
        return median(ms);
    };

    obs::JsonWriter out(0);
    out.beginObject();
    std::vector<std::pair<std::string, double>> metrics;
    std::vector<std::pair<std::string, double>> determinism;
    const auto start = Clock::now();
    size_t passes = 0;
    // Start another pass only if it should end within the time budget.
    auto timeForAnother = [&] {
        const double elapsed = msSince(start);
        return elapsed + elapsed / double(passes) <= args.seconds * 1e3;
    };
    // The remaining set-up builds, between calls, one each time another
    // share of the budget has passed; finishSetup() runs any left over.
    auto setupWhenDue = [&] {
        const double due = args.seconds * 1e3 *
                           double(setup_ms.size() - 1) / double(kSetupReps - 1);
        if (setup_ms.size() < kSetupReps && msSince(start) >= due)
            setupOnce();
    };
    auto finishSetup = [&] {
        while (setup_ms.size() < kSetupReps)
            setupOnce();
        host.sample();
    };
    auto betweenCalls = [&] {
        host.sampleWhenDue();
        setupWhenDue();
    };

    if (!args.trace) {
        std::vector<std::vector<Timed>> pass_calls;
        size_t calls = 0;
        struct rusage ru = {};
        while (passes == 0 || calls < kMinSamples || timeForAnother()) {
            pass_calls.emplace_back();
            for (size_t c = 0; c < cases.size(); ++c) {
                Timed t;
                record(c, runOne(c, t));
                pass_calls.back().push_back(t);
                ++calls;
                betweenCalls();
            }
            // Peak RSS of set-up plus one pass: later passes reuse the
            // heap, and how many fit in the budget varies.
            if (++passes == 1)
                getrusage(RUSAGE_SELF, &ru);
        }
        finishSetup();

        // Every timing at the reference speed.
        std::vector<double> samples, pass_ms;
        for (const std::vector<Timed> &pass : pass_calls) {
            double wall = 0;
            for (const Timed &t : pass) {
                samples.push_back(host.atReference(t));
                wall += samples.back();
            }
            pass_ms.push_back(wall);
        }

        // Quality aggregates over the runs that passed the gate.  The
        // per-op and per-instr forms divide by the original program's
        // dynamic ops and static instructions: on a fixed program set
        // they move exactly with the raw geomeans, and on gen-mix they do
        // not swing with the sizes of the seed's programs.
        double log_cycles = 0, log_bytes = 0, log_cpo = 0, log_bpi = 0;
        size_t ok = 0;
        for (size_t c = 0; c < cases.size(); ++c) {
            const Outcome &o = first[c];
            if (!o.failure.empty())
                continue;
            const size_t p = cases[c].program;
            log_cycles += std::log(double(o.cycles));
            log_bytes += std::log(double(o.codeBytes));
            log_cpo += std::log(double(o.cycles) / double(refs[p].dynInstrs));
            log_bpi += std::log(double(o.codeBytes) / double(static_instrs[p]));
            ++ok;
        }
        auto geo = [ok](double log_sum) {
            return ok ? std::exp(log_sum / double(ok)) : 0.0;
        };
        const double n = double(cases.size());
        metrics = {
            {"setup_s", setupAtReference() / 1e3},
            {"wall_s", median(pass_ms) / 1e3},
            {"run_ms_p50", percentile(samples, 0.5)},
            {"run_ms_p90", percentile(samples, 0.9)},
            {"peak_rss_mb", double(ru.ru_maxrss) / 1024.0},
            {"cycles_per_op", geo(log_cpo)},
            {"code_bytes_per_instr", geo(log_bpi)},
            {"ok_pct", 100.0 * double(ok) / n},
        };
        determinism = {{"sim_cycles_geomean", geo(log_cycles)},
                       {"code_bytes_geomean", geo(log_bytes)},
                       {"cycles_per_op", geo(log_cpo)},
                       {"code_bytes_per_instr", geo(log_bpi)},
                       {"failed_pct", 100.0 * (n - double(ok)) / n}};
        out.member("samples", uint64_t(samples.size()));
        out.key("pass_s");
        out.beginArray();
        for (double ms : pass_ms)
            out.value(ms / 1e3);
        out.endArray();
    } else {
        // Each pair runs untraced and then at once through the replay,
        // so the two see the same machine state: pipeline.other_ms and
        // the tracing overhead compare like with like.
        perfbench::Tracer tracer;
        std::vector<std::vector<std::pair<std::string, double>>> rounds;
        std::vector<std::pair<double, double>> round_spans;
        double untraced_total = 0, replay_total = 0;
        while (passes == 0 || timeForAnother()) {
            const double round_start = host.now();
            double untraced = 0;
            perfbench::LayerTotals lt;
            for (size_t c = 0; c < cases.size(); ++c) {
                const Case &cs = cases[c];
                const Program &p = programs[cs.program];
                Timed t;
                record(c, runOne(c, t));
                untraced += t.ms;
                tracer.setRun(uint32_t(passes * cases.size() + c));
                const perfbench::ReplayResult rr =
                    perfbench::replayPipeline(p.program, p.train, p.test,
                                              *cs.backend, opts, tracer, lt);
                // A run that passed the gate produced the reference
                // output; its replay must match that and the pipeline's
                // cycles and code bytes exactly.
                const Outcome &o = first[c];
                const interp::RunResult &ref = refs[cs.program];
                if (o.failure.empty() &&
                    (!rr.status.ok() || rr.test.cycles != o.cycles ||
                     rr.codeBytes != o.codeBytes ||
                     rr.test.output != ref.output ||
                     rr.test.returnValue != ref.returnValue))
                    problems.push_back(p.name + "/" + cs.backend->name +
                                       ": the traced replay does not "
                                       "reproduce runPipeline");
                betweenCalls();
            }
            rounds.push_back(layerMetrics(lt, untraced));
            round_spans.push_back({round_start, host.now()});
            untraced_total += untraced;
            replay_total += lt.replayMs - lt.trainBareOfProfiledMs;
            ++passes;
        }
        finishSetup();
        // Each round's timings at the reference speed, by the round's
        // median slowdown; counts and ratios stay as they are.
        for (size_t r = 0; r < rounds.size(); ++r) {
            const double slow =
                host.slowdownOver(round_spans[r].first, round_spans[r].second);
            for (auto &[name, v] : rounds[r]) {
                if (name.ends_with("_ms") || name.ends_with(".ms"))
                    v /= slow;
                else if (name == "interp.mops_per_s")
                    v *= slow;
            }
        }
        for (size_t i = 0; i < rounds[0].size(); ++i) {
            const std::string &name = rounds[0][i].first;
            std::vector<double> vals;
            for (const auto &round : rounds)
                vals.push_back(round[i].second);
            if (isCount(name)) {
                for (double v : vals) {
                    if (v != vals[0])
                        problems.push_back(name + " changed between "
                                                  "passes");
                }
                determinism.push_back({name, vals[0]});
            }
            metrics.push_back({name, median(vals)});
        }
        for (const char *layer : {"workloads.build_ms", "gen.generate_ms"})
            metrics.push_back({layer, std::strcmp(def->setupLayer, layer) == 0
                                          ? setupAtReference()
                                          : 0.0});
        out.member("untraced_ms", untraced_total);
        out.member("replay_ms", replay_total);
        out.member("spans", uint64_t(tracer.spans().size()));
        if (!args.spans.empty() && !tracer.write(args.spans))
            problems.push_back("could not write " + args.spans);
    }

    // Gate failures by class.
    std::map<std::string, uint64_t> by_class;
    out.key("failures");
    out.beginArray();
    for (size_t c = 0; c < cases.size(); ++c) {
        if (first[c].failure.empty())
            continue;
        ++by_class[first[c].failure];
        out.value(programs[cases[c].program].name + "/" +
                  cases[c].backend->name + " " + first[c].failure);
    }
    out.endArray();
    out.key("failures_by_class");
    out.beginObject();
    for (const auto &[k, v] : by_class)
        out.member(k, v);
    out.endObject();

    out.member("host_slowdown", host.slowdownOver(0, host.now()));
    out.member("workload", args.workload);
    out.member("seed", args.seed);
    out.member("runs_per_pass", uint64_t(cases.size()));
    out.member("passes", uint64_t(passes));
    out.member("correct", problems.empty());
    out.member("attempted", attempted);
    out.member("failed", op_failed);
    out.key("problems");
    out.beginArray();
    for (const std::string &p : problems)
        out.value(p);
    out.endArray();
    out.key("metrics");
    out.beginObject();
    for (const auto &[k, v] : metrics)
        out.member(k, v);
    out.endObject();
    out.key("determinism");
    out.beginObject();
    for (const auto &[k, v] : determinism)
        out.member(k, v);
    out.endObject();
    out.endObject();
    std::printf("%s\n", out.str().c_str());
    return problems.empty() ? 0 : 1;
}
