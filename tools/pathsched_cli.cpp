/**
 * @file
 * Command-line driver: run any Table-1 workload through any paper
 * configuration with the machine, cache, and formation knobs exposed,
 * and print a one-line report per run.  Profiles can be dumped to (or
 * preloaded from) the text format in profile/serialize.hpp.
 *
 * Examples:
 *   pathsched_cli --workload wc --config P4
 *   pathsched_cli --workload all --config all --icache
 *   pathsched_cli --workload gcc --config P4 --depth 7 --latency realistic
 *   pathsched_cli --workload corr --dump-paths corr.paths
 *   pathsched_cli --workload wc --config all --json out.json --trace out.trace
 *   pathsched_cli --workload wc --config P4 --stats
 *   pathsched_cli --workload wc --config P4 --inject stage=form,proc=3
 *
 * Exit codes: 0 = success, 1 = user/configuration error, 2 = all runs
 * completed but at least one procedure degraded to the BB fallback,
 * 3 = internal error (a pathsched bug).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "gen/generator.hpp"
#include "interp/interpreter.hpp"
#include "machine/machine.hpp"
#include "obs/stats.hpp"
#include "obs/timer.hpp"
#include "pipeline/backend.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/report.hpp"
#include "profile/serialize.hpp"
#include "profile/validate.hpp"
#include "support/faultinject.hpp"
#include "support/logging.hpp"
#include "support/status.hpp"
#include "support/strutil.hpp"
#include "workloads/workloads.hpp"

using namespace pathsched;

namespace {

void
usage()
{
    std::printf(
        "usage: pathsched_cli [options]\n"
        "  --workload NAME|all     Table-1 benchmark (default: all)\n"
        "  --gen SPEC              run a generated workload instead of a\n"
        "                          Table-1 benchmark, e.g.\n"
        "                          --gen 'seed=7,branch=tttf'\n"
        "                          (repeatable; see docs/fuzzing.md)\n");
    std::printf(
        "  --config CFG|all        %s\n"
        "                          (default: all)\n",
        pipeline::backendNames(", ").c_str());
    std::printf(
        "  --icache                attach the 32KB direct-mapped cache\n"
        "  --depth N               path-profile depth in branches "
        "(default 15)\n"
        "  --threshold X           enlargement completion threshold\n"
        "  --max-instrs N          superblock instruction cap\n"
        "  --latency unit|realistic\n"
        "  --forward-paths         forward (Ball-Larus-style) windows\n"
        "  --grow-upward           also grow traces upward\n"
        "  --no-enlarge            skip the enlargement step\n"
        "  --no-ph                 skip Pettis-Hansen placement\n"
        "  --dump-paths FILE       write the workload's general path\n"
        "                          profile (training input) to FILE\n"
        "  --dump-edges FILE       write the workload's edge profile\n"
        "                          (training input) to FILE\n"
        "  --profile-version 1|2   profile dump format; v2 embeds a\n"
        "                          checksum and per-procedure CFG\n"
        "                          fingerprints (default 1)\n"
        "  --load-paths FILE       drive P4/P4e formation from this\n"
        "                          path profile instead of training\n"
        "  --load-edges FILE       drive M4/M16 formation from this\n"
        "                          edge profile instead of training\n"
        "  --profile-check MODE    admission for loaded profiles:\n"
        "                          strict (any finding fails, exit 1),\n"
        "                          repair (degrade per procedure,\n"
        "                          exit 2; default), off (trust)\n"
        "  --validate-profile      only admit the loaded profile(s)\n"
        "                          against the workload and report;\n"
        "                          exit 0 clean, 2 admissible with\n"
        "                          degradations, 3 rejected\n"
        "  --json FILE             write a JSON report of every run to\n"
        "                          FILE ('-' = stdout, suppresses the\n"
        "                          table); see docs/observability.md\n"
        "  --trace FILE            write a Chrome trace_event file of\n"
        "                          per-stage wall times to FILE (open\n"
        "                          in chrome://tracing or Perfetto)\n"
        "  --stats                 dump the stat registry after the runs\n"
        "  --inject SPEC           arm deterministic fault injection,\n"
        "                          e.g. stage=form,proc=3,kind=verify\n"
        "                          (';' separates several faults; see\n"
        "                          docs/robustness.md).  Repeatable.\n"
        "  --inject-seed N         RNG seed for prob= faults (default 0)\n"
        "  --deadline-ms N         wall-clock budget for each workload's\n"
        "                          training and reference runs, and\n"
        "                          again for each config run; expiry\n"
        "                          ends the run with a typed\n"
        "                          DeadlineExceeded error (exit 1)\n"
        "  --step-budget N         step bound of every interpreter run\n"
        "                          (0 = the default, 4e9): a training\n"
        "                          or reference run over it is a\n"
        "                          StepLimit error (exit 1); a test run\n"
        "                          over it degrades the procedure it\n"
        "                          stopped in to BB (exit 2)\n"
        "  --list                  list workloads and exit\n"
        "\n"
        "exit codes: 0 success; 1 user error (including an exhausted\n"
        "deadline or step bound that a BB fallback cannot absorb);\n"
        "2 completed with BB degradations; 3 internal error\n");
}

/** Write one workload's training path profile (finalized or not,
 *  the text is the same) to @p file. */
void
dumpPaths(const profile::PathProfiler &pp, const ir::Program &prog,
          const std::string &file, int version)
{
    std::ofstream out(file);
    if (!out)
        fatal("cannot open '%s' for writing", file.c_str());
    out << (version == 2 ? profile::toTextV2(pp, prog)
                         : profile::toText(pp));
    std::printf("wrote %zu distinct paths to %s\n", pp.numPaths(),
                file.c_str());
}

/** Write one workload's training edge profile to @p file. */
void
dumpEdges(const profile::EdgeProfiler &ep, const ir::Program &prog,
          const std::string &file, int version)
{
    std::ofstream out(file);
    if (!out)
        fatal("cannot open '%s' for writing", file.c_str());
    out << (version == 2 ? profile::toTextV2(ep, prog)
                         : profile::toText(ep));
    std::printf("wrote edge profile to %s\n", file.c_str());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot read '%s'", path.c_str());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return text;
}

/** One workload's external profiles, admitted once and shared by
 *  every config run (and the --validate-profile report). */
struct AdmittedProfiles
{
    std::optional<profile::AdmittedEdgeProfile> edges;
    std::optional<profile::AdmittedPathProfile> paths;
};

/**
 * Admit the non-empty profile texts against @p w's program under
 * @p mode.  A failure (any finding in Strict mode, an unparseable file
 * in Strict or Off mode) is a user error and exits 1 before any run.
 */
void
admitProfiles(const workloads::Workload &w, const std::string &edge_text,
              const std::string &path_text,
              const profile::PathProfileParams &params,
              profile::AdmissionMode mode, AdmittedProfiles &out)
{
    Status st;
    if (!edge_text.empty()) {
        out.edges.emplace(w.program);
        st = profile::admitEdgeProfile(edge_text, w.program, mode,
                                       *out.edges);
    }
    if (st.ok() && !path_text.empty()) {
        out.paths.emplace(w.program, params);
        st = profile::admitPathProfile(path_text, w.program, params, mode,
                                       *out.paths);
    }
    if (!st.ok())
        fatal("%s: external profile rejected (%s)", w.name.c_str(),
              st.toString().c_str());
}

/**
 * Standalone admission report (--validate-profile) over profiles
 * admitted in Repair mode: Strict would stop at the first finding and
 * Off would skip every check, but a validation run should enumerate
 * everything wrong with the file.  Returns the worst exit code seen:
 * 0 clean, 2 admissible with degradations, 3 rejected outright.
 */
int
reportAdmission(const std::string &name, const AdmittedProfiles &adm)
{
    int exit_code = 0;
    auto report = [&](const char *kind, const profile::ProfileAudit &audit) {
        if (audit.fileRejected) {
            std::printf("%s: %s profile: rejected (%s)\n", name.c_str(),
                        kind, audit.fileStatus.toString().c_str());
            exit_code = 3;
            return;
        }
        if (audit.clean()) {
            std::printf("%s: %s profile: clean (%llu procedures "
                        "checked)\n",
                        name.c_str(), kind,
                        (unsigned long long)audit.checked);
            return;
        }
        for (const auto &pa : audit.procs)
            std::printf("%s: %s profile: proc '%s' %s (%s): %s\n",
                        name.c_str(), kind, pa.procName.c_str(),
                        profile::procActionName(pa.action),
                        errorKindName(pa.kind), pa.message.c_str());
        if (audit.droppedPaths > 0)
            std::printf("%s: %s profile: %llu records dropped\n",
                        name.c_str(), kind,
                        (unsigned long long)audit.droppedPaths);
        exit_code = std::max(exit_code, 2);
    };
    if (adm.edges)
        report("edge", adm.edges->audit);
    if (adm.paths)
        report("path", adm.paths->audit);
    return exit_code;
}

} // namespace

int
main(int argc, char **argv)
{
    // Distinguish internal bugs (exit 3) from user errors (fatal's
    // exit 1) in this driver's documented exit codes.
    setPanicExitCode(3);

    std::string workload = "all";
    std::vector<std::string> gen_specs;
    std::string config = "all";
    std::string dump_paths;
    std::string dump_edges;
    std::string load_paths;
    std::string load_edges;
    int profile_version = 1;
    bool validate_profile = false;
    std::string json_file;
    std::string trace_file;
    std::vector<std::string> inject_specs;
    uint64_t inject_seed = 0;
    uint64_t deadline_ms = 0;
    bool want_stats = false;
    profile::AdmissionMode profile_check = profile::AdmissionMode::Repair;
    pipeline::PipelineOptions opts;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("option %s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            workload = next();
        } else if (arg == "--gen") {
            gen_specs.push_back(next());
        } else if (arg == "--config") {
            config = next();
        } else if (arg == "--icache") {
            opts.useICache = true;
        } else if (arg == "--depth") {
            opts.pathParams.maxBranches =
                uint32_t(flagU64("--depth", next(), UINT32_MAX));
        } else if (arg == "--threshold") {
            opts.completionThreshold = flagDouble("--threshold", next());
        } else if (arg == "--max-instrs") {
            opts.maxInstrs =
                uint32_t(flagU64("--max-instrs", next(), UINT32_MAX));
        } else if (arg == "--latency") {
            const std::string v = next();
            if (v == "unit") {
                opts.machine = machine::MachineModel::unitLatency();
            } else if (v == "realistic") {
                opts.machine = machine::MachineModel::realisticLatency();
            } else {
                fatal("unknown latency table '%s'", v.c_str());
            }
        } else if (arg == "--forward-paths") {
            opts.pathParams.forwardPathsOnly = true;
        } else if (arg == "--grow-upward") {
            opts.growUpward = true;
        } else if (arg == "--no-enlarge") {
            opts.enlarge = false;
        } else if (arg == "--no-ph") {
            opts.pettisHansen = false;
        } else if (arg == "--dump-paths") {
            dump_paths = next();
        } else if (arg == "--dump-edges") {
            dump_edges = next();
        } else if (arg == "--load-paths") {
            load_paths = next();
        } else if (arg == "--load-edges") {
            load_edges = next();
        } else if (arg == "--profile-version") {
            profile_version = int(flagU64("--profile-version", next(), 2));
            if (profile_version != 1 && profile_version != 2)
                fatal("--profile-version must be 1 or 2");
        } else if (arg == "--profile-check" ||
                   arg.rfind("--profile-check=", 0) == 0) {
            const std::string v = arg == "--profile-check"
                                      ? next()
                                      : arg.substr(std::strlen(
                                            "--profile-check="));
            if (!profile::parseAdmissionMode(v, profile_check))
                fatal("unknown --profile-check mode '%s' (want "
                      "strict, repair or off)",
                      v.c_str());
        } else if (arg == "--validate-profile") {
            validate_profile = true;
        } else if (arg == "--json") {
            json_file = next();
        } else if (arg == "--trace") {
            trace_file = next();
        } else if (arg == "--stats") {
            want_stats = true;
        } else if (arg == "--inject") {
            inject_specs.push_back(next());
        } else if (arg == "--inject-seed") {
            inject_seed = flagU64("--inject-seed", next());
        } else if (arg == "--deadline-ms") {
            deadline_ms = flagU64("--deadline-ms", next());
        } else if (arg == "--step-budget") {
            const uint64_t steps = flagU64("--step-budget", next());
            opts.maxSteps = steps != 0 ? steps : interp::kDefaultMaxSteps;
        } else if (arg == "--list") {
            for (const auto &n : workloads::benchmarkNames())
                std::printf("%s\n", n.c_str());
            std::printf(
                "\ngenerator families (use with --gen, e.g. "
                "--gen 'seed=7,branch=tttf'):\n"
                "  branch=mixed       per-branch mix of the patterns "
                "below (default)\n"
                "  branch=random      data-dependent conditions, no "
                "periodic structure\n"
                "  branch=tttf        period-P taken/taken/../not-taken "
                "branches (alt)\n"
                "  branch=phased      true for 2P executions, then "
                "false (ph)\n"
                "  branch=corr        repeats the previous condition in "
                "the region\n");
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown option '%s'", arg.c_str());
        }
    }

    // The run list: Table-1 benchmarks by name, or generated workloads
    // when --gen is given (the generator and the Table-1 suite share
    // the Workload shape, so everything downstream is agnostic).
    std::vector<workloads::Workload> suite;
    if (!gen_specs.empty()) {
        if (workload != "all")
            fatal("--gen and --workload are mutually exclusive");
        for (const auto &text : gen_specs) {
            gen::GenSpec spec;
            std::string err;
            if (!gen::GenSpec::parse(text, spec, err))
                fatal("bad --gen spec '%s': %s", text.c_str(),
                      err.c_str());
            gen::Workload gw = gen::generate(spec);
            workloads::Workload w;
            w.name = gw.name;
            w.description = gw.spec.toString();
            w.group = "gen";
            w.program = std::move(gw.program);
            w.train = std::move(gw.train);
            w.test = std::move(gw.test);
            suite.push_back(std::move(w));
        }
    } else if (workload == "all") {
        suite = workloads::standardBenchmarks();
    } else {
        suite.push_back(workloads::makeByName(workload));
    }

    std::string edge_text =
        load_edges.empty() ? std::string() : readFile(load_edges);
    std::string path_text =
        load_paths.empty() ? std::string() : readFile(load_paths);

    if (validate_profile) {
        if (load_edges.empty() && load_paths.empty())
            fatal("--validate-profile needs --load-edges and/or "
                  "--load-paths");
        int exit_code = 0;
        for (const auto &w : suite) {
            AdmittedProfiles adm;
            admitProfiles(w, edge_text, path_text, opts.pathParams,
                          profile::AdmissionMode::Repair, adm);
            exit_code = std::max(exit_code, reportAdmission(w.name, adm));
        }
        return exit_code;
    }

    std::vector<const pipeline::BackendDesc *> configs;
    if (config == "all") {
        configs = pipeline::allBackends();
    } else {
        const pipeline::BackendDesc *be = pipeline::findBackend(config);
        if (be == nullptr)
            fatal("unknown config '%s'", config.c_str());
        configs.push_back(be);
    }
    // Only the profile kinds some selected config reads are admitted;
    // the training run also collects the kinds a --dump-* writes.
    const pipeline::ProfileNeeds selected = pipeline::needsOf(configs);
    if (!selected.edges)
        edge_text = std::string();
    if (!selected.paths)
        path_text = std::string();
    pipeline::ProfileNeeds needs = selected;
    needs |= {!dump_edges.empty(), !dump_paths.empty()};

    // Fault injection: armed once, shared across every run (fire
    // budgets are global, so `count=1` means one fault in the whole
    // invocation).
    FaultInjector injector(inject_seed);
    for (const auto &spec : inject_specs) {
        std::string err;
        if (!injector.parse(spec, err))
            fatal("bad --inject spec '%s': %s", spec.c_str(),
                  err.c_str());
    }
    if (!injector.empty())
        opts.robustness.faults = &injector;

    // Observability sinks: the registry feeds --json and --stats, the
    // stage trace feeds --trace.  Null sinks disable collection.
    obs::StatRegistry registry;
    obs::StageTrace trace;
    obs::Observer observer;
    const bool need_registry =
        !json_file.empty() || want_stats;
    if (need_registry)
        observer.stats = &registry;
    if (!trace_file.empty())
        observer.trace = &trace;
    if (observer.stats != nullptr || observer.trace != nullptr)
        opts.observability.observer = &observer;

    std::vector<pipeline::ReportRun> report_runs;
    bool any_degraded = false;
    // `--json -` owns stdout: keep the human table off it.
    const bool print_table = json_file != "-";

    if (print_table)
        std::printf("%-8s %-4s %12s %8s %9s %9s %11s\n", "bench", "cfg",
                    "cycles", "miss%", "code(KB)", "sb-exec", "sb-size");
    for (const auto &w : suite) {
        const std::string &name = w.name;
        AdmittedProfiles adm;
        admitProfiles(w, edge_text, path_text, opts.pathParams,
                      profile_check, adm);
        opts.profileInput.edges = adm.edges ? &*adm.edges : nullptr;
        opts.profileInput.paths = adm.paths ? &*adm.paths : nullptr;
        // One training run and one reference run serve every config and
        // every --dump-*.  A dump writes the training profile, so a
        // loaded profile of its kind must not stand in for it.  The
        // wall budget starts here and again for each config run.
        pipeline::PipelineOptions prep_opts = opts;
        if (!dump_edges.empty())
            prep_opts.profileInput.edges = nullptr;
        if (!dump_paths.empty())
            prep_opts.profileInput.paths = nullptr;
        if (deadline_ms != 0)
            prep_opts.robustness.deadline =
                Deadline::afterMs(deadline_ms);
        const pipeline::PreparedWorkload prepared =
            pipeline::prepareWorkload(w.program, w.train, w.test, needs,
                                      prep_opts);
        if (!prepared.status.ok())
            fatal("%s/%s did not complete: %s", name.c_str(),
                  configs.front()->name,
                  prepared.status.toString().c_str());
        if (!dump_paths.empty())
            dumpPaths(*prepared.paths, w.program, dump_paths,
                      profile_version);
        if (!dump_edges.empty())
            dumpEdges(*prepared.edges, w.program, dump_edges,
                      profile_version);
        for (const pipeline::BackendDesc *be : configs) {
            if (deadline_ms != 0)
                opts.robustness.deadline =
                    Deadline::afterMs(deadline_ms);
            auto run_timer =
                observer.time("run." + name + "." + be->name);
            auto r = pipeline::runBackend(prepared, *be, opts);
            run_timer.stop();
            if (!r.status.ok())
                fatal("%s/%s did not complete: %s", name.c_str(),
                      r.name.c_str(), r.status.toString().c_str());
            if (r.degradedRun()) {
                any_degraded = true;
                for (const auto &d : r.degraded)
                    std::fprintf(stderr,
                                 "degraded: %s/%s proc %s at %s (%s)\n",
                                 name.c_str(), r.name.c_str(),
                                 d.procName.c_str(), d.stage.c_str(),
                                 errorKindName(d.kind));
            }
            if (r.profileAudit.enabled && !r.profileAudit.clean()) {
                // Admission repairs (projected-edge degradations, file
                // fallback) do not appear in r.degraded; surface them
                // and count them toward the degraded exit code.
                any_degraded = true;
                if (r.profileAudit.fileRejected)
                    std::fprintf(
                        stderr, "profile: %s/%s file rejected (%s)\n",
                        name.c_str(), r.name.c_str(),
                        r.profileAudit.fileStatus.toString().c_str());
                for (const auto &pa : r.profileAudit.procs)
                    std::fprintf(
                        stderr, "profile: %s/%s proc %s %s (%s)\n",
                        name.c_str(), r.name.c_str(),
                        pa.procName.c_str(),
                        profile::procActionName(pa.action),
                        errorKindName(pa.kind));
            }
            if (print_table)
                std::printf(
                    "%-8s %-4s %12llu %8.3f %9.1f %9.2f %11.2f\n",
                    name.c_str(), r.name.c_str(),
                    (unsigned long long)r.test.cycles,
                    r.test.icacheAccesses
                        ? 100.0 * double(r.test.icacheMisses) /
                              double(r.test.icacheAccesses)
                        : 0.0,
                    double(r.codeBytes) / 1024.0,
                    r.test.sbAvgBlocksExecuted(),
                    r.test.sbAvgBlocksInSuperblock());
            if (!json_file.empty())
                report_runs.push_back({name, std::move(r)});
        }
    }

    if (need_registry) {
        // Process gauges, read once every run is over.
        struct rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        registry.setGauge("run.peakRssKb", double(ru.ru_maxrss));
        registry.setGauge("run.minorFaults", double(ru.ru_minflt));
    }
    if (want_stats) {
        // `--json -` owns stdout, so the text dump moves to stderr.
        FILE *out = print_table ? stdout : stderr;
        std::fprintf(out, "\nstat registry (%zu stats)\n",
                     registry.size());
        std::fputs(registry.toText().c_str(), out);
    }
    if (!trace_file.empty()) {
        if (!trace.writeFile(trace_file))
            fatal("cannot write trace file '%s'", trace_file.c_str());
        std::fprintf(stderr, "wrote %zu trace events to %s\n",
                     trace.events().size(), trace_file.c_str());
    }
    if (!json_file.empty()) {
        if (!pipeline::writeReportFile(json_file, report_runs,
                                       need_registry ? &registry
                                                     : nullptr))
            fatal("cannot write JSON report '%s'", json_file.c_str());
        if (json_file != "-")
            std::fprintf(stderr, "wrote %zu runs to %s\n",
                         report_runs.size(), json_file.c_str());
    }
    return any_degraded ? 2 : 0;
}
