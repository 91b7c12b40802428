/**
 * @file
 * Crash-isolated differential fuzzer over generated workloads.
 *
 * Sweep mode (the default) generates one workload per seed and runs it
 * through the differential/metamorphic oracle (gen/oracle.hpp) — each
 * seed in a forked child process re-exec'ing this binary, so a
 * pipeline crash, panic, or hang is a classified finding instead of
 * the end of the sweep.  On a failure the driver delta-reduces the
 * spec (gen/reduce.hpp), probing candidates through the same child
 * protocol, and writes the minimal spec to the corpus directory; the
 * one-line spec replays with --replay.
 *
 * Progress is journaled (support/journal.hpp): one CRC'd JSONL line
 * per seed, fsync'd, so a killed sweep is auditable after the fact.
 *
 * Examples:
 *   pathsched_fuzz --count 1000 --jobs 4
 *   pathsched_fuzz --spec "stores=0.3,loads=0.3,branch=tttf" --count 50
 *   pathsched_fuzz --replay 'seed=7,procs=2,drop=p1'
 *   pathsched_fuzz --replay tests/corpus/compact-memdep.spec
 *   pathsched_fuzz --print-ir 'seed=7'
 *
 * Exit codes: 0 = clean sweep / clean replay, 1 = user error,
 * 2 = findings (sweep or replay), 3 = internal error.
 * Child mode (--one) exits 0 clean, 10 with findings; anything else is
 * classified as a crash by the parent.
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "gen/generator.hpp"
#include "gen/oracle.hpp"
#include "gen/reduce.hpp"
#include "ir/printer.hpp"
#include "obs/json.hpp"
#include "pipeline/backend.hpp"
#include "support/journal.hpp"
#include "support/logging.hpp"
#include "support/strutil.hpp"
#include "support/vio.hpp"

using namespace pathsched;

namespace {

void
usage()
{
    std::printf(
        "usage: pathsched_fuzz [options]\n"
        "sweep mode (default):\n"
        "  --count N           seeds to sweep (default $PATHSCHED_"
        "FUZZ_COUNT or 200)\n"
        "  --seed-base N       first seed (default 1)\n"
        "  --spec KNOBS        base spec; the sweep overrides seed=\n"
        "  --jobs N            concurrent child processes (default 1)\n"
        "  --timeout-ms N      per-seed child deadline (default 120000)\n"
        "  --journal FILE      JSONL journal (default fuzz_journal."
        "jsonl)\n"
        "  --corpus-dir DIR    reduced failing specs land here\n"
        "                      (default fuzz_failures)\n"
        "  --keep-going        keep sweeping after a failure\n"
        "  --max-reduce N      failures to reduce (default 1)\n"
        "  --reduce-probes N   reduction probe budget (default 300)\n"
        "  --no-reduce         skip delta reduction\n"
        "  --no-meta           skip metamorphic checks\n"
        "  --configs LIST      comma list of registered backends\n");
    std::printf("                      (%s)\n",
                pipeline::backendNames(",").c_str());
    std::printf(
        "                      (default all)\n"
        "  --threads N         pipeline worker threads per run\n"
        "other modes:\n"
        "  --one SPEC          check one spec in-process (child mode;\n"
        "                      exit 0 clean, 10 findings)\n"
        "  --result-file FILE  where --one writes classification +\n"
        "                      report\n"
        "  --replay SPEC|FILE  re-run one spec (or corpus file) with a\n"
        "                      full report; exit 0 clean, 2 findings\n"
        "  --print-ir SPEC     print the canonical spec, step bound and\n"
        "                      generated IR, then exit\n"
        "\n"
        "exit codes: 0 clean; 1 user error; 2 findings; 3 internal\n");
}

std::string
selfExe(const char *argv0)
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

gen::GenSpec
parseSpecOrDie(const std::string &text)
{
    gen::GenSpec spec;
    std::string err;
    if (!gen::GenSpec::parse(text, spec, err))
        fatal("bad spec '%s': %s", text.c_str(), err.c_str());
    return spec;
}

/**
 * Read a spec from @p arg: a file whose first non-comment line is the
 * spec, or literal spec text.  Corpus files may carry '#' comment
 * lines (e.g. "# mutation: compact-drop-memdep").
 */
std::string
specTextFrom(const std::string &arg)
{
    std::ifstream in(arg);
    if (!in)
        return arg;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '#')
            return line;
    }
    fatal("no spec line in '%s'", arg.c_str());
}

/** Outcome of one crash-isolated child check. */
struct ChildResult
{
    bool clean = false;
    std::string klass; ///< "" when clean
};

/** Everything a child invocation needs to mirror the parent's oracle. */
struct ChildConfig
{
    std::string exe;
    std::string configsArg; ///< "" = all
    unsigned threads = 1;
    bool meta = true;
    uint64_t timeoutMs = 120'000;
    std::string tmpDir;
};

/** One in-flight child process checking one spec. */
struct Child
{
    pid_t pid = -1;
    uint64_t seed = 0;
    std::string resultFile;
};

/** Fork/exec this binary in --one mode for @p spec (non-blocking). */
Child
spawnChild(const ChildConfig &cc, const gen::GenSpec &spec)
{
    Child ch;
    ch.seed = spec.seed;
    ch.resultFile =
        strfmt("%s/one-%d-%llu.txt", cc.tmpDir.c_str(),
               int(::getpid()), (unsigned long long)spec.seed);
    std::vector<std::string> args = {cc.exe,
                                     "--one",
                                     spec.toString(),
                                     "--result-file",
                                     ch.resultFile,
                                     "--threads",
                                     std::to_string(cc.threads)};
    if (!cc.configsArg.empty()) {
        args.push_back("--configs");
        args.push_back(cc.configsArg);
    }
    if (!cc.meta)
        args.push_back("--no-meta");

    ch.pid = ::fork();
    if (ch.pid < 0)
        fatal("fork: %s", std::strerror(errno));
    if (ch.pid == 0) {
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execv(cc.exe.c_str(), argv.data());
        _exit(127);
    }
    return ch;
}

/** Wait for @p ch (bounded by the timeout) and classify the outcome:
 *  clean, an oracle classification, or timeout/signal:N/exit:N. */
ChildResult
reapChild(const Child &ch, uint64_t timeout_ms)
{
    int status = 0;
    bool reaped = false;
    const uint64_t polls = timeout_ms / 10 + 1;
    for (uint64_t p = 0; p < polls; ++p) {
        if (::waitpid(ch.pid, &status, WNOHANG) == ch.pid) {
            reaped = true;
            break;
        }
        ::usleep(10'000);
    }
    if (!reaped) {
        ::kill(ch.pid, SIGKILL);
        ::waitpid(ch.pid, &status, 0);
    }

    ChildResult out;
    if (!reaped) {
        out.klass = "timeout";
    } else if (WIFSIGNALED(status)) {
        out.klass = strfmt("signal:%d", WTERMSIG(status));
    } else {
        const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        if (code == 0) {
            out.clean = true;
        } else if (code == 10) {
            std::string first;
            std::ifstream in(ch.resultFile);
            if (in)
                std::getline(in, first);
            out.klass = first.empty() ? "unclassified" : first;
        } else {
            out.klass = strfmt("exit:%d", code);
        }
    }
    ::unlink(ch.resultFile.c_str());
    return out;
}

ChildResult
runChild(const ChildConfig &cc, const gen::GenSpec &spec)
{
    return reapChild(spawnChild(cc, spec), cc.timeoutMs);
}

/** Child mode: run the oracle in-process and report through the
 *  result file.  Findings exit 10 so the parent can tell "oracle
 *  violation" from "pipeline crash" (any other non-zero). */
int
runOne(const gen::GenSpec &spec, const gen::OracleOptions &oopts,
       const std::string &result_file)
{
    const gen::OracleResult res = gen::checkSpec(spec, oopts);
    if (!result_file.empty()) {
        std::ofstream out(result_file);
        out << res.classification() << "\n" << res.report();
    }
    return res.ok() ? 0 : 10;
}

int
runReplay(const std::string &arg, const gen::OracleOptions &oopts)
{
    const gen::GenSpec spec = parseSpecOrDie(specTextFrom(arg));
    const gen::Workload w = gen::generate(spec);
    const gen::OracleResult res = gen::checkWorkload(w, oopts);
    std::printf("spec: %s\n", w.spec.toString().c_str());
    std::printf("procs: %u live, step bound %llu, ref ops %llu\n",
                gen::liveProcCount(w.spec),
                (unsigned long long)w.stepBound,
                (unsigned long long)res.refDynInstrs);
    if (res.ok()) {
        std::printf("oracle: clean\n");
        return 0;
    }
    std::printf("oracle: %zu finding(s), class %s\n%s",
                res.findings.size(), res.classification().c_str(),
                res.report().c_str());
    return 2;
}

int
runPrintIr(const std::string &text)
{
    const gen::Workload w = gen::generate(parseSpecOrDie(text));
    std::printf("spec: %s\n", w.spec.toString().c_str());
    std::printf("step-bound: %llu trip-shift: %u call-quota: %s\n",
                (unsigned long long)w.stepBound, w.tripShift,
                w.callQuota == UINT32_MAX
                    ? "none"
                    : std::to_string(w.callQuota).c_str());
    std::fputs(ir::toString(w.program).c_str(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setPanicExitCode(3);

    uint64_t count = 200;
    if (const char *env = std::getenv("PATHSCHED_FUZZ_COUNT");
        env != nullptr && *env != '\0')
        count = flagU64("PATHSCHED_FUZZ_COUNT", env);
    uint64_t seed_base = 1;
    std::string base_spec_text;
    unsigned jobs = 1;
    uint64_t timeout_ms = 120'000;
    std::string journal_path = "fuzz_journal.jsonl";
    std::string corpus_dir = "fuzz_failures";
    bool keep_going = false;
    uint64_t max_reduce = 1;
    uint32_t reduce_probes = 300;
    bool reduce = true;
    bool meta = true;
    std::string configs_arg;
    unsigned threads = 1;
    std::string one_spec;
    std::string result_file;
    std::string replay_arg;
    std::string print_ir_arg;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("option %s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--count") {
            count = flagU64("--count", next());
        } else if (arg == "--seed-base") {
            seed_base = flagU64("--seed-base", next());
        } else if (arg == "--spec") {
            base_spec_text = next();
        } else if (arg == "--jobs") {
            jobs = unsigned(flagU64("--jobs", next(), UINT32_MAX));
        } else if (arg == "--timeout-ms") {
            timeout_ms = flagU64("--timeout-ms", next());
        } else if (arg == "--journal") {
            journal_path = next();
        } else if (arg == "--corpus-dir") {
            corpus_dir = next();
        } else if (arg == "--keep-going") {
            keep_going = true;
        } else if (arg == "--max-reduce") {
            max_reduce = flagU64("--max-reduce", next());
        } else if (arg == "--reduce-probes") {
            reduce_probes =
                uint32_t(flagU64("--reduce-probes", next(), UINT32_MAX));
        } else if (arg == "--no-reduce") {
            reduce = false;
        } else if (arg == "--no-meta") {
            meta = false;
        } else if (arg == "--configs") {
            configs_arg = next();
        } else if (arg == "--threads") {
            threads = unsigned(flagU64("--threads", next(), UINT32_MAX));
        } else if (arg == "--one") {
            one_spec = next();
        } else if (arg == "--result-file") {
            result_file = next();
        } else if (arg == "--replay") {
            replay_arg = next();
        } else if (arg == "--print-ir") {
            print_ir_arg = next();
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown option '%s'", arg.c_str());
        }
    }

    gen::OracleOptions oopts;
    oopts.metamorphic = meta;
    oopts.threads = threads;
    // --configs: a comma list of registered backend names.
    for (size_t pos = 0; !configs_arg.empty() && pos <= configs_arg.size();) {
        size_t end = configs_arg.find(',', pos);
        if (end == std::string::npos)
            end = configs_arg.size();
        const pipeline::BackendDesc *be =
            pipeline::findBackend(configs_arg.substr(pos, end - pos));
        if (be == nullptr)
            fatal("bad --configs '%s'", configs_arg.c_str());
        oopts.configs.push_back(be);
        pos = end + 1;
    }

    if (!print_ir_arg.empty())
        return runPrintIr(print_ir_arg);
    if (!one_spec.empty())
        return runOne(parseSpecOrDie(one_spec), oopts, result_file);
    if (!replay_arg.empty())
        return runReplay(replay_arg, oopts);

    // ---- sweep mode ----
    if (jobs == 0)
        jobs = 1;
    const gen::GenSpec base = base_spec_text.empty()
                                  ? gen::GenSpec()
                                  : parseSpecOrDie(base_spec_text);

    std::error_code ec;
    std::filesystem::create_directories(corpus_dir, ec);
    if (ec)
        fatal("cannot create --corpus-dir '%s': %s", corpus_dir.c_str(),
              ec.message().c_str());

    Vio vio;
    JsonlJournal journal(journal_path, &vio, "fuzz-journal");
    if (Status st = journal.open(); !st.ok())
        fatal("cannot open journal '%s': %s", journal_path.c_str(),
              st.toString().c_str());
    auto jline = [&](const std::string &json) {
        if (Status st = journal.line(json); !st.ok())
            fatal("journal write failed: %s", st.toString().c_str());
    };

    ChildConfig cc;
    cc.exe = selfExe(argv[0]);
    cc.configsArg = configs_arg;
    cc.threads = threads;
    cc.meta = meta;
    cc.timeoutMs = timeout_ms;
    cc.tmpDir = corpus_dir;

    jline(strfmt("{\"event\":\"suite-start\","
                 "\"schema\":\"pathsched.fuzz.v1\",\"count\":%llu,"
                 "\"base\":%llu,\"spec\":\"%s\"}",
                 (unsigned long long)count,
                 (unsigned long long)seed_base,
                 obs::jsonEscape(base.toString()).c_str()));

    struct Failure
    {
        gen::GenSpec spec;
        std::string klass;
    };
    std::vector<Failure> failures;
    uint64_t passed = 0, launched = 0;

    // Batches of `jobs` children; each batch fully reaped (journaled
    // in seed order) before the next launches.  A failure finishes the
    // current batch, then stops the sweep unless --keep-going.
    uint64_t next_seed = seed_base;
    const uint64_t end_seed = seed_base + count;
    bool stop = false;
    while (next_seed < end_seed && !stop) {
        std::vector<Child> batch;
        for (unsigned f = 0; f < jobs && next_seed < end_seed; ++f) {
            gen::GenSpec spec = base;
            spec.seed = next_seed++;
            ++launched;
            batch.push_back(spawnChild(cc, spec));
        }
        for (const Child &ch : batch) {
            const ChildResult r = reapChild(ch, timeout_ms);
            if (r.clean) {
                ++passed;
                jline(strfmt("{\"event\":\"seed\",\"seed\":%llu,"
                             "\"outcome\":\"ok\"}",
                             (unsigned long long)ch.seed));
                continue;
            }
            gen::GenSpec spec = base;
            spec.seed = ch.seed;
            jline(strfmt("{\"event\":\"seed\",\"seed\":%llu,"
                         "\"outcome\":\"fail\",\"class\":\"%s\","
                         "\"spec\":\"%s\"}",
                         (unsigned long long)ch.seed,
                         obs::jsonEscape(r.klass).c_str(),
                         obs::jsonEscape(spec.toString()).c_str()));
            failures.push_back({spec, r.klass});
            if (!keep_going)
                stop = true;
        }
    }

    // Reduce the first --max-reduce failures, each probe in a child.
    uint64_t reduced = 0;
    for (const Failure &f : failures) {
        if (!reduce || reduced >= max_reduce)
            break;
        jline(strfmt("{\"event\":\"reduce-start\",\"seed\":%llu,"
                     "\"class\":\"%s\"}",
                     (unsigned long long)f.spec.seed,
                     obs::jsonEscape(f.klass).c_str()));
        // Probe only the failing configuration, and skip the
        // metamorphic phase unless the finding came from it: same
        // classification at a fraction of the cost.
        ChildConfig rc = cc;
        const size_t colon = f.klass.find(':');
        const std::string cfg =
            colon == std::string::npos ? "" : f.klass.substr(0, colon);
        if (pipeline::findBackend(cfg) != nullptr)
            rc.configsArg = cfg;
        if (f.klass.find(":meta-") == std::string::npos)
            rc.meta = false;
        gen::ReduceStats stats;
        const gen::GenSpec minimal = gen::reduceSpec(
            f.spec,
            [&](const gen::GenSpec &cand) {
                return runChild(rc, cand).klass == f.klass;
            },
            &stats, reduce_probes);
        const std::string file = strfmt("%s/seed-%llu.spec",
                                        corpus_dir.c_str(),
                                        (unsigned long long)f.spec.seed);
        {
            std::ofstream out(file);
            out << minimal.toString() << "\n";
            out << "# class: " << f.klass << "\n";
            if (const char *mut = std::getenv("PATHSCHED_MUTATION");
                mut != nullptr && *mut != '\0')
                out << "# mutation: " << mut << "\n";
        }
        jline(strfmt("{\"event\":\"reduce-done\",\"seed\":%llu,"
                     "\"probes\":%u,\"accepted\":%u,\"live-procs\":%u,"
                     "\"spec\":\"%s\",\"file\":\"%s\"}",
                     (unsigned long long)f.spec.seed, stats.probes,
                     stats.accepted, gen::liveProcCount(minimal),
                     obs::jsonEscape(minimal.toString()).c_str(),
                     obs::jsonEscape(file).c_str()));
        std::fprintf(stderr,
                     "reduced seed %llu (%s) to %u live proc(s): %s\n",
                     (unsigned long long)f.spec.seed, f.klass.c_str(),
                     gen::liveProcCount(minimal),
                     minimal.toString().c_str());
        ++reduced;
    }

    jline(strfmt("{\"event\":\"suite-end\",\"launched\":%llu,"
                 "\"ok\":%llu,\"failed\":%zu,\"reduced\":%llu}",
                 (unsigned long long)launched,
                 (unsigned long long)passed, failures.size(),
                 (unsigned long long)reduced));
    std::printf("fuzz: %llu/%llu seeds clean, %zu failure(s)%s\n",
                (unsigned long long)passed,
                (unsigned long long)launched, failures.size(),
                failures.empty()
                    ? ""
                    : strfmt(", first class %s",
                             failures.front().klass.c_str())
                          .c_str());
    return failures.empty() ? 0 : 2;
}
