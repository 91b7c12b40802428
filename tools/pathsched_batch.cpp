/**
 * @file
 * Crash-isolated batch driver (docs/batch.md).
 *
 * Runs each (workload x config) task as its own pathsched_cli
 * subprocess, so one wedged or crashing task costs that task, never
 * the suite: a per-task wall-clock timeout kills the child (SIGKILL),
 * failures retry a bounded number of times with doubling backoff, and
 * every task transition is appended to a JSONL journal that is
 * flushed and fsync'd per line.  Killing the *runner* mid-suite loses
 * nothing: rerunning with --resume replays the journal and skips every
 * task that already completed.
 *
 * Examples:
 *   pathsched_batch --workloads wc,cmp --configs BB,P4 --jobs 2
 *   pathsched_batch --task-timeout-ms 60000 --retries 2 \
 *       --journal batch.jsonl --outdir reports -- --icache
 *   pathsched_batch --resume --journal batch.jsonl
 *
 * SIGTERM/SIGINT stop the suite gracefully: running children are
 * killed and reaped, the abort is journaled (flushed + fsync'd, so the
 * journal never ends in a torn line), and the runner exits 4 — a rerun
 * with --resume picks up exactly the unfinished tasks.
 *
 * Journal writes go through the vio seam (support/vio.hpp, label
 * "journal") and every write and fsync result is checked: if the
 * journal itself cannot be made durable, the runner kills its
 * children, best-effort appends a {"event":"suite-abort",
 * "reason":"io-error"} record, and exits 5 — it never keeps running
 * with an unsynced journal tail that a crash would silently lose.
 * The journal stays resumable: --resume re-runs whatever has no
 * durable "done" line.
 *
 * Exit codes: 0 = every task ok, 1 = user/configuration error,
 * 2 = every task completed but some degraded (child exit 2),
 * 3 = at least one task failed permanently (all attempts exhausted),
 * 4 = interrupted by SIGTERM/SIGINT (journal clean; resume to finish),
 * 5 = journal I/O failure (suite aborted; resume to finish).
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "pipeline/backend.hpp"
#include "support/journal.hpp"
#include "support/logging.hpp"
#include "support/strutil.hpp"
#include "support/vio.hpp"
#include "workloads/workloads.hpp"

using namespace pathsched;

namespace {

using Clock = std::chrono::steady_clock;

const char kJournalSchema[] = "pathsched.batch.v1";

void
usage()
{
    std::printf(
        "usage: pathsched_batch [options] [-- cli-args...]\n"
        "  --cli PATH              pathsched_cli binary (default: next\n"
        "                          to this executable)\n"
        "  --workloads A,B|all     workloads to run (default: all)\n"
        "  --configs A,B|all       configs to run (default: all)\n"
        "  --jobs N                concurrent tasks (default 1)\n"
        "  --task-timeout-ms N     kill a task after N ms (0 = never)\n"
        "  --retries N             extra attempts per failed task\n"
        "                          (default 0)\n"
        "  --backoff-ms N          first retry delay, doubling per\n"
        "                          attempt (default 100)\n"
        "  --journal FILE          JSONL journal (default\n"
        "                          batch_journal.jsonl)\n"
        "  --resume                skip tasks the journal already shows\n"
        "                          completed (ok or degraded)\n"
        "  --outdir DIR            write each task's JSON report to\n"
        "                          DIR/<workload>_<config>.json\n"
        "  --io-inject SPEC        deterministic disk-fault injection\n"
        "                          on the journal (docs/robustness.md)\n"
        "  --io-inject-seed N      seed for prob= fault selectors\n"
        "  everything after '--' is passed through to pathsched_cli\n"
        "\n"
        "exit codes: 0 all ok; 1 user error; 2 completed with\n"
        "degradations; 3 at least one task failed permanently;\n"
        "4 interrupted (SIGTERM/SIGINT; rerun with --resume);\n"
        "5 journal I/O failure (rerun with --resume)\n");
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/** One (workload, config) unit of work. */
struct Task
{
    std::string workload;
    std::string config;
    int attempts = 0;       ///< attempts started so far
    bool done = false;
    bool skipped = false;   ///< completed in a previous run (--resume)
    std::string outcome = ""; ///< "ok", "degraded", "failed", "timeout",
                              ///< "crashed"
    Clock::time_point notBefore = Clock::time_point::min();

    std::string name() const { return workload + "/" + config; }
};

/** A live child process. */
struct Running
{
    pid_t pid = -1;
    size_t taskIdx = 0;
    Clock::time_point start;
    bool killed = false; ///< we timed it out with SIGKILL
};

uint64_t
epochSeconds()
{
    return uint64_t(time(nullptr));
}

/** Set by the SIGTERM/SIGINT handler; the scheduler loop polls it. */
volatile sig_atomic_t g_stop_signal = 0;

extern "C" void
onStopSignal(int sig)
{
    g_stop_signal = sig;
}

/** Install @p handler for SIGTERM and SIGINT (no SA_RESTART, so the
 *  scheduler's usleep wakes immediately). */
void
installStopHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = onStopSignal;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
}

/** Tasks whose most recent "done" event completed (ok or degraded).
 *  Lines failing their CRC (torn writes) are skipped and counted in
 *  @p corrupt_lines rather than trusted or fatal. */
std::map<std::string, std::string>
completedInJournal(const std::string &path, size_t &corrupt_lines)
{
    std::map<std::string, std::string> last; // task -> last done outcome
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (!crcLineOk(line)) {
            ++corrupt_lines;
            std::fprintf(stderr,
                         "journal: skipping corrupt line (%zu bytes): "
                         "%.40s...\n",
                         line.size(), line.c_str());
            continue;
        }
        obs::JsonValue ev;
        if (!obs::JsonValue::parse(line, ev))
            continue;
        auto field = [&](const char *key) -> std::string {
            const obs::JsonValue *v = ev.find(key);
            return v != nullptr ? v->asString() : "";
        };
        if (field("event") == "done" && !field("task").empty() &&
            !field("outcome").empty())
            last[field("task")] = field("outcome");
    }
    std::map<std::string, std::string> completed;
    for (const auto &[task, outcome] : last) {
        if (outcome == "ok" || outcome == "degraded")
            completed[task] = outcome;
    }
    return completed;
}

/** Directory of argv[0], for the default --cli path. */
std::string
siblingCli(const char *argv0)
{
    std::string s(argv0);
    const size_t slash = s.rfind('/');
    if (slash == std::string::npos)
        return "pathsched_cli";
    return s.substr(0, slash + 1) + "pathsched_cli";
}

pid_t
spawnTask(const std::string &cli, const Task &t,
          const std::string &outdir,
          const std::vector<std::string> &passthrough)
{
    std::vector<std::string> args = {cli, "--workload", t.workload,
                                     "--config", t.config};
    if (!outdir.empty()) {
        args.push_back("--json");
        args.push_back(outdir + "/" + t.workload + "_" + t.config +
                       ".json");
    }
    for (const auto &a : passthrough)
        args.push_back(a);

    const pid_t pid = fork();
    if (pid < 0)
        fatal("fork failed: %s", std::strerror(errno));
    if (pid == 0) {
        // Child: keep stderr for diagnostics, drop the table on stdout
        // (per-task results live in the journal and --outdir reports).
        const int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
            dup2(devnull, STDOUT_FILENO);
            ::close(devnull);
        }
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        execv(argv[0], argv.data());
        std::fprintf(stderr, "exec %s failed: %s\n", argv[0],
                     std::strerror(errno));
        _exit(127);
    }
    return pid;
}

} // namespace

int
main(int argc, char **argv)
{
    setPanicExitCode(3);

    std::string cli = siblingCli(argv[0]);
    std::string workloads_arg = "all";
    std::string configs_arg = "all";
    std::string journal_path = "batch_journal.jsonl";
    std::string outdir;
    uint64_t task_timeout_ms = 0;
    int jobs = 1;
    int retries = 0;
    uint64_t backoff_ms = 100;
    bool resume = false;
    std::string io_inject;
    uint64_t io_inject_seed = 0;
    std::vector<std::string> passthrough;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("option %s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--cli") {
            cli = next();
        } else if (arg == "--workloads") {
            workloads_arg = next();
        } else if (arg == "--configs") {
            configs_arg = next();
        } else if (arg == "--jobs") {
            jobs = int(flagU64("--jobs", next(), INT_MAX));
            if (jobs < 1)
                fatal("--jobs must be >= 1");
        } else if (arg == "--task-timeout-ms") {
            task_timeout_ms = flagU64("--task-timeout-ms", next());
        } else if (arg == "--retries") {
            retries = int(flagU64("--retries", next(), INT_MAX - 1));
        } else if (arg == "--backoff-ms") {
            backoff_ms = flagU64("--backoff-ms", next());
        } else if (arg == "--journal") {
            journal_path = next();
        } else if (arg == "--resume") {
            resume = true;
        } else if (arg == "--outdir") {
            outdir = next();
        } else if (arg == "--io-inject") {
            io_inject = next();
        } else if (arg == "--io-inject-seed") {
            io_inject_seed = flagU64("--io-inject-seed", next());
        } else if (arg == "--") {
            for (++i; i < argc; ++i)
                passthrough.push_back(argv[i]);
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown option '%s'", arg.c_str());
        }
    }

    std::vector<std::string> workload_names =
        workloads_arg == "all" ? workloads::benchmarkNames()
                               : splitList(workloads_arg);
    std::vector<std::string> config_names;
    if (configs_arg == "all") {
        // The registry is the one source of truth for the sweep: a
        // newly registered backend joins "all" with no edit here.
        for (const pipeline::BackendDesc *be : pipeline::allBackends())
            config_names.push_back(be->name);
    } else {
        config_names = splitList(configs_arg);
    }
    if (workload_names.empty() || config_names.empty())
        fatal("empty workload or config list");
    if (access(cli.c_str(), X_OK) != 0)
        fatal("pathsched_cli not executable at '%s' (use --cli)",
              cli.c_str());
    if (!outdir.empty() && mkdir(outdir.c_str(), 0777) != 0 &&
        errno != EEXIST)
        fatal("cannot create --outdir '%s': %s", outdir.c_str(),
              std::strerror(errno));

    std::vector<Task> tasks;
    for (const auto &w : workload_names)
        for (const auto &c : config_names)
            tasks.push_back({w, c});

    // --resume: tasks the journal already shows completed keep their
    // recorded outcome and are not re-executed.
    size_t skipped = 0;
    size_t corrupt_lines = 0;
    if (resume) {
        const auto completed =
            completedInJournal(journal_path, corrupt_lines);
        for (auto &t : tasks) {
            const auto it = completed.find(t.name());
            if (it != completed.end()) {
                t.done = true;
                t.skipped = true;
                t.outcome = it->second;
                ++skipped;
            }
        }
    }

    Vio vio(io_inject_seed);
    if (!io_inject.empty()) {
        std::string err;
        if (!vio.parseFaults(io_inject, err))
            fatal("bad --io-inject: %s", err.c_str());
    }

    JsonlJournal journal(journal_path, &vio);
    if (Status st = journal.open(); !st.ok())
        fatal("cannot open journal '%s': %s", journal_path.c_str(),
              st.message().c_str());

    const int max_attempts = retries + 1;
    std::vector<Running> running;
    installStopHandlers();

    // A journal line that cannot be made durable ends the suite: the
    // runner must never keep spawning work whose transitions a crash
    // would silently lose.  Kill and reap the children, best-effort
    // journal the reason (the fault may be transient or injected with
    // a count), and exit with the distinct code.  The journal stays
    // resumable — whatever has no durable "done" re-runs.
    auto journalWrite = [&](const std::string &json) {
        Status st = journal.line(json);
        if (st.ok())
            return;
        for (const auto &r : running)
            kill(r.pid, SIGKILL);
        for (const auto &r : running) {
            int wstatus = 0;
            waitpid(r.pid, &wstatus, 0);
        }
        size_t pending = 0;
        for (const auto &t : tasks)
            if (!t.done)
                ++pending;
        (void)journal.line(strfmt(
            "{\"event\":\"suite-abort\",\"reason\":\"io-error\","
            "\"error\":\"%s\",\"ts\":%llu,\"killed\":%zu,"
            "\"pending\":%zu}",
            obs::jsonEscape(st.toString()).c_str(),
            (unsigned long long)epochSeconds(), running.size(),
            pending));
        std::fprintf(stderr,
                     "journal write failed: %s; killed %zu task(s), "
                     "%zu pending; rerun with --resume\n",
                     st.toString().c_str(), running.size(), pending);
        std::exit(5);
    };

    journalWrite(strfmt("{\"schema\":\"%s\",\"event\":\"suite-start\","
                        "\"ts\":%llu,\"tasks\":%zu,\"skipped\":%zu,"
                        "\"resume\":%s,\"journalCorrupt\":%zu}",
                        kJournalSchema,
                        (unsigned long long)epochSeconds(), tasks.size(),
                        skipped, resume ? "true" : "false",
                        corrupt_lines));
    if (corrupt_lines > 0)
        std::fprintf(stderr,
                     "journal: %zu corrupt line(s) skipped during "
                     "resume; affected tasks will re-run\n",
                     corrupt_lines);

    auto launch = [&](size_t idx) {
        Task &t = tasks[idx];
        ++t.attempts;
        journalWrite(strfmt(
            "{\"event\":\"start\",\"task\":\"%s\",\"attempt\":%d,"
            "\"ts\":%llu}",
            obs::jsonEscape(t.name()).c_str(), t.attempts,
            (unsigned long long)epochSeconds()));
        Running r;
        r.pid = spawnTask(cli, t, outdir, passthrough);
        r.taskIdx = idx;
        r.start = Clock::now();
        running.push_back(r);
    };

    auto allDone = [&]() {
        for (const auto &t : tasks)
            if (!t.done)
                return false;
        return true;
    };

    while (!allDone() && g_stop_signal == 0) {
        // Fill free job slots with runnable tasks (unstarted, or past
        // their retry backoff).
        while (int(running.size()) < jobs && g_stop_signal == 0) {
            size_t pick = SIZE_MAX;
            const auto now = Clock::now();
            for (size_t i = 0; i < tasks.size(); ++i) {
                Task &t = tasks[i];
                bool is_running = false;
                for (const auto &r : running)
                    if (r.taskIdx == i)
                        is_running = true;
                if (t.done || is_running || t.notBefore > now)
                    continue;
                pick = i;
                break;
            }
            if (pick == SIZE_MAX)
                break;
            launch(pick);
        }

        // Reap exits and enforce the per-task timeout.
        bool reaped = false;
        for (size_t i = 0; i < running.size();) {
            Running &r = running[i];
            Task &t = tasks[r.taskIdx];
            int wstatus = 0;
            const pid_t got = waitpid(r.pid, &wstatus, WNOHANG);
            if (got == 0) {
                if (task_timeout_ms != 0 && !r.killed &&
                    Clock::now() - r.start >
                        std::chrono::milliseconds(task_timeout_ms)) {
                    // Hard kill: the child may be wedged, so no grace.
                    kill(r.pid, SIGKILL);
                    r.killed = true;
                }
                ++i;
                continue;
            }
            reaped = true;
            const double ms =
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          r.start)
                    .count();
            std::string outcome;
            int exit_code = -1;
            if (r.killed) {
                outcome = "timeout";
            } else if (WIFEXITED(wstatus)) {
                exit_code = WEXITSTATUS(wstatus);
                outcome = exit_code == 0   ? "ok"
                          : exit_code == 2 ? "degraded"
                                           : "failed";
            } else {
                outcome = "crashed"; // killed by a signal, not by us
            }
            journalWrite(strfmt(
                "{\"event\":\"done\",\"task\":\"%s\",\"attempt\":%d,"
                "\"outcome\":\"%s\",\"exit\":%d,\"ms\":%.1f,"
                "\"ts\":%llu}",
                obs::jsonEscape(t.name()).c_str(), t.attempts,
                outcome.c_str(), exit_code, ms,
                (unsigned long long)epochSeconds()));

            const bool success =
                outcome == "ok" || outcome == "degraded";
            if (success || t.attempts >= max_attempts) {
                t.done = true;
                t.outcome = outcome;
                std::printf("%-16s %-8s attempt %d/%d (%.0f ms)\n",
                            t.name().c_str(), outcome.c_str(),
                            t.attempts, max_attempts, ms);
            } else {
                // Doubling backoff before the next attempt.
                const uint64_t delay =
                    backoff_ms << (unsigned(t.attempts) - 1);
                t.notBefore = Clock::now() +
                              std::chrono::milliseconds(delay);
                std::fprintf(stderr,
                             "%s: attempt %d/%d %s; retrying in "
                             "%llu ms\n",
                             t.name().c_str(), t.attempts, max_attempts,
                             outcome.c_str(),
                             (unsigned long long)delay);
            }
            running[i] = running.back();
            running.pop_back();
        }
        if (!reaped)
            usleep(2000);
    }

    if (g_stop_signal != 0) {
        // Graceful abort: kill and reap every live child, journal the
        // abort (line() flushes and fsyncs, so the journal cannot end
        // torn), and exit with the distinct interrupted code.  --resume
        // later re-runs exactly the tasks with no completed "done".
        for (const auto &r : running)
            kill(r.pid, SIGKILL);
        for (const auto &r : running) {
            int wstatus = 0;
            waitpid(r.pid, &wstatus, 0);
            journalWrite(strfmt(
                "{\"event\":\"done\",\"task\":\"%s\",\"attempt\":%d,"
                "\"outcome\":\"aborted\",\"exit\":-1,\"ts\":%llu}",
                obs::jsonEscape(tasks[r.taskIdx].name()).c_str(),
                tasks[r.taskIdx].attempts,
                (unsigned long long)epochSeconds()));
        }
        size_t pending = 0;
        for (const auto &t : tasks)
            if (!t.done)
                ++pending;
        journalWrite(strfmt(
            "{\"event\":\"suite-abort\",\"signal\":%d,\"ts\":%llu,"
            "\"killed\":%zu,\"pending\":%zu}",
            int(g_stop_signal), (unsigned long long)epochSeconds(),
            running.size(), pending));
        std::fprintf(stderr,
                     "interrupted by signal %d: killed %zu task(s), "
                     "%zu pending; rerun with --resume\n",
                     int(g_stop_signal), running.size(), pending);
        return 4;
    }

    size_t n_ok = 0, n_degraded = 0, n_failed = 0;
    for (const auto &t : tasks) {
        if (t.outcome == "ok")
            ++n_ok;
        else if (t.outcome == "degraded")
            ++n_degraded;
        else
            ++n_failed;
    }
    journalWrite(strfmt(
        "{\"event\":\"suite-end\",\"ts\":%llu,\"ok\":%zu,"
        "\"degraded\":%zu,\"failed\":%zu,\"skipped\":%zu}",
        (unsigned long long)epochSeconds(), n_ok, n_degraded, n_failed,
        skipped));
    std::printf("suite: %zu ok, %zu degraded, %zu failed "
                "(%zu resumed from journal)\n",
                n_ok, n_degraded, n_failed, skipped);

    if (n_failed > 0)
        return 3;
    if (n_degraded > 0)
        return 2;
    return 0;
}
