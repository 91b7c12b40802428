/**
 * @file
 * pathsched_serve: crash-safe streaming profile-aggregation server
 * (docs/serving.md).
 *
 * Serve mode runs the long-lived aggregation daemon for one workload:
 * clients stream checksummed profile-delta frames over a unix or TCP
 * socket, admitted deltas are fsync'd to a write-ahead log before they
 * become visible, the decayed time-window aggregate rotates on a wall-
 * clock epoch, and the workload is rescheduled when a procedure's
 * hot-path fingerprint moved.
 * SIGTERM/SIGINT stop gracefully (snapshot + status.json); kill -9 at
 * any byte recovers to the exact pre-crash aggregate on restart.
 *
 * Replay mode is the client: it uploads a directory of profile-delta
 * files (sorted by name, seq = position + --seq-base) with ack-aware
 * retry, timeout and exponential backoff, so a corpus can be streamed
 * against a live server — including one being crashed and restarted
 * under it.
 *
 * Examples:
 *   pathsched_serve --listen unix:/tmp/ps.sock --state /tmp/ps-state \
 *       --workload wc --config P4 --epoch-ms 500
 *   pathsched_serve --replay deltas/ --connect unix:/tmp/ps.sock \
 *       --client edge-host-1
 *
 * Exit codes: 0 = clean stop (signal or --max-* reached), 1 = user /
 * configuration error, 2 = replay finished but some deltas were
 * rejected or exhausted retries.
 */

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "pipeline/backend.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "support/logging.hpp"
#include "support/strutil.hpp"
#include "support/vio.hpp"
#include "workloads/workloads.hpp"

using namespace pathsched;

namespace {

void
usage()
{
    std::printf(
        "usage (serve): pathsched_serve --listen ADDR --state DIR\n"
        "               [serve options]\n"
        "usage (replay): pathsched_serve --replay DIR --connect ADDR\n"
        "                --client ID [replay options]\n"
        "\n"
        "ADDR is unix:<path> or tcp:<ipv4>:<port>.\n"
        "\n"
        "serve options:\n"
        "  --workload NAME         workload to schedule (default wc)\n"
        "  --config NAME           any registered backend:\n");
    std::printf("                          %s (default P4)\n",
                pipeline::backendNames("|").c_str());
    std::printf(
        "  --state DIR             WAL + snapshot directory (required)\n"
        "  --epoch-ms N            wall ms per aggregation epoch\n"
        "                          (default 1000)\n"
        "  --windows N             live epochs in the decay window\n"
        "                          (default 8)\n"
        "  --resched-every N       reschedule attempt every N epochs\n"
        "                          (default 1)\n"
        "  --resched-deadline-ms N wall budget per reschedule (0 = none)\n"
        "  --rate-limit N          client deltas per epoch (default 64)\n"
        "  --snapshot-every N      WAL records between snapshots\n"
        "                          (default 256; 0 = only on flush)\n"
        "  --max-deltas N          exit after N accepted deltas (tests)\n"
        "  --max-epochs N          exit after N epochs (tests)\n"
        "  --schedule-out FILE     write the scheduled program blob on\n"
        "                          exit\n"
        "  --status-out FILE       write status JSON on exit (default\n"
        "                          <state>/status.json)\n"
        "  --report-out FILE       also write the v1 pipeline report\n"
        "  --io-inject SPEC        deterministic disk-fault injection\n"
        "                          (docs/robustness.md), e.g.\n"
        "                          path=wal,op=fsync,kind=eio,count=2\n"
        "  --io-inject-seed N      seed for prob= fault selectors\n"
        "\n"
        "replay options:\n"
        "  --client ID             client id ([A-Za-z0-9_-]{1,64})\n"
        "  --kind edge|path        profile kind of the files (default:\n"
        "                          sniff per file header)\n"
        "  --seq-base N            seq of the first file (default 1)\n"
        "  --ack-timeout-ms N      per-ack timeout (default 5000)\n"
        "  --backoff-ms N          first retry backoff (default 50)\n"
        "  --max-attempts N        attempts per delta (default 5)\n"
        "  --tick-every N          send a Tick after every N deltas\n"
        "                          (0 = never)\n"
        "  --flush-at-end          send Flush after the last delta\n"
        "\n"
        "exit codes: 0 clean stop; 1 user error; 2 replay had rejected\n"
        "or undeliverable deltas\n");
}

bool
writeDurableFile(Vio *vio, const char *label, const std::string &path,
                 const std::string &text)
{
    // Temp-file + fsync + rename, like snapshots: a crash mid-write
    // leaves the previous status/report intact, never a torn tail.
    Status st = atomicWriteFile(vio, label, path, text);
    if (!st.ok()) {
        warn("serve: %s", st.toString().c_str());
        return false;
    }
    return true;
}

int
runServe(const std::string &listen, const std::string &stateDir,
         const std::string &workloadName, const std::string &configName,
         serve::ServeOptions sopts, serve::SocketLoopOptions lopts,
         const std::string &scheduleOut, const std::string &statusOut,
         const std::string &reportOut)
{
    serve::Endpoint ep;
    if (Status st = serve::Endpoint::parse(listen, ep); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.toString().c_str());
        return 1;
    }
    const auto names = workloads::benchmarkNames();
    if (std::find(names.begin(), names.end(), workloadName) ==
        names.end()) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     workloadName.c_str());
        return 1;
    }
    sopts.backend = pipeline::findBackend(configName);
    if (sopts.backend == nullptr) {
        std::fprintf(stderr, "unknown config '%s'\n",
                     configName.c_str());
        return 1;
    }

    serve::ServeCore core(workloads::makeByName(workloadName), sopts,
                          stateDir);
    serve::RecoveryInfo dummy;
    (void)dummy;
    if (Status st = core.init(); !st.ok()) {
        std::fprintf(stderr, "recovery failed: %s\n",
                     st.toString().c_str());
        return 1;
    }
    const serve::RecoveryInfo &rec = core.recovery();
    inform("serve: recovered %s: snapshot gen %llu, %llu records "
           "replayed, %llu torn segment(s)",
           stateDir.c_str(), (unsigned long long)rec.snapshotGen,
           (unsigned long long)rec.recordsReplayed,
           (unsigned long long)rec.tornSegments);
    inform("serve: listening on %s (workload %s, config %s)",
           listen.c_str(), workloadName.c_str(), configName.c_str());

    Status st = serve::runSocketLoop(core, ep, lopts);
    if (!st.ok())
        std::fprintf(stderr, "serve loop failed: %s\n",
                     st.toString().c_str());
    // Write the exit outputs even after a degraded stop: status.json's
    // health block is exactly what an operator needs to diagnose it.
    const std::string statusPath =
        statusOut.empty() ? stateDir + "/status.json" : statusOut;
    if (!writeDurableFile(sopts.vio, "status", statusPath,
                          core.statusJson()))
        warn("serve: could not write %s", statusPath.c_str());
    if (!reportOut.empty() &&
        !writeDurableFile(sopts.vio, "status", reportOut,
                          core.reportJson()))
        warn("serve: could not write %s", reportOut.c_str());
    if (!scheduleOut.empty() && !core.writeScheduleBlob(scheduleOut))
        warn("serve: no schedule to write to %s", scheduleOut.c_str());
    return st.ok() ? 0 : 1;
}

int
runReplay(const std::string &dir, const std::string &connect,
          const std::string &clientId, const std::string &kindArg,
          uint64_t seqBase, serve::ClientOptions copts,
          uint64_t tickEvery, bool flushAtEnd)
{
    serve::Endpoint ep;
    if (Status st = serve::Endpoint::parse(connect, ep); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.toString().c_str());
        return 1;
    }
    if (!serve::validClientId(clientId)) {
        std::fprintf(stderr, "invalid --client id '%s'\n",
                     clientId.c_str());
        return 1;
    }

    // The corpus: every regular file, replayed in name order so seq
    // assignment is reproducible across runs.
    std::vector<std::string> files;
    DIR *d = opendir(dir.c_str());
    if (d == nullptr) {
        std::fprintf(stderr, "cannot open --replay dir '%s'\n",
                     dir.c_str());
        return 1;
    }
    while (dirent *e = readdir(d)) {
        const std::string name = e->d_name;
        if (name != "." && name != "..")
            files.push_back(name);
    }
    closedir(d);
    std::sort(files.begin(), files.end());
    if (files.empty()) {
        std::fprintf(stderr, "--replay dir '%s' is empty\n",
                     dir.c_str());
        return 1;
    }

    serve::Client client(ep, clientId, copts);
    uint64_t sent = 0, ok = 0, failed = 0;
    for (const std::string &name : files) {
        std::ifstream f(dir + "/" + name, std::ios::binary);
        if (!f) {
            std::fprintf(stderr, "skipping unreadable %s\n",
                         name.c_str());
            ++failed;
            continue;
        }
        std::stringstream ss;
        ss << f.rdbuf();
        const std::string text = ss.str();
        uint8_t kind;
        if (kindArg == "edge")
            kind = 0;
        else if (kindArg == "path")
            kind = 1;
        else
            kind = text.rfind("pathprofile", 0) == 0 ? 1 : 0;
        const uint64_t seq = seqBase + sent;
        ++sent;
        serve::AckCode ack = serve::AckCode::Error;
        Status st = client.sendDelta(seq, kind, text, &ack);
        if (st.ok()) {
            ++ok;
        } else {
            ++failed;
            std::fprintf(stderr, "delta %s (seq %llu): %s\n",
                         name.c_str(), (unsigned long long)seq,
                         st.toString().c_str());
        }
        if (tickEvery != 0 && sent % tickEvery == 0)
            (void)client.sendTick();
    }
    if (flushAtEnd)
        (void)client.sendFlush();
    inform("replay: %llu sent, %llu admitted/duplicate, %llu failed, "
           "%llu reconnect(s)",
           (unsigned long long)sent, (unsigned long long)ok,
           (unsigned long long)failed,
           (unsigned long long)client.reconnects());
    return failed == 0 ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string listen, stateDir, replayDir, connect, clientId;
    std::string workloadName = "wc", configName = "P4";
    std::string kindArg, scheduleOut, statusOut, reportOut;
    std::string ioInject;
    uint64_t ioInjectSeed = 0;
    uint64_t seqBase = 1, tickEvery = 0;
    bool flushAtEnd = false;
    serve::ServeOptions sopts;
    serve::SocketLoopOptions lopts;
    serve::ClientOptions copts;

    auto needValue = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc)
            fatal("%s requires a value", flag);
        return argv[++i];
    };
    auto needU64 = [&](int &i, const char *flag,
                       uint64_t max = UINT64_MAX) -> uint64_t {
        return flagU64(flag, needValue(i, flag), max);
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--listen") {
            listen = needValue(i, "--listen");
        } else if (arg == "--state") {
            stateDir = needValue(i, "--state");
        } else if (arg == "--workload") {
            workloadName = needValue(i, "--workload");
        } else if (arg == "--config") {
            configName = needValue(i, "--config");
        } else if (arg == "--epoch-ms") {
            lopts.epochMs = needU64(i, "--epoch-ms");
            if (lopts.epochMs == 0)
                fatal("--epoch-ms must be positive");
        } else if (arg == "--windows") {
            const uint64_t w = needU64(i, "--windows");
            if (w == 0 || w > 1024)
                fatal("--windows must be in [1, 1024]");
            sopts.aggregate.windows = uint32_t(w);
        } else if (arg == "--resched-every") {
            sopts.reschedEveryEpochs =
                uint32_t(needU64(i, "--resched-every", UINT32_MAX));
        } else if (arg == "--resched-deadline-ms") {
            sopts.reschedDeadlineMs =
                needU64(i, "--resched-deadline-ms");
        } else if (arg == "--rate-limit") {
            sopts.admission.tokensPerEpoch =
                needU64(i, "--rate-limit");
            // 0 would throttle every delta forever with no hint why.
            if (sopts.admission.tokensPerEpoch == 0)
                fatal("--rate-limit must be positive");
            sopts.admission.maxTokens =
                sopts.admission.tokensPerEpoch * 2;
        } else if (arg == "--snapshot-every") {
            sopts.snapshotEvery = needU64(i, "--snapshot-every");
        } else if (arg == "--max-deltas") {
            lopts.maxDeltas = needU64(i, "--max-deltas");
        } else if (arg == "--max-epochs") {
            lopts.maxEpochs = needU64(i, "--max-epochs");
        } else if (arg == "--schedule-out") {
            scheduleOut = needValue(i, "--schedule-out");
        } else if (arg == "--status-out") {
            statusOut = needValue(i, "--status-out");
        } else if (arg == "--report-out") {
            reportOut = needValue(i, "--report-out");
        } else if (arg == "--io-inject") {
            ioInject = needValue(i, "--io-inject");
        } else if (arg == "--io-inject-seed") {
            ioInjectSeed = needU64(i, "--io-inject-seed");
        } else if (arg == "--replay") {
            replayDir = needValue(i, "--replay");
        } else if (arg == "--connect") {
            connect = needValue(i, "--connect");
        } else if (arg == "--client") {
            clientId = needValue(i, "--client");
        } else if (arg == "--kind") {
            kindArg = needValue(i, "--kind");
            if (kindArg != "edge" && kindArg != "path")
                fatal("--kind wants edge or path");
        } else if (arg == "--seq-base") {
            seqBase = needU64(i, "--seq-base");
        } else if (arg == "--ack-timeout-ms") {
            copts.ackTimeoutMs = needU64(i, "--ack-timeout-ms");
        } else if (arg == "--backoff-ms") {
            copts.backoffMs = needU64(i, "--backoff-ms");
        } else if (arg == "--max-attempts") {
            copts.maxAttempts =
                uint32_t(needU64(i, "--max-attempts", UINT32_MAX));
        } else if (arg == "--tick-every") {
            tickEvery = needU64(i, "--tick-every");
        } else if (arg == "--flush-at-end") {
            flushAtEnd = true;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage();
            return 1;
        }
    }

    const bool serveMode = !listen.empty();
    const bool replayMode = !replayDir.empty();
    if (serveMode == replayMode) {
        std::fprintf(stderr,
                     "pick exactly one of --listen (serve) or "
                     "--replay (client)\n");
        usage();
        return 1;
    }
    if (serveMode) {
        if (stateDir.empty())
            fatal("serve mode requires --state DIR");
        // The injector must outlive the ServeCore inside runServe, so
        // it lives here rather than in the flag loop.
        Vio vio(ioInjectSeed);
        if (!ioInject.empty()) {
            std::string err;
            if (!vio.parseFaults(ioInject, err))
                fatal("bad --io-inject: %s", err.c_str());
            sopts.vio = &vio;
        }
        return runServe(listen, stateDir, workloadName, configName,
                        sopts, lopts, scheduleOut, statusOut,
                        reportOut);
    }
    if (connect.empty() || clientId.empty())
        fatal("replay mode requires --connect ADDR and --client ID");
    return runReplay(replayDir, connect, clientId, kindArg, seqBase,
                     copts, tickEvery, flushAtEnd);
}
