/**
 * @file
 * Aggregation-server robustness benchmark: a simulated noisy fleet
 * driven through the transport-free ServeCore, written to
 * BENCH_serve.json.
 *
 * The fleet misbehaves the way real profile shippers do:
 *
 *  - duplicate uploads (blind resends after reconnects),
 *  - reconnect storms (fresh connection + Hello per delta for some
 *    clients),
 *  - stale CFGs (a flipped fingerprint digit in the v2 header),
 *  - garbage payloads (not a profile at all),
 *  - torn frames (the byte stream is cut mid-frame; the socket-layer
 *    FrameDecoder must surface only intact frames and flag the tear),
 *  - one spammy client that exceeds its per-epoch token budget.
 *
 * Mid-stream the profile distribution shifts (train -> test input), so
 * the hot-path fingerprints move exactly once and the bench can report
 * the reschedule ratio: runs over attempts, where every unmoved epoch
 * is gated off.
 *
 * The run ends with a simulated kill -9: the core is destroyed with no
 * shutdown and a fresh one recovers from the WAL.  Recovery wall time
 * and bit-identity of the recovered aggregate are part of the report —
 * those are the numbers the durability design pays for.
 */

#include <sys/stat.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "interp/interpreter.hpp"
#include "profile/path_profile.hpp"
#include "profile/serialize.hpp"
#include "serve/server.hpp"
#include "serve/wal.hpp"
#include "serve/wire.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/vio.hpp"

using namespace pathsched;
using namespace pathsched::serve;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

std::string
pathProfileText(const workloads::Workload &w,
                const interp::ProgramInput &input)
{
    profile::PathProfiler pp(w.program, profile::PathProfileParams{});
    interp::Interpreter interp(w.program);
    interp.addListener(&pp);
    interp.run(input);
    return profile::toTextV2(pp, w.program);
}

/** Flip one fingerprint hex digit: a stale-CFG upload. */
std::string
staleVariant(std::string text)
{
    const size_t fp = text.find("fingerprint");
    ps_assert(fp != std::string::npos);
    const size_t digit = text.find_first_of("0123456789abcdef", fp + 12);
    ps_assert(digit != std::string::npos);
    text[digit] = text[digit] == '0' ? '1' : '0';
    return text;
}

/**
 * One client's view of the server: every message goes through a real
 * frame encode, an optional mid-frame tear, and a FrameDecoder — the
 * same trust boundary the socket layer enforces — before the payload
 * reaches the core.
 */
struct SimClient
{
    std::string id;
    uint64_t seq = 0;
    uint64_t conn = 0;
    bool reconnectStorm = false;

    std::string
    connKey() const
    {
        return id + "/conn-" + std::to_string(conn);
    }
};

struct FleetCounters
{
    uint64_t framesSent = 0;
    uint64_t tornFrames = 0;
    uint64_t admitted = 0;
    uint64_t duplicates = 0;
    uint64_t throttled = 0;
    uint64_t rejected = 0;
    uint64_t quarantined = 0;
    uint64_t errors = 0;
    uint64_t unavailable = 0;
    uint64_t reconnects = 0;
};

/** Deliver one payload through frame+decoder to the core; a torn
 *  delivery never reaches the core and forces a reconnect+resend. */
AckCode
deliver(ServeCore &core, SimClient &c, const std::string &payload,
        bool tear, FleetCounters &fc)
{
    for (;;) {
        std::string stream;
        appendFrame(stream, encodeHello(c.id));
        appendFrame(stream, payload);
        if (tear) {
            // Cut mid-frame: the decoder must hold back the partial
            // frame; the client times out and reconnects.
            stream.resize(stream.size() - 1 - stream.size() % 7);
            ++fc.tornFrames;
        }
        FrameDecoder dec;
        dec.feed(stream.data(), stream.size());

        AckCode last = AckCode::Error;
        bool sawAck = false;
        std::string frame;
        bool drop = false;
        while (dec.next(frame) == FrameDecoder::Result::Frame) {
            ++fc.framesSent;
            const auto resp = core.handleFrame(c.connKey(), frame, drop);
            for (const auto &r : resp) {
                Message m;
                if (decodeMessage(r, m).ok() && m.type == MsgType::Ack) {
                    last = m.ack;
                    sawAck = true;
                }
            }
        }
        if (sawAck && !tear)
            return last;
        // Torn (or unacked) delivery: reconnect and blindly resend the
        // complete stream — the seq cursor absorbs any duplicate.
        core.dropConnection(c.connKey());
        ++c.conn;
        ++fc.reconnects;
        tear = false;
    }
}

void
count(AckCode code, FleetCounters &fc)
{
    switch (code) {
    case AckCode::Accepted: ++fc.admitted; break;
    case AckCode::Duplicate: ++fc.duplicates; break;
    case AckCode::Throttled: ++fc.throttled; break;
    case AckCode::Quarantined: ++fc.quarantined; break;
    case AckCode::Rejected: ++fc.rejected; break;
    case AckCode::Error: ++fc.errors; break;
    case AckCode::Unavailable: ++fc.unavailable; break;
    }
}

/** Read a whole file (binary); empty on failure. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string out((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    return out;
}

uint64_t
fileSize(const std::string &path)
{
    struct stat sb;
    if (::stat(path.c_str(), &sb) != 0)
        panic("stat %s failed", path.c_str());
    return uint64_t(sb.st_size);
}

} // namespace

int
main()
{
    const auto w = workloads::makeByName("wc");
    const std::string trainText = pathProfileText(w, w.train);
    const std::string testText = pathProfileText(w, w.test);
    const std::string staleText = staleVariant(trainText);

    const std::string stateDir =
        "/tmp/pathsched_bench_serve_" + std::to_string(::getpid());

    ServeOptions opts;
    opts.aggregate.maxKeysPerBucket = 4096; // bounded-memory cap
    opts.admission.tokensPerEpoch = 6;      // the spammer will hit this
    opts.admission.maxTokens = 8;
    opts.snapshotEvery = 64;

    auto core = std::make_unique<ServeCore>(w, opts, stateDir);
    if (Status st = core->init(); !st.ok())
        panic("serve init failed: %s", st.toString().c_str());

    // A fleet of 6: four honest shards, one stale/garbage shipper,
    // one spammer in a reconnect storm.
    std::vector<SimClient> fleet;
    for (int i = 0; i < 4; ++i)
        fleet.push_back({"shard-" + std::to_string(i)});
    fleet.push_back({"stale-box"});
    fleet.push_back({"spammer"});
    fleet.back().reconnectStorm = true;

    Rng rng(0x5eedba5eULL);
    FleetCounters fc;
    const int kEpochs = 10, kDeltasPerEpoch = 4;

    const auto t0 = Clock::now();
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
        // The traffic distribution shifts halfway: fingerprints move
        // exactly once, so exactly two reschedules should *run*.
        const std::string &honest =
            epoch < kEpochs / 2 ? trainText : testText;
        for (int d = 0; d < kDeltasPerEpoch; ++d) {
            for (auto &c : fleet) {
                const bool spam = c.id == "spammer";
                const bool badbox = c.id == "stale-box";
                const std::string &text =
                    badbox ? (rng.chance(0.5) ? staleText
                                              : std::string("garbage"))
                            : honest;
                // Spammer sends a burst of 3 per slot in a reconnect
                // storm; everyone occasionally resends the last seq.
                const int sends = spam ? 3 : 1;
                for (int s = 0; s < sends; ++s) {
                    const bool dup = c.seq > 0 && rng.chance(0.15);
                    const uint64_t seq = dup ? c.seq : ++c.seq;
                    if (c.reconnectStorm) {
                        core->dropConnection(c.connKey());
                        ++c.conn;
                        ++fc.reconnects;
                    }
                    const AckCode code =
                        deliver(*core, c, encodeDelta(seq, 1, text),
                                rng.chance(0.1), fc);
                    count(code, fc);
                    // A throttled honest seq would be retried next
                    // epoch by a real client; the sim just moves on.
                    if (code == AckCode::Throttled && !dup)
                        --c.seq;
                }
            }
        }
        if (Status st = core->tick(); !st.ok())
            panic("tick failed: %s", st.toString().c_str());
    }
    const double streamMs = msSince(t0);

    const auto &reg = core->stats();
    const uint64_t attempts = reg.counter("serve.resched.attempts");
    const uint64_t runs = reg.counter("serve.resched.runs");
    const uint64_t skipped = reg.counter("serve.resched.skippedUnmoved");
    const uint64_t liveKeys = core->aggregate().liveKeys();
    const uint64_t droppedKeys = core->aggregate().droppedKeys();

    std::printf("fleet: %llu frames, %llu admitted, %llu dup, "
                "%llu throttled, %llu rejected, %llu quarantined, "
                "%llu torn, %llu reconnects (%.0f ms)\n",
                (unsigned long long)fc.framesSent,
                (unsigned long long)fc.admitted,
                (unsigned long long)fc.duplicates,
                (unsigned long long)fc.throttled,
                (unsigned long long)fc.rejected,
                (unsigned long long)fc.quarantined,
                (unsigned long long)fc.tornFrames,
                (unsigned long long)fc.reconnects, streamMs);
    std::printf("resched: %llu attempts, %llu runs, %llu gated off\n",
                (unsigned long long)attempts, (unsigned long long)runs,
                (unsigned long long)skipped);
    std::printf("memory: %llu live keys (cap %llu/bucket), "
                "%llu dropped\n",
                (unsigned long long)liveKeys,
                (unsigned long long)opts.aggregate.maxKeysPerBucket,
                (unsigned long long)droppedKeys);

    // Only moved-fingerprint epochs may actually run the scheduler.
    if (runs + skipped + reg.counter("serve.resched.skippedEmpty")
        != attempts)
        panic("reschedule accounting leak");
    if (runs > 3)
        panic("fingerprint gate leaked: %llu runs for one "
              "distribution shift",
              (unsigned long long)runs);

    // --- warm reschedule: aggregate unchanged -> same schedule. ---
    // A forced run at the current window seeds the schedule, and the
    // rerun over the unchanged aggregate must reproduce it exactly.
    const RescheduleOutcome seed2 = core->attemptReschedule(true);
    if (!seed2.status.ok() || !seed2.ran)
        panic("seed reschedule failed");
    const RescheduleOutcome warm = core->attemptReschedule(true);
    if (!warm.status.ok() || !warm.ran)
        panic("warm reschedule did not run");
    std::printf("warm resched: schedule hash %016llx\n",
                (unsigned long long)warm.scheduleHash);
    if (warm.scheduleHash != seed2.scheduleHash)
        panic("unchanged aggregate rescheduled differently");

    // --- hostile key flood: the per-bucket cap bounds memory. ---
    AggregateOptions floodOpts;
    floodOpts.maxKeysPerBucket = 1000;
    Aggregate flood(floodOpts);
    AdmittedDelta fd;
    fd.clientId = "flood";
    fd.seq = 1;
    for (uint32_t k = 0; k < 10000; ++k)
        fd.edges.push_back({k >> 8, k & 0xff, (k & 0xff) + 1, 1});
    fd.normalize();
    flood.apply(fd);
    std::printf("key flood: %llu live keys (cap %llu), %llu dropped\n",
                (unsigned long long)flood.liveKeys(),
                (unsigned long long)floodOpts.maxKeysPerBucket,
                (unsigned long long)flood.droppedKeys());
    if (flood.liveKeys() > floodOpts.maxKeysPerBucket)
        panic("key cap leaked");

    // --- kill -9: destroy with no shutdown, recover, compare. ---
    const std::string preCrash = core->aggregate().serialize();
    const uint64_t preHash = core->aggregate().contentHash();
    core.reset();

    const auto r0 = Clock::now();
    auto reborn = std::make_unique<ServeCore>(w, opts, stateDir);
    if (Status st = reborn->init(); !st.ok())
        panic("recovery failed: %s", st.toString().c_str());
    const double recoveryMs = msSince(r0);

    const bool identical =
        reborn->aggregate().serialize() == preCrash &&
        reborn->aggregate().contentHash() == preHash;
    std::printf("recovery: %.1f ms, %llu records + %llu epochs "
                "replayed, bit-identical: %s\n",
                recoveryMs,
                (unsigned long long)reborn->recovery().recordsReplayed,
                (unsigned long long)reborn->recovery().epochRecords,
                identical ? "yes" : "NO");
    if (!identical)
        panic("recovered aggregate differs from pre-crash state");

    // --- hostile disk: WAL fsync EIO -> degrade, NACK, recover. ------
    // One injected fsync failure on the first append.  The server must
    // NACK with Unavailable (not ack and lose), serve reads, recover on
    // the next tick once the fault budget is exhausted, and end up
    // bit-identical to a control server that never saw the fault.
    const std::string hdDir = stateDir + "_hd";
    const std::string ctlDir = stateDir + "_ctl";
    Vio hostile;
    {
        std::string err;
        if (!hostile.parseFaults("path=wal,op=fsync,kind=eio,count=1",
                                 err))
            panic("bad fault spec: %s", err.c_str());
    }
    ServeOptions hdOpts = opts;
    hdOpts.vio = &hostile;
    ServeCore hd(w, hdOpts, hdDir);
    ServeCore ctl(w, opts, ctlDir);
    if (Status st = hd.init(); !st.ok())
        panic("hostile-disk init failed: %s", st.toString().c_str());
    if (Status st = ctl.init(); !st.ok())
        panic("control init failed: %s", st.toString().c_str());

    SimClient hc{"hd-client"};
    SimClient cc{"hd-client"}; // same id: identical WAL records
    FleetCounters hfc;
    const std::string hdDelta = encodeDelta(1, 1, trainText);
    if (deliver(hd, hc, hdDelta, false, hfc) != AckCode::Unavailable)
        panic("hostile disk: first delta was not NACK'd Unavailable");
    ++hfc.unavailable;
    if (hd.health() != Health::Degraded)
        panic("hostile disk: server not degraded after WAL failure");
    if (deliver(hd, hc, hdDelta, false, hfc) != AckCode::Unavailable)
        panic("hostile disk: degraded server admitted a delta");
    ++hfc.unavailable;
    // Tick: the reopen retry fires, the fault budget is spent, the
    // server snapshots back to healthy and the epoch advances.
    if (Status st = hd.tick(); !st.ok())
        panic("hostile disk: recovery tick failed: %s",
              st.toString().c_str());
    if (hd.health() != Health::Healthy)
        panic("hostile disk: server did not recover");
    if (deliver(hd, hc, hdDelta, false, hfc) != AckCode::Accepted)
        panic("hostile disk: recovered server refused the resend");
    // Control timeline: the NACK'd attempts never happened, so it is
    // just tick + the same admitted delta.
    if (Status st = ctl.tick(); !st.ok())
        panic("control tick failed: %s", st.toString().c_str());
    FleetCounters cfc;
    if (deliver(ctl, cc, hdDelta, false, cfc) != AckCode::Accepted)
        panic("control server refused the delta");
    const bool hdIdentical =
        hd.aggregate().serialize() == ctl.aggregate().serialize() &&
        hd.aggregate().contentHash() == ctl.aggregate().contentHash();
    const uint64_t hdReopens =
        hd.stats().counter("serve.health.reopenAttempts");
    const uint64_t hdRecoveries =
        hd.stats().counter("serve.health.recoveries");
    std::printf("hostile disk: %llu NACKs, %llu reopen attempt(s), "
                "%llu recovery(ies), bit-identical to control: %s\n",
                (unsigned long long)hfc.unavailable,
                (unsigned long long)hdReopens,
                (unsigned long long)hdRecoveries,
                hdIdentical ? "yes" : "NO");
    if (!hdIdentical)
        panic("recovered-from-fault aggregate differs from control");

    // --- torn-tail sweep: truncate at every byte of the last record. -
    // Recovery must land on exactly the pre-record aggregate at every
    // truncation offset: the torn tail is discarded, never applied in
    // part, and a clean cut at the record boundary is not flagged torn.
    const std::string sweepSrc = stateDir + "_sweep_src";
    const std::string sweepDir = stateDir + "_sweep";
    uint64_t sizeBefore = 0, sizeAfter = 0;
    std::string expectedBytes;
    {
        Wal wal(sweepSrc);
        Aggregate agg;
        RecoveryInfo ri;
        if (Status st = wal.open(agg, ri); !st.ok())
            panic("sweep wal open failed: %s", st.toString().c_str());
        Aggregate expected;
        AdmittedDelta d;
        d.clientId = "sweeper";
        const uint64_t kRecords = 4;
        for (uint64_t s = 1; s <= kRecords; ++s) {
            d.seq = s;
            d.edges.clear();
            for (uint32_t k = 0; k < 8; ++k)
                d.edges.push_back(
                    {uint32_t(s % 3), k, k + 1, s * 7 + k});
            d.normalize();
            if (s == kRecords) {
                expectedBytes = expected.serialize();
                sizeBefore = fileSize(sweepSrc + "/wal.1.bin");
            } else {
                expected.apply(d);
            }
            if (Status st = wal.appendAdmitted(d); !st.ok())
                panic("sweep append failed: %s",
                      st.toString().c_str());
        }
        sizeAfter = fileSize(sweepSrc + "/wal.1.bin");
    }
    const std::string fullWal = slurp(sweepSrc + "/wal.1.bin");
    if (fullWal.size() != sizeAfter)
        panic("sweep source wal changed size");
    if (::mkdir(sweepDir.c_str(), 0755) != 0 && errno != EEXIST)
        panic("cannot create %s", sweepDir.c_str());
    uint64_t sweepViolations = 0;
    const auto s0 = Clock::now();
    for (uint64_t off = sizeBefore; off < sizeAfter; ++off) {
        {
            std::ofstream out(sweepDir + "/wal.1.bin",
                              std::ios::binary | std::ios::trunc);
            out.write(fullWal.data(), std::streamsize(off));
        }
        Wal wal(sweepDir);
        Aggregate agg;
        RecoveryInfo ri;
        if (!wal.open(agg, ri).ok()) {
            ++sweepViolations;
            continue;
        }
        if (agg.serialize() != expectedBytes)
            ++sweepViolations;
        if (ri.tornSegments != (off == sizeBefore ? 0u : 1u))
            ++sweepViolations;
    }
    const double sweepMs = msSince(s0);
    std::printf("torn-tail sweep: %llu offsets, %llu violation(s) "
                "(%.0f ms)\n",
                (unsigned long long)(sizeAfter - sizeBefore),
                (unsigned long long)sweepViolations, sweepMs);
    if (sweepViolations != 0)
        panic("torn-tail sweep violated recovery invariants");

    bench::JsonReport report("serve");
    report.row("fleet", "noisy");
    report.metric("frames", double(fc.framesSent));
    report.metric("admitted", double(fc.admitted));
    report.metric("duplicates", double(fc.duplicates));
    report.metric("throttled", double(fc.throttled));
    report.metric("rejected", double(fc.rejected));
    report.metric("quarantined", double(fc.quarantined));
    report.metric("tornFrames", double(fc.tornFrames));
    report.metric("reconnects", double(fc.reconnects));
    report.metric("streamMs", streamMs);
    report.row("resched", "gated");
    report.metric("attempts", double(attempts));
    report.metric("runs", double(runs));
    report.metric("skippedUnmoved", double(skipped));
    report.metric("ratio",
                  attempts == 0 ? 0.0
                                : double(runs) / double(attempts));
    report.row("memory", "bounded");
    report.metric("liveKeys", double(liveKeys));
    report.metric("keyCap", double(opts.aggregate.maxKeysPerBucket));
    report.metric("droppedKeys", double(droppedKeys));
    report.row("memory", "key-flood");
    report.metric("liveKeys", double(flood.liveKeys()));
    report.metric("keyCap", double(floodOpts.maxKeysPerBucket));
    report.metric("droppedKeys", double(flood.droppedKeys()));
    report.row("recovery", "kill9");
    report.metric("ms", recoveryMs);
    report.metric("records",
                  double(reborn->recovery().recordsReplayed));
    report.metric("bitIdentical", identical ? 1.0 : 0.0);
    report.row("hostile-disk", "wal-fsync-eio");
    report.metric("nacks", double(hfc.unavailable));
    report.metric("reopenAttempts", double(hdReopens));
    report.metric("recoveries", double(hdRecoveries));
    report.metric("bitIdentical", hdIdentical ? 1.0 : 0.0);
    report.row("recovery", "torn-tail-sweep");
    report.metric("offsets", double(sizeAfter - sizeBefore));
    report.metric("violations", double(sweepViolations));
    report.metric("ms", sweepMs);

    if (!report.write())
        std::fprintf(stderr,
                     "warning: could not write BENCH_serve.json\n");
    return 0;
}
