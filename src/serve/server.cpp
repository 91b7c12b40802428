#include "serve/server.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/json.hpp"
#include "pipeline/backend.hpp"
#include "profile/validate.hpp"
#include "support/hash.hpp"
#include "support/strutil.hpp"

namespace pathsched::serve {

bool
validClientId(const std::string &id)
{
    if (id.empty() || id.size() > 64)
        return false;
    for (char c : id) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

const char *
healthName(Health h)
{
    switch (h) {
      case Health::Healthy: return "healthy";
      case Health::Degraded: return "degraded";
      case Health::Failing: return "failing";
    }
    return "<bad>";
}

ServeCore::ServeCore(workloads::Workload workload, ServeOptions opts,
                     std::string stateDir)
    : workload_(std::move(workload)), opts_(opts),
      agg_(opts.aggregate), wal_(std::move(stateDir), opts.vio),
      admission_(workload_.program, opts.pipelineBase.pathParams,
                 opts.admission),
      cache_(opts.cacheDir, opts.vio)
{
    if (opts_.reschedEveryEpochs == 0)
        opts_.reschedEveryEpochs = 1;
    if (opts_.reopenBackoffCapTicks == 0)
        opts_.reopenBackoffCapTicks = 1;
}

ServeCore::~ServeCore() = default;

Status
ServeCore::init()
{
    ps_assert_msg(!inited_, "ServeCore::init() called twice");
    if (Status st = wal_.open(agg_, recovery_); !st.ok())
        return st;
    // Admission's epoch-driven soft state restarts in sync with the
    // recovered aggregate epoch; scores/tokens themselves are soft and
    // reset — only the seq cursors are durable (see admission.hpp).
    admission_.onEpoch(agg_.epoch());
    registry_.setGauge("serve.recovery.snapshotGen",
                       double(recovery_.snapshotGen));
    registry_.addCounter("serve.recovery.recordsReplayed",
                         recovery_.recordsReplayed);
    registry_.addCounter("serve.recovery.tornSegments",
                         recovery_.tornSegments);
    registry_.addCounter("serve.recovery.tornBytes",
                         recovery_.tornBytes);
    registry_.addCounter("serve.recovery.snapshotsSkipped",
                         recovery_.snapshotsSkipped);
    inited_ = true;
    return Status();
}

void
ServeCore::dropConnection(const std::string &connKey)
{
    conns_.erase(connKey);
}

std::vector<std::string>
ServeCore::handleFrame(const std::string &connKey,
                       const std::string &payload, bool &dropConn)
{
    ps_assert_msg(inited_, "ServeCore used before init()");
    ++frames_seen_;
    registry_.addCounter("serve.ingest.frames", 1);
    Message msg;
    if (Status st = decodeMessage(payload, msg); !st.ok()) {
        // An undecodable payload inside a CRC-valid frame is protocol
        // misuse, not line noise: drop the connection.
        registry_.addCounter("serve.ingest.badMessages", 1);
        dropConn = true;
        return {encodeAck(0, AckCode::Error, st.toString())};
    }
    return handleMessage(connKey, msg, dropConn);
}

std::vector<std::string>
ServeCore::handleMessage(const std::string &connKey, const Message &msg,
                         bool &dropConn)
{
    std::vector<std::string> out;
    ConnState &conn = conns_[connKey];

    switch (msg.type) {
    case MsgType::Hello: {
        if (msg.version != kWireVersion) {
            registry_.addCounter("serve.ingest.versionMismatch", 1);
            dropConn = true;
            out.push_back(encodeAck(
                0, AckCode::Error,
                strfmt("unsupported wire version %u (speak %u)",
                       msg.version, kWireVersion)));
            break;
        }
        if (!validClientId(msg.clientId)) {
            registry_.addCounter("serve.ingest.badClientId", 1);
            dropConn = true;
            out.push_back(encodeAck(0, AckCode::Error,
                                    "invalid client id (want "
                                    "[A-Za-z0-9_-]{1,64})"));
            break;
        }
        conn.hello = true;
        conn.clientId = msg.clientId;
        out.push_back(encodeAck(0, AckCode::Accepted, "hello"));
        break;
    }
    case MsgType::Delta: {
        if (!conn.hello) {
            registry_.addCounter("serve.ingest.noHello", 1);
            dropConn = true;
            out.push_back(encodeAck(msg.seq, AckCode::Error,
                                    "Delta before Hello"));
            break;
        }
        if (health_ != Health::Healthy) {
            // Degraded: the WAL cannot make this delta durable, so it
            // must not be admitted at all (no token spend, no cursor
            // move — the NACK is side-effect-free).  The client backs
            // off and resends the same seq after recovery.
            registry_.addCounter("serve.ingest.unavailable", 1);
            out.push_back(encodeAck(
                msg.seq, AckCode::Unavailable,
                strfmt("server %s: %s", healthName(health_),
                       last_health_error_.c_str())));
            break;
        }
        AdmissionResult verdict = admission_.evaluate(
            conn.clientId, agg_.lastSeq(conn.clientId), msg.seq,
            msg.profileKind, msg.text);
        registry_.addCounter(
            strfmt("serve.ingest.%s", ackCodeName(verdict.code)), 1);
        if (verdict.code == AckCode::Accepted) {
            // Durability before visibility before the Ack.
            if (Status st = wal_.appendAdmitted(verdict.delta);
                !st.ok()) {
                registry_.addCounter("serve.wal.appendFailures", 1);
                degrade(st);
                out.push_back(encodeAck(msg.seq, AckCode::Unavailable,
                                        st.toString()));
                break;
            }
            agg_.apply(verdict.delta);
            ++deltas_accepted_;
            if (Status st = maybeSnapshot(); !st.ok()) {
                // The append above is durable and the old recovery
                // chain is intact, so the Ack still goes out — but the
                // WAL's write path is suspect: stop acking until a
                // reopen proves it healthy again.
                registry_.addCounter("serve.wal.snapshotFailures", 1);
                degrade(st);
            }
        }
        out.push_back(
            encodeAck(msg.seq, verdict.code, verdict.detail));
        break;
    }
    case MsgType::Tick: {
        if (Status st = tick(); !st.ok())
            out.push_back(encodeAck(
                0,
                st.kind() == ErrorKind::Unavailable
                    ? AckCode::Unavailable
                    : AckCode::Error,
                st.toString()));
        else
            out.push_back(encodeAck(0, AckCode::Accepted, "tick"));
        break;
    }
    case MsgType::Flush: {
        if (Status st = flush(); !st.ok())
            out.push_back(encodeAck(
                0,
                st.kind() == ErrorKind::Unavailable
                    ? AckCode::Unavailable
                    : AckCode::Error,
                st.toString()));
        else
            out.push_back(encodeAck(0, AckCode::Accepted, "flush"));
        break;
    }
    case MsgType::StatsReq:
        out.push_back(encodeStatsRep(statusJson()));
        break;
    case MsgType::Bye:
        dropConn = true;
        break;
    default:
        // Server-to-client or WAL-only tags arriving on the ingest
        // side are protocol misuse.
        registry_.addCounter("serve.ingest.badMessages", 1);
        dropConn = true;
        out.push_back(encodeAck(0, AckCode::Error,
                                "unexpected message direction"));
        break;
    }
    return out;
}

Status
ServeCore::maybeSnapshot()
{
    if (opts_.snapshotEvery == 0 ||
        wal_.liveRecords() < opts_.snapshotEvery)
        return Status();
    Status st = wal_.snapshot(agg_);
    if (st.ok())
        registry_.addCounter("serve.wal.snapshots", 1);
    return st;
}

void
ServeCore::degrade(const Status &why)
{
    if (health_ == Health::Healthy) {
        registry_.addCounter("serve.health.degradeEvents", 1);
        warn("serve: entering degraded mode: %s",
             why.toString().c_str());
        health_ = Health::Degraded;
    }
    last_health_error_ = why.toString();
    // First reopen attempt happens on the next tick; failures then
    // back off with doubling waits (attemptRecovery).
    ticks_until_retry_ = 0;
    retry_backoff_ = 1;
    reopen_failures_ = 0;
}

Status
ServeCore::attemptRecovery()
{
    registry_.addCounter("serve.health.reopenAttempts", 1);
    if (Status st = wal_.reopenAndSnapshot(agg_); !st.ok()) {
        ++reopen_failures_;
        registry_.addCounter("serve.health.reopenFailures", 1);
        last_health_error_ = st.toString();
        ticks_until_retry_ = retry_backoff_;
        retry_backoff_ =
            std::min(retry_backoff_ * 2, opts_.reopenBackoffCapTicks);
        if (reopen_failures_ >= opts_.failingAfterRetries &&
            health_ != Health::Failing) {
            health_ = Health::Failing;
            registry_.addCounter("serve.health.failingEvents", 1);
            warn("serve: %u consecutive WAL reopen failures; health is "
                 "now failing (still retrying)",
                 unsigned(reopen_failures_));
        }
        return Status::error(
            ErrorKind::Unavailable,
            strfmt("WAL reopen failed (%u consecutive): %s",
                   unsigned(reopen_failures_), st.message().c_str()));
    }
    // reopenAndSnapshot published a snapshot of the acked state and
    // rotated to a fresh segment: the WAL is provably writable again.
    health_ = Health::Healthy;
    last_health_error_.clear();
    reopen_failures_ = 0;
    retry_backoff_ = 1;
    ticks_until_retry_ = 0;
    registry_.addCounter("serve.health.recoveries", 1);
    registry_.addCounter("serve.wal.snapshots", 1);
    return Status();
}

Status
ServeCore::tick()
{
    ps_assert_msg(inited_, "ServeCore used before init()");
    if (health_ != Health::Healthy) {
        // Degraded: the aggregate's clock stands still (advancing the
        // epoch without WAL-logging it would fork memory from disk).
        // Ticks instead drive the reopen retry ladder.
        ++ticks_;
        if (ticks_until_retry_ > 0) {
            --ticks_until_retry_;
            return Status();
        }
        if (Status st = attemptRecovery(); !st.ok())
            return st;
        // Fall through healthy: the epoch advances again from here.
    }
    const uint64_t next = agg_.epoch() + 1;
    // WAL first: replaying an epoch record twice is idempotent
    // (advanceEpoch is monotonic), losing one would time-travel decay.
    if (Status st = wal_.appendEpoch(next); !st.ok()) {
        registry_.addCounter("serve.wal.appendFailures", 1);
        degrade(st);
        return st;
    }
    agg_.advanceEpoch(next);
    admission_.onEpoch(next);
    ++ticks_;
    registry_.addCounter("serve.epochs", 1);
    if (Status st = maybeSnapshot(); !st.ok()) {
        registry_.addCounter("serve.wal.snapshotFailures", 1);
        degrade(st);
    }
    if (ticks_ % opts_.reschedEveryEpochs == 0)
        (void)attemptReschedule(false);
    return Status();
}

Status
ServeCore::flush()
{
    ps_assert_msg(inited_, "ServeCore used before init()");
    if (health_ != Health::Healthy) {
        // A flush wants the state durable *now*: try to recover
        // immediately instead of waiting out the tick backoff.  Still
        // down -> typed Unavailable; the caller keeps the
        // last-known-good outputs.
        if (Status st = attemptRecovery(); !st.ok())
            return st;
        // Recovery itself snapshotted; only the reschedule remains.
        (void)attemptReschedule(false);
        return Status();
    }
    if (Status st = wal_.snapshot(agg_); !st.ok()) {
        registry_.addCounter("serve.wal.snapshotFailures", 1);
        degrade(st);
        return st;
    }
    registry_.addCounter("serve.wal.snapshots", 1);
    (void)attemptReschedule(false);
    return Status();
}

RescheduleOutcome
ServeCore::attemptReschedule(bool force)
{
    RescheduleOutcome oc;
    oc.attempted = true;
    registry_.addCounter("serve.resched.attempts", 1);

    // The movement gate: reschedule only when some live procedure's
    // hot-path fingerprint differs from the last scheduled state.
    const std::map<uint32_t, uint64_t> fps = agg_.hotFingerprints();
    oc.procsLive = fps.size();
    for (const auto &[proc, fp] : fps) {
        auto it = scheduled_fps_.find(proc);
        if (it == scheduled_fps_.end() || it->second != fp)
            ++oc.procsMoved;
    }
    // A scheduled procedure whose data rotated out entirely also moved
    // (its hot state is now "none"); without this the stale schedule
    // would persist as long as the live procedures hold still.
    for (const auto &[proc, fp] : scheduled_fps_)
        if (fps.find(proc) == fps.end())
            ++oc.procsMoved;
    if (!force && !runs_.empty() && oc.procsMoved == 0) {
        oc.skippedUnmoved = true;
        oc.scheduleHash = schedule_hash_;
        registry_.addCounter("serve.resched.skippedUnmoved", 1);
        last_resched_ = oc;
        return oc;
    }
    if (fps.empty() && !force) {
        // Nothing live to schedule from: keep the last-known-good
        // schedule (intentional — an idle fleet shouldn't discard the
        // schedule its last traffic earned) until data returns.
        oc.skippedUnmoved = true;
        registry_.addCounter("serve.resched.skippedEmpty", 1);
        last_resched_ = oc;
        return oc;
    }
    registry_.addCounter("serve.resched.procsMoved", oc.procsMoved);

    // Dump the live window into admitted profiles.  Admission already
    // ran per delta at ingest — the aggregate is trusted internal
    // state, so it reaches the pipeline with the audit disabled (also
    // keeping every procedure stage-cache-eligible).  Aggregated counts
    // are sums over many deltas, which the per-run flow checks would
    // misread anyway.
    uint64_t dumpSkipped = 0;
    profile::AdmittedEdgeProfile edges(workload_.program);
    agg_.dumpEdges(edges.profile, dumpSkipped);
    profile::AdmittedPathProfile paths(workload_.program,
                                       opts_.pipelineBase.pathParams);
    agg_.dumpPaths(paths.profile, dumpSkipped);
    paths.profile.finalize();
    if (dumpSkipped > 0)
        registry_.addCounter("serve.resched.dumpSkipped", dumpSkipped);

    pipeline::PipelineOptions po = opts_.pipelineBase;
    po.profileInput.edges = &edges;
    po.profileInput.paths = &paths;
    po.executor.cache = &cache_;
    po.executor.threads = 1;
    po.keepTransformed = true;
    if (opts_.reschedDeadlineMs > 0)
        po.robustness.budget.deadline =
            Deadline::afterMs(opts_.reschedDeadlineMs);

    if (!prepared_)
        prepared_.emplace(pipeline::prepareWorkload(
            workload_.program, workload_.train, workload_.test, {},
            opts_.pipelineBase));
    const pipeline::StageCacheStats before = cache_.stats();
    pipeline::PipelineResult result = pipeline::runBackend(
        *prepared_, pipeline::backendFor(opts_.config), po);
    const pipeline::StageCacheStats after = cache_.stats();
    oc.ran = true;
    oc.cacheHits = after.hits - before.hits;
    oc.cacheMisses = after.misses - before.misses;
    oc.status = result.status;
    registry_.addCounter("serve.resched.cacheHits", oc.cacheHits);
    registry_.addCounter("serve.resched.cacheMisses", oc.cacheMisses);

    if (!result.status.ok()) {
        // Deadline expiry (or any run failure) is retried at the next
        // trigger; the previous schedule stays current and the
        // fingerprint gate stays armed because scheduled_fps_ is
        // untouched.
        registry_.addCounter(
            result.status.kind() == ErrorKind::DeadlineExceeded
                ? "serve.resched.deadlineExpired"
                : "serve.resched.failures",
            1);
        last_resched_ = oc;
        return oc;
    }

    ps_assert_msg(result.transformed != nullptr,
                  "keepTransformed run returned no program");
    std::string blob;
    for (const ir::Procedure &proc : result.transformed->procs)
        pipeline::serializeProcedure(proc, blob);
    schedule_blob_ = std::move(blob);
    schedule_hash_ =
        fnv1a64(schedule_blob_.data(), schedule_blob_.size());
    oc.scheduleHash = schedule_hash_;
    scheduled_fps_ = fps;
    registry_.addCounter("serve.resched.runs", 1);
    if (result.degradedRun())
        registry_.addCounter("serve.resched.degradedProcs",
                             result.degraded.size());

    pipeline::ReportRun run;
    run.workload = workload_.name;
    run.result = std::move(result);
    // The transformed program can be large; the report keeps stats
    // only.
    run.result.transformed.reset();
    runs_.push_back(std::move(run));
    last_resched_ = oc;
    return oc;
}

void
ServeCore::syncClientCounters()
{
    // The admission stats are absolute; registry counters accumulate.
    // Bridge by adding the delta, so repeated syncs are idempotent.
    auto sync = [&](const std::string &path, uint64_t absolute) {
        const uint64_t have = registry_.counter(path);
        if (absolute > have)
            registry_.addCounter(path, absolute - have);
    };
    for (const auto &[id, cs] : admission_.allStats()) {
        const std::string base = "serve.client." + id + ".";
        sync(base + "admitted", cs.admitted);
        sync(base + "duplicates", cs.duplicates);
        sync(base + "throttled", cs.throttled);
        sync(base + "quarantinedDeltas", cs.quarantinedDeltas);
        sync(base + "rejected", cs.rejected);
        sync(base + "skippedRecords", cs.skippedRecords);
        sync(base + "unattributedSkips", cs.unattributedSkips);
        sync(base + "procsQuarantined", cs.procsQuarantined);
        sync(base + "procsProjected", cs.procsProjected);
        sync(base + "procsStale", cs.procsStale);
        sync(base + "quarantineEntries", cs.quarantineEntries);
    }
}

const obs::StatRegistry &
ServeCore::stats()
{
    syncClientCounters();
    registry_.setGauge("serve.aggregate.epoch", double(agg_.epoch()));
    registry_.setGauge("serve.aggregate.liveKeys",
                       double(agg_.liveKeys()));
    registry_.setGauge("serve.aggregate.droppedKeys",
                       double(agg_.droppedKeys()));
    registry_.setGauge("serve.health.state", double(uint8_t(health_)));
    return registry_;
}

void
ServeCore::healthToJson(obs::JsonWriter &w)
{
    w.key("health");
    w.beginObject();
    w.member("state", healthName(health_));
    w.member("lastError", last_health_error_);
    w.member("degradeEvents",
             registry_.counter("serve.health.degradeEvents"));
    w.member("reopenAttempts",
             registry_.counter("serve.health.reopenAttempts"));
    w.member("reopenFailures",
             registry_.counter("serve.health.reopenFailures"));
    w.member("recoveries",
             registry_.counter("serve.health.recoveries"));
    w.member("nackedUnavailable",
             registry_.counter("serve.ingest.unavailable"));
    w.endObject();
}

std::string
ServeCore::statusJson()
{
    const obs::StatRegistry &reg = stats();
    obs::JsonWriter w;
    w.beginObject();
    w.member("schema", "pathsched-serve-status-v1");
    w.member("workload", workload_.name);
    w.member("config", pipeline::configName(opts_.config));
    w.member("epoch", agg_.epoch());
    w.member("framesSeen", frames_seen_);
    w.member("deltasAccepted", deltas_accepted_);
    // 64-bit hashes exceed a double's integer range: hex strings.
    w.member("aggregateHash", hex16(agg_.contentHash()));
    w.member("scheduleHash", hex16(schedule_hash_));
    w.key("recovery");
    w.beginObject();
    w.member("snapshotGen", recovery_.snapshotGen);
    w.member("segmentsReplayed", recovery_.segmentsReplayed);
    w.member("recordsReplayed", recovery_.recordsReplayed);
    w.member("epochRecords", recovery_.epochRecords);
    w.member("tornSegments", recovery_.tornSegments);
    w.member("tornBytes", recovery_.tornBytes);
    w.member("snapshotsSkipped", recovery_.snapshotsSkipped);
    w.endObject();
    healthToJson(w);
    w.key("reschedule");
    w.beginObject();
    w.member("attempted", last_resched_.attempted);
    w.member("ran", last_resched_.ran);
    w.member("skippedUnmoved", last_resched_.skippedUnmoved);
    w.member("procsLive", last_resched_.procsLive);
    w.member("procsMoved", last_resched_.procsMoved);
    w.member("cacheHits", last_resched_.cacheHits);
    w.member("cacheMisses", last_resched_.cacheMisses);
    w.member("status", last_resched_.status.toString());
    w.endObject();
    w.key("stats");
    reg.toJson(w);
    w.endObject();
    return w.str();
}

std::string
ServeCore::reportJson()
{
    return pipeline::reportJson(
        runs_, &stats(),
        [this](obs::JsonWriter &w) { healthToJson(w); });
}

bool
ServeCore::writeScheduleBlob(const std::string &path) const
{
    if (schedule_blob_.empty())
        return false;
    // Temp + fsync + rename, like snapshots: a reader never observes a
    // torn blob and a crash right after the write cannot lose it.
    Status st =
        atomicWriteFile(opts_.vio, "schedule", path, schedule_blob_);
    if (!st.ok()) {
        warn("serve: schedule blob not written: %s",
             st.message().c_str());
        return false;
    }
    return true;
}

} // namespace pathsched::serve
