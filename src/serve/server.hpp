/**
 * @file
 * ServeCore: the aggregation server's socket-independent core.
 *
 * One ServeCore owns the whole serving state for one workload:
 *
 *   frames in ─▶ admission ladder ─▶ WAL (fsync) ─▶ aggregate
 *                                                      │ epoch tick
 *                                                      ▼
 *                        hot-path fingerprints moved? ─▶ reschedule
 *
 * The core is deliberately transport-free: handleFrame()/handleMessage()
 * take an opaque connection key and return the response payloads to
 * send, so the same code path runs under the poll() daemon
 * (serve/socket.hpp), the in-process bench fleet (bench_serve), and the
 * crash tests — which destroy a ServeCore *without* shutdown() to
 * simulate kill -9 and then recover a fresh one from the state
 * directory.
 *
 * Durability order per admitted delta: WAL append (fsync) first, then
 * the in-memory merge, then the Ack.  A crash between any two steps
 * loses nothing: an unacked admitted delta is already in the WAL, and
 * the client's blind resend after reconnect lands as Duplicate via the
 * recovered seq cursor.
 *
 * A reschedule runs only when a hot-path fingerprint moved, and is
 * governed by an optional deadline (a reschedule storm cannot starve
 * ingest — the run ends with a typed DeadlineExceeded and is retried
 * at the next trigger).
 */

#ifndef PATHSCHED_SERVE_SERVER_HPP
#define PATHSCHED_SERVE_SERVER_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/stats.hpp"
#include "pipeline/backend.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/report.hpp"
#include "serve/admission.hpp"
#include "serve/aggregate.hpp"
#include "serve/wal.hpp"
#include "serve/wire.hpp"
#include "workloads/workloads.hpp"

namespace pathsched::serve {

/** Everything configurable about one serving instance. */
struct ServeOptions
{
    AggregateOptions aggregate;
    AdmissionOptions admission;
    /** Scheduling backend the server maintains (a registry row). */
    const pipeline::BackendDesc *backend =
        &pipeline::backendFor(pipeline::SchedConfig::P4);
    /** Base pipeline options (machine model, path params, ...).  The
     *  core overrides the profile-input, executor-thread, deadline and
     *  keepTransformed fields per reschedule. */
    pipeline::PipelineOptions pipelineBase;
    /** Wall budget per reschedule attempt; 0 = none.  Crash tests run
     *  with 0 so schedules stay bit-reproducible. */
    uint64_t reschedDeadlineMs = 0;
    /** Attempt a reschedule every N epoch ticks (>= 1). */
    uint32_t reschedEveryEpochs = 1;
    /** Snapshot + rotate the WAL after this many live records;
     *  0 = only on flush(). */
    uint64_t snapshotEvery = 256;
    /** Virtual I/O seam for every durable write (WAL, snapshots, the
     *  schedule and status outputs); nullptr = the system
     *  passthrough.  Arm faults on it to exercise degraded mode. */
    Vio *vio = nullptr;
};

/** Server health ladder (see docs/serving.md, "Degraded mode"). */
enum class Health : uint8_t
{
    Healthy = 0,  ///< WAL appends succeed; deltas are acked
    Degraded = 1, ///< WAL down; deltas NACK'd Unavailable, reads served
    Failing = 2,  ///< reopen retries keep failing; still retrying
};

/** Stable display name, e.g. "degraded". */
const char *healthName(Health h);

/** Outcome of one reschedule attempt (see attemptReschedule). */
struct RescheduleOutcome
{
    bool attempted = false; ///< fingerprints were inspected
    bool ran = false;       ///< a pipeline run actually executed
    bool skippedUnmoved = false; ///< no fingerprint moved; run skipped
    uint64_t procsLive = 0;  ///< procedures with live profile data
    uint64_t procsMoved = 0; ///< procedures whose fingerprint moved
    /** Pipeline status of the run (OK when !ran). */
    Status status;
    /** Content hash of the scheduled program (0 until a run succeeds). */
    uint64_t scheduleHash = 0;
};

/** The transport-free aggregation/rescheduling core. */
class ServeCore
{
  public:
    ServeCore(workloads::Workload workload, ServeOptions opts,
              std::string stateDir);
    ~ServeCore();

    ServeCore(const ServeCore &) = delete;
    ServeCore &operator=(const ServeCore &) = delete;

    /** Recover from the state directory and open the WAL.  Must be
     *  called (and succeed) before any other method. */
    Status init();

    /** What recovery found (valid after init()). */
    const RecoveryInfo &recovery() const { return recovery_; }

    /**
     * Feed one raw frame payload from connection @p connKey; the
     * returned payloads (if any) are the responses to frame and send
     * back.  @p dropConn is set when the connection must be closed
     * (protocol misuse, Bye).
     */
    std::vector<std::string> handleFrame(const std::string &connKey,
                                         const std::string &payload,
                                         bool &dropConn);

    /** Forget connection-local state (socket layer calls on close). */
    void dropConnection(const std::string &connKey);

    /** Advance the epoch by one: WAL-log it, rotate the aggregate
     *  window, refill admission tokens, and — every
     *  reschedEveryEpochs ticks — attempt a reschedule. */
    Status tick();

    /** Snapshot now and attempt a (fingerprint-gated) reschedule. */
    Status flush();

    /**
     * Reschedule when any live procedure's hot-path fingerprint moved
     * since the last successful run (@p force skips the gate).  On
     * success the scheduled program is serialized into scheduleBlob().
     */
    RescheduleOutcome attemptReschedule(bool force);

    /** Canonical serialization of the last successful schedule (empty
     *  until one succeeds). */
    const std::string &scheduleBlob() const { return schedule_blob_; }

    /** FNV-1a of scheduleBlob(); 0 until a run succeeds. */
    uint64_t scheduleHash() const { return schedule_hash_; }

    const Aggregate &aggregate() const { return agg_; }
    const Admission &admission() const { return admission_; }
    const workloads::Workload &workload() const { return workload_; }

    /** Server-wide counters, including serve.client.<id>.* admission
     *  attribution (synced on access). */
    const obs::StatRegistry &stats();

    /** The server's status document (aggregate hashes, counters,
     *  recovery info, last reschedule) as pretty JSON. */
    std::string statusJson();

    /** v1 report document (pipeline/report.hpp) over every successful
     *  reschedule run, with the serve registry attached. */
    std::string reportJson();

    /** Write the last schedule blob to @p path; false on I/O error or
     *  when no schedule exists yet. */
    bool writeScheduleBlob(const std::string &path) const;

    uint64_t deltasAccepted() const { return deltas_accepted_; }

    /** Current health state (see the Health ladder). */
    Health health() const { return health_; }

  private:
    struct ConnState
    {
        bool hello = false;
        std::string clientId;
    };

    std::vector<std::string> handleMessage(const std::string &connKey,
                                           const Message &msg,
                                           bool &dropConn);
    Status maybeSnapshot();
    void syncClientCounters();

    /** Enter degraded mode because of @p why (idempotent). */
    void degrade(const Status &why);
    /** One WAL reopen+snapshot attempt; OK = healthy again. */
    Status attemptRecovery();
    /** Append the health block to a JSON document under key
     *  "health". */
    void healthToJson(obs::JsonWriter &w);

    workloads::Workload workload_;
    ServeOptions opts_;
    Aggregate agg_;
    Wal wal_;
    Admission admission_;
    /** The workload's call counts and reference run, prepared at the
     *  first reschedule and shared by every later one.  It collects no
     *  profile: reschedules always supply the aggregate's. */
    std::optional<pipeline::PreparedWorkload> prepared_;
    obs::StatRegistry registry_;
    RecoveryInfo recovery_;
    std::map<std::string, ConnState> conns_;

    bool inited_ = false;
    uint64_t frames_seen_ = 0;
    uint64_t deltas_accepted_ = 0;
    uint64_t ticks_ = 0;

    /** Health state machine (WAL availability). */
    Health health_ = Health::Healthy;
    std::string last_health_error_;
    uint32_t ticks_until_retry_ = 0; ///< countdown to the next reopen
    uint32_t retry_backoff_ = 1;     ///< next wait after a failed reopen
    uint32_t reopen_failures_ = 0;   ///< consecutive failed reopens

    /** Fingerprints as of the last *successful* reschedule. */
    std::map<uint32_t, uint64_t> scheduled_fps_;
    std::string schedule_blob_;
    uint64_t schedule_hash_ = 0;
    RescheduleOutcome last_resched_;
    std::vector<pipeline::ReportRun> runs_;
};

/** True when @p id is a valid client id: nonempty, at most 64 chars,
 *  only [A-Za-z0-9_-] (client ids appear in dotted stat paths and in
 *  filenames, so the alphabet is restricted at the trust boundary). */
bool validClientId(const std::string &id);

} // namespace pathsched::serve

#endif // PATHSCHED_SERVE_SERVER_HPP
