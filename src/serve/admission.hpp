/**
 * @file
 * Per-client streaming admission: the PR-4 profile admission layer
 * applied at the ingest boundary, plus client hygiene.
 *
 * Every Delta frame runs a deterministic ladder, cheapest test first:
 *
 *   1. Duplicate   seq <= the client's last *durable* seq (from the
 *                  aggregate, which the WAL restores) — replays after a
 *                  reconnect are acked but never double-counted.
 *   2. Quarantined the client's misbehaviour score crossed the
 *                  threshold recently; frames are dropped unread until
 *                  the quarantine epoch passes.
 *   3. Throttled   the client's token bucket is empty this epoch —
 *                  backpressure degrades to "retry later", never OOM.
 *   4. Rejected    the delta failed the profile loader (lenient) or
 *                  the PR-4 semantic audit (Repair mode) at file
 *                  granularity; the misbehaviour score rises.
 *   5. Accepted    whatever survives per-procedure admission becomes a
 *                  canonical AdmittedDelta: Accepted procedures keep
 *                  their records, ProjectedEdges procedures contribute
 *                  their projected edge counts, Quarantined/stale
 *                  procedures contribute nothing (and bump the score a
 *                  little).  An empty-but-well-formed delta is still
 *                  Accepted so the seq cursor advances.
 *
 * Scoring, decay and token refill are all integer arithmetic driven by
 * the epoch counter, so a replayed ingest makes identical decisions.
 * Scores and tokens are *soft* state: a restart clears them (documented
 * in docs/serving.md); only the seq cursors are durable, because only
 * they affect the aggregate's bit-exact recovery contract.
 */

#ifndef PATHSCHED_SERVE_ADMISSION_HPP
#define PATHSCHED_SERVE_ADMISSION_HPP

#include <cstdint>
#include <map>
#include <string>

#include "ir/procedure.hpp"
#include "profile/path_profile.hpp"
#include "serve/aggregate.hpp"
#include "serve/wire.hpp"

namespace pathsched::serve {

/** Admission tunables (all integer / epoch-driven; see file doc). */
struct AdmissionOptions
{
    /** Deltas a client may submit per epoch (token refill). */
    uint64_t tokensPerEpoch = 64;
    /** Token bucket cap (burst allowance across idle epochs). */
    uint64_t maxTokens = 128;
    /** Score added for a file-level rejection. */
    uint32_t scorePerReject = 4;
    /** Score added per quarantined/stale procedure inside an otherwise
     *  admitted delta. */
    uint32_t scorePerBadProc = 1;
    /** Score at which the client is quarantined. */
    uint32_t quarantineThreshold = 16;
    /** Epochs a quarantine lasts. */
    uint32_t quarantineEpochs = 4;
};

/** Per-client admission counters (exported as serve.client.<id>.*). */
struct ClientStats
{
    uint64_t admitted = 0;
    uint64_t duplicates = 0;
    uint64_t throttled = 0;
    uint64_t quarantinedDeltas = 0;
    uint64_t rejected = 0;
    /** Malformed records the lenient loader skipped (ProfileMeta). */
    uint64_t skippedRecords = 0;
    /** Skipped records whose proc field was unreadable (ProfileMeta). */
    uint64_t unattributedSkips = 0;
    /** Procedures quarantined by the semantic audit. */
    uint64_t procsQuarantined = 0;
    /** Procedures degraded to projected edges by the audit. */
    uint64_t procsProjected = 0;
    /** Procedures rejected for a stale CFG fingerprint. */
    uint64_t procsStale = 0;
    /** Times this client entered quarantine. */
    uint64_t quarantineEntries = 0;
};

/** Verdict for one Delta frame. */
struct AdmissionResult
{
    AckCode code = AckCode::Error;
    /** Human-readable detail for the Ack / log line. */
    std::string detail;
    /** Valid only when code == Accepted. */
    AdmittedDelta delta;
};

/** The admission ladder plus per-client soft state. */
class Admission
{
  public:
    Admission(const ir::Program &prog,
              profile::PathProfileParams pathParams,
              AdmissionOptions opts = AdmissionOptions());

    /**
     * Run the ladder on one Delta.  @p lastSeq is the client's durable
     * cursor (Aggregate::lastSeq).  @p profileKind: 0 edge, 1 path.
     */
    AdmissionResult evaluate(const std::string &clientId,
                             uint64_t lastSeq, uint64_t seq,
                             uint8_t profileKind,
                             const std::string &text);

    /** Epoch rolled over: refill tokens, decay scores, expire
     *  quarantines whose term has passed. */
    void onEpoch(uint64_t newEpoch);

    uint64_t epoch() const { return epoch_; }

    /** Stats for @p clientId (zeros when unseen). */
    const ClientStats &stats(const std::string &clientId) const;

    /** Every client with admission state, for stats export. */
    const std::map<std::string, ClientStats> &allStats() const;

    /** True while @p clientId is quarantined. */
    bool quarantined(const std::string &clientId) const;

  private:
    struct ClientState
    {
        uint64_t tokens = 0;
        bool tokensInit = false;
        uint32_t score = 0;
        /** First epoch at which frames are accepted again; 0 = none. */
        uint64_t quarantinedUntil = 0;
        ClientStats stats;
    };

    ClientState &state(const std::string &clientId);
    void bumpScore(ClientState &cs, uint32_t amount);

    const ir::Program *prog_;
    profile::PathProfileParams path_params_;
    AdmissionOptions opts_;
    uint64_t epoch_ = 0;
    std::map<std::string, ClientState> clients_;
    /** Rebuilt view for allStats(). */
    mutable std::map<std::string, ClientStats> stats_view_;
};

} // namespace pathsched::serve

#endif // PATHSCHED_SERVE_ADMISSION_HPP
