/**
 * @file
 * Decayed, time-windowed, shardable profile aggregate.
 *
 * The serve pipeline folds admitted profile deltas from many clients
 * into one per-procedure aggregate that (a) forgets, (b) shards, and
 * (c) detects movement:
 *
 *  - **Windowed decay.**  Counts land in the bucket of the current
 *    epoch; the aggregate keeps the last `windows` epochs and a query
 *    sums the live buckets.  Advancing the epoch rotates the oldest
 *    bucket out — Propeller-style time-bounded discard
 *    (max_time_diff_in_path_buffer_millis) with integer arithmetic, so
 *    decay is exact and replayable instead of a float half-life.
 *
 *  - **Associative merge.**  Every bucket is a sorted map of integer
 *    counters, per-client cursors combine by max, and the epoch by
 *    max, so merge() is associative *and* commutative with bit-exact
 *    results: shard aggregates on N machines, merge in any grouping or
 *    order, and the canonical serialization is byte-identical
 *    (tests/merge_property_test.cpp).  This is RunningStat::merge's
 *    contract, made exact by keeping everything integral.
 *
 *  - **Hot-path fingerprints.**  hotFingerprint(proc) hashes the
 *    identity and order of the procedure's four hottest edges and
 *    path windows — not their raw counts — so uniform traffic growth
 *    leaves it fixed while a shift in *which* paths are hot moves it.
 *    The server reschedules only when some procedure's fingerprint
 *    moved.
 *
 * The canonical serialization (sorted keys, fixed-width little-endian,
 * whole-blob FNV-1a trailer) doubles as the snapshot payload and as
 * the bit-identity witness for crash-recovery tests.
 */

#ifndef PATHSCHED_SERVE_AGGREGATE_HPP
#define PATHSCHED_SERVE_AGGREGATE_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/procedure.hpp"
#include "support/status.hpp"

namespace pathsched::profile {
class EdgeProfiler;
class PathProfiler;
struct PathProfileParams;
} // namespace pathsched::profile

namespace pathsched::serve {

/** One admitted, normalized profile delta: the post-admission record
 *  set of one client upload, in canonical (sorted) order.  This is
 *  what the WAL persists and what the aggregate ingests — admission
 *  decisions are baked in at ingest time, so replay never re-audits. */
struct AdmittedDelta
{
    std::string clientId;
    uint64_t seq = 0;

    struct BlockRec
    {
        uint32_t proc = 0;
        uint32_t block = 0;
        uint64_t count = 0;
    };
    struct EdgeRec
    {
        uint32_t proc = 0;
        uint32_t from = 0;
        uint32_t to = 0;
        uint64_t count = 0;
    };
    struct PathRec
    {
        uint32_t proc = 0;
        std::vector<uint32_t> blocks; ///< oldest block first
        uint64_t count = 0;
    };

    std::vector<BlockRec> blocks; ///< sorted by (proc, block)
    std::vector<EdgeRec> edges;   ///< sorted by (proc, from, to)
    std::vector<PathRec> paths;   ///< sorted by (proc, blocks)

    /** Canonicalize: sort and sum duplicate keys. */
    void normalize();

    bool
    empty() const
    {
        return blocks.empty() && edges.empty() && paths.empty();
    }

    /** Binary encode (WAL payload body, after the type byte). */
    void encode(std::string &out) const;
    /** Inverse of encode(); typed error on truncation/overflow. */
    static Status decode(const std::string &in, size_t &pos,
                         AdmittedDelta &out);
};

/** Aggregate sizing/behaviour knobs. */
struct AggregateOptions
{
    /** Live epochs (buckets); counts older than this are discarded. */
    uint32_t windows = 8;
    /** Distinct counter keys one bucket may hold; at the cap, *new*
     *  keys are dropped (and counted) while existing keys still
     *  accumulate — bounded memory under a hostile or runaway fleet. */
    uint64_t maxKeysPerBucket = 1u << 20;
};

/** Windowed, shardable per-procedure profile aggregate. */
class Aggregate
{
  public:
    explicit Aggregate(AggregateOptions opts = AggregateOptions());

    const AggregateOptions &options() const { return opts_; }

    /** Current epoch (starts at 0; advanceEpoch increments). */
    uint64_t epoch() const { return epoch_; }

    /** Merge one admitted delta into the current epoch's bucket.
     *  Also advances the per-client sequence cursor. */
    void apply(const AdmittedDelta &delta);

    /** Rotate to @p newEpoch (monotonic), discarding buckets that
     *  fall out of the window.  No-op when newEpoch <= epoch(). */
    void advanceEpoch(uint64_t newEpoch);

    /** Highest admitted seq for @p clientId; 0 when unseen. */
    uint64_t lastSeq(const std::string &clientId) const;

    /** Fold @p other in (associative + commutative; see file doc).
     *  Window counts must match — shards share a config. */
    void merge(const Aggregate &other);

    /** Keys dropped because a bucket hit maxKeysPerBucket. */
    uint64_t droppedKeys() const { return dropped_keys_; }

    /** Distinct counter keys across all live buckets (memory proxy). */
    uint64_t liveKeys() const;

    /** Procedures with any live data, ascending. */
    std::vector<uint32_t> liveProcs() const;

    /**
     * Hot-path fingerprint of @p proc over the live window: FNV-1a of
     * the ordered top-4 edge keys and top-4 path windows (by summed
     * count, ties toward the smaller key).  0 when the procedure has
     * no live data.  Count *magnitudes* do not participate — only the
     * identity and rank order of the hot set.
     */
    uint64_t hotFingerprint(uint32_t proc) const;

    /** hotFingerprint for every live procedure. */
    std::map<uint32_t, uint64_t> hotFingerprints() const;

    /** Summed live counts rendered into @p ep / @p pp (for feeding the
     *  pipeline).  Out-of-range records for the target program are
     *  skipped (the program may have changed under the aggregate);
     *  @p skipped counts them. */
    void dumpEdges(profile::EdgeProfiler &ep, uint64_t &skipped) const;
    void dumpPaths(profile::PathProfiler &pp, uint64_t &skipped) const;

    /**
     * Canonical serialization: fixed-width little-endian, sorted keys,
     * FNV-1a trailer.  Equal aggregates produce byte-identical blobs —
     * the crash-recovery bit-identity witness and snapshot payload.
     */
    std::string serialize() const;

    /** Inverse of serialize(); typed ProfileCorrupt on a bad trailer,
     *  truncation, or a window-count mismatch with @p opts. */
    static Status deserialize(const std::string &blob,
                              const AggregateOptions &opts,
                              Aggregate &out);

    /** FNV-1a of serialize() — cheap identity for logs and status. */
    uint64_t contentHash() const;

  private:
    struct Bucket
    {
        uint64_t epoch = 0;
        /** key: (proc<<32)|block */
        std::map<uint64_t, uint64_t> blocks;
        /** key: (proc, (from<<32)|to) */
        std::map<std::pair<uint64_t, uint64_t>, uint64_t> edges;
        /** key: (proc, window blocks) */
        std::map<std::pair<uint32_t, std::vector<uint32_t>>, uint64_t>
            paths;

        uint64_t
        keyCount() const
        {
            return blocks.size() + edges.size() + paths.size();
        }
        bool
        empty() const
        {
            return blocks.empty() && edges.empty() && paths.empty();
        }
    };

    Bucket &currentBucket();
    /** Buckets still inside the window, oldest first. */
    std::vector<const Bucket *> liveBuckets() const;

    AggregateOptions opts_;
    uint64_t epoch_ = 0;
    /** Ring of buckets keyed by epoch; only epochs within
     *  [epoch - windows + 1, epoch] are live. */
    std::map<uint64_t, Bucket> buckets_;
    /** clientId -> highest admitted seq (exactly-once dedup). */
    std::map<std::string, uint64_t> last_seq_;
    uint64_t dropped_keys_ = 0;
};

} // namespace pathsched::serve

#endif // PATHSCHED_SERVE_AGGREGATE_HPP
