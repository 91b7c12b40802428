#include "serve/aggregate.hpp"

#include <algorithm>

#include "profile/edge_profile.hpp"
#include "profile/path_profile.hpp"
#include "serve/wire.hpp"
#include "support/bytes.hpp"
#include "support/hash.hpp"
#include "support/strutil.hpp"

namespace pathsched::serve {

// ---------------------------------------------------------------------------
// AdmittedDelta

void
AdmittedDelta::normalize()
{
    auto blockKey = [](const BlockRec &r) {
        return std::pair<uint32_t, uint32_t>(r.proc, r.block);
    };
    std::sort(blocks.begin(), blocks.end(),
              [&](const BlockRec &a, const BlockRec &b) {
                  return blockKey(a) < blockKey(b);
              });
    auto edgeKey = [](const EdgeRec &r) {
        return std::tuple<uint32_t, uint32_t, uint32_t>(r.proc, r.from,
                                                        r.to);
    };
    std::sort(edges.begin(), edges.end(),
              [&](const EdgeRec &a, const EdgeRec &b) {
                  return edgeKey(a) < edgeKey(b);
              });
    auto pathKey = [](const PathRec &r) {
        return std::pair<uint32_t, const std::vector<uint32_t> &>(
            r.proc, r.blocks);
    };
    std::sort(paths.begin(), paths.end(),
              [&](const PathRec &a, const PathRec &b) {
                  return pathKey(a) < pathKey(b);
              });

    // Fold duplicate keys by summing.
    auto foldInto = [](auto &vec, auto sameKey) {
        size_t w = 0;
        for (size_t r = 0; r < vec.size(); ++r) {
            if (w > 0 && sameKey(vec[w - 1], vec[r])) {
                vec[w - 1].count += vec[r].count;
            } else {
                if (w != r)
                    vec[w] = std::move(vec[r]);
                ++w;
            }
        }
        vec.resize(w);
    };
    foldInto(blocks, [&](const BlockRec &a, const BlockRec &b) {
        return blockKey(a) == blockKey(b);
    });
    foldInto(edges, [&](const EdgeRec &a, const EdgeRec &b) {
        return edgeKey(a) == edgeKey(b);
    });
    foldInto(paths, [](const PathRec &a, const PathRec &b) {
        return a.proc == b.proc && a.blocks == b.blocks;
    });
}

void
AdmittedDelta::encode(std::string &out) const
{
    putStr(out, clientId);
    putU64(out, seq);
    putU32(out, uint32_t(blocks.size()));
    for (const BlockRec &r : blocks) {
        putU32(out, r.proc);
        putU32(out, r.block);
        putU64(out, r.count);
    }
    putU32(out, uint32_t(edges.size()));
    for (const EdgeRec &r : edges) {
        putU32(out, r.proc);
        putU32(out, r.from);
        putU32(out, r.to);
        putU64(out, r.count);
    }
    putU32(out, uint32_t(paths.size()));
    for (const PathRec &r : paths) {
        putU32(out, r.proc);
        putU32(out, uint32_t(r.blocks.size()));
        for (uint32_t b : r.blocks)
            putU32(out, b);
        putU64(out, r.count);
    }
}

Status
AdmittedDelta::decode(const std::string &in, size_t &pos,
                      AdmittedDelta &out)
{
    auto bad = [](const char *what) {
        return Status::error(ErrorKind::ProfileCorrupt,
                             strfmt("admitted delta: %s", what));
    };
    out = AdmittedDelta();
    if (!getStr(in, pos, out.clientId) || !getU64(in, pos, out.seq))
        return bad("truncated header");
    uint32_t n = 0;
    if (!getU32(in, pos, n))
        return bad("truncated block count");
    // Each block record occupies 16 payload bytes; reject counts the
    // remaining input cannot possibly hold before reserving.
    if (uint64_t(n) * 16 > in.size() - pos)
        return bad("block count exceeds payload");
    out.blocks.resize(n);
    for (BlockRec &r : out.blocks)
        if (!getU32(in, pos, r.proc) || !getU32(in, pos, r.block) ||
            !getU64(in, pos, r.count))
            return bad("truncated block record");
    if (!getU32(in, pos, n))
        return bad("truncated edge count");
    if (uint64_t(n) * 20 > in.size() - pos)
        return bad("edge count exceeds payload");
    out.edges.resize(n);
    for (EdgeRec &r : out.edges)
        if (!getU32(in, pos, r.proc) || !getU32(in, pos, r.from) ||
            !getU32(in, pos, r.to) || !getU64(in, pos, r.count))
            return bad("truncated edge record");
    if (!getU32(in, pos, n))
        return bad("truncated path count");
    if (uint64_t(n) * 16 > in.size() - pos)
        return bad("path count exceeds payload");
    out.paths.resize(n);
    for (PathRec &r : out.paths) {
        uint32_t len = 0;
        if (!getU32(in, pos, r.proc) || !getU32(in, pos, len))
            return bad("truncated path record");
        if (uint64_t(len) * 4 > in.size() - pos)
            return bad("path length exceeds payload");
        r.blocks.resize(len);
        for (uint32_t &b : r.blocks)
            if (!getU32(in, pos, b))
                return bad("truncated path blocks");
        if (!getU64(in, pos, r.count))
            return bad("truncated path count field");
    }
    return Status();
}

// ---------------------------------------------------------------------------
// Aggregate

Aggregate::Aggregate(AggregateOptions opts) : opts_(opts)
{
    if (opts_.windows == 0)
        opts_.windows = 1;
}

Aggregate::Bucket &
Aggregate::currentBucket()
{
    Bucket &b = buckets_[epoch_];
    b.epoch = epoch_;
    return b;
}

std::vector<const Aggregate::Bucket *>
Aggregate::liveBuckets() const
{
    const uint64_t oldest =
        epoch_ >= opts_.windows - 1 ? epoch_ - (opts_.windows - 1) : 0;
    std::vector<const Bucket *> out;
    for (const auto &[ep, b] : buckets_)
        if (ep >= oldest && !b.empty())
            out.push_back(&b);
    return out;
}

void
Aggregate::apply(const AdmittedDelta &delta)
{
    Bucket &b = currentBucket();
    auto room = [&]() { return b.keyCount() < opts_.maxKeysPerBucket; };
    for (const auto &r : delta.blocks) {
        const uint64_t key = (uint64_t(r.proc) << 32) | r.block;
        auto it = b.blocks.find(key);
        if (it != b.blocks.end())
            it->second += r.count;
        else if (room())
            b.blocks.emplace(key, r.count);
        else
            ++dropped_keys_;
    }
    for (const auto &r : delta.edges) {
        const auto key = std::pair<uint64_t, uint64_t>(
            r.proc, (uint64_t(r.from) << 32) | r.to);
        auto it = b.edges.find(key);
        if (it != b.edges.end())
            it->second += r.count;
        else if (room())
            b.edges.emplace(key, r.count);
        else
            ++dropped_keys_;
    }
    for (const auto &r : delta.paths) {
        const auto key =
            std::pair<uint32_t, std::vector<uint32_t>>(r.proc, r.blocks);
        auto it = b.paths.find(key);
        if (it != b.paths.end())
            it->second += r.count;
        else if (room())
            b.paths.emplace(key, r.count);
        else
            ++dropped_keys_;
    }
    uint64_t &cursor = last_seq_[delta.clientId];
    if (delta.seq > cursor)
        cursor = delta.seq;
}

void
Aggregate::advanceEpoch(uint64_t newEpoch)
{
    if (newEpoch <= epoch_)
        return;
    epoch_ = newEpoch;
    const uint64_t oldest =
        epoch_ >= opts_.windows - 1 ? epoch_ - (opts_.windows - 1) : 0;
    for (auto it = buckets_.begin(); it != buckets_.end();)
        it = it->first < oldest ? buckets_.erase(it) : std::next(it);
}

uint64_t
Aggregate::lastSeq(const std::string &clientId) const
{
    auto it = last_seq_.find(clientId);
    return it == last_seq_.end() ? 0 : it->second;
}

void
Aggregate::merge(const Aggregate &other)
{
    // Shards observe walltime independently; the merged view adopts
    // the most advanced epoch and then drops whatever rotated out.
    const uint64_t mergedEpoch = std::max(epoch_, other.epoch_);
    for (const auto &[ep, ob] : other.buckets_) {
        if (ob.empty())
            continue;
        Bucket &b = buckets_[ep];
        b.epoch = ep;
        for (const auto &[k, v] : ob.blocks)
            b.blocks[k] += v;
        for (const auto &[k, v] : ob.edges)
            b.edges[k] += v;
        for (const auto &[k, v] : ob.paths)
            b.paths[k] += v;
    }
    for (const auto &[id, seq] : other.last_seq_) {
        uint64_t &cursor = last_seq_[id];
        if (seq > cursor)
            cursor = seq;
    }
    dropped_keys_ += other.dropped_keys_;
    advanceEpoch(mergedEpoch);
}

uint64_t
Aggregate::liveKeys() const
{
    uint64_t n = 0;
    for (const Bucket *b : liveBuckets())
        n += b->keyCount();
    return n;
}

std::vector<uint32_t>
Aggregate::liveProcs() const
{
    std::vector<uint32_t> procs;
    for (const Bucket *b : liveBuckets()) {
        for (const auto &[k, v] : b->blocks)
            procs.push_back(uint32_t(k >> 32));
        for (const auto &[k, v] : b->edges)
            procs.push_back(uint32_t(k.first));
        for (const auto &[k, v] : b->paths)
            procs.push_back(k.first);
    }
    std::sort(procs.begin(), procs.end());
    procs.erase(std::unique(procs.begin(), procs.end()), procs.end());
    return procs;
}

/** Edges and path windows per procedure that enter the hot-path
 *  fingerprint (top-K by count, ties by key). */
constexpr size_t kFingerprintTopK = 4;

std::map<uint32_t, Aggregate::HotSums>
Aggregate::hotSums(std::optional<uint32_t> only) const
{
    std::map<uint32_t, HotSums> sums;
    auto wanted = [&](uint32_t proc) { return !only || *only == proc; };
    for (const Bucket *b : liveBuckets()) {
        for (const auto &[k, v] : b->edges)
            if (wanted(uint32_t(k.first)))
                sums[uint32_t(k.first)].edges[k.second] += v;
        for (const auto &[k, v] : b->paths)
            if (wanted(k.first))
                sums[k.first].paths[k.second] += v;
        // A procedure with block counts alone is live too.
        for (const auto &[k, v] : b->blocks)
            if (wanted(uint32_t(k >> 32)))
                sums[uint32_t(k >> 32)];
    }
    return sums;
}

namespace {

/** The hot-path fingerprint of @p proc from its summed live counts. */
uint64_t
fingerprintOf(uint32_t proc, const std::map<uint64_t, uint64_t> &edgeSum,
              const std::map<std::vector<uint32_t>, uint64_t> &pathSum)
{
    // Top-K by count descending, ties toward the smaller key (the map
    // iteration order), so the selection is deterministic.
    auto topK = [&](const auto &sums, auto hashKey, const char *tag,
                    uint64_t &state) {
        using Entry =
            std::pair<uint64_t, typename std::decay_t<
                                    decltype(sums)>::const_iterator>;
        std::vector<Entry> ranked;
        ranked.reserve(sums.size());
        for (auto it = sums.begin(); it != sums.end(); ++it)
            ranked.push_back({it->second, it});
        std::stable_sort(ranked.begin(), ranked.end(),
                         [](const Entry &a, const Entry &b) {
                             return a.first > b.first;
                         });
        const size_t k = std::min(ranked.size(), kFingerprintTopK);
        state = fnv1a64(tag, std::string(tag).size(), state);
        for (size_t i = 0; i < k; ++i)
            hashKey(ranked[i].second->first, state);
    };

    // Only key identity and rank enter the hash — see the class doc.
    uint64_t fp = fnv1a64Mix(0xcbf29ce484222325ULL, proc);
    topK(edgeSum,
         [](uint64_t key, uint64_t &st) { st = fnv1a64Mix(st, key); },
         "edges", fp);
    topK(pathSum,
         [](const std::vector<uint32_t> &key, uint64_t &st) {
             st = fnv1a64Mix(st, key.size());
             for (uint32_t b : key)
                 st = fnv1a64Mix(st, b);
         },
         "paths", fp);
    return fp == 0 ? 1 : fp; // reserve 0 for "no data"
}

} // namespace

uint64_t
Aggregate::hotFingerprint(uint32_t proc) const
{
    const std::map<uint32_t, HotSums> sums = hotSums(proc);
    const auto it = sums.find(proc);
    return it == sums.end()
               ? 0
               : fingerprintOf(proc, it->second.edges, it->second.paths);
}

std::map<uint32_t, uint64_t>
Aggregate::hotFingerprints() const
{
    std::map<uint32_t, uint64_t> out;
    for (const auto &[proc, sums] : hotSums(std::nullopt))
        out.emplace_hint(out.end(), proc,
                         fingerprintOf(proc, sums.edges, sums.paths));
    return out;
}

void
Aggregate::dumpEdges(profile::EdgeProfiler &ep, uint64_t &skipped) const
{
    std::map<uint64_t, uint64_t> blockSum;
    std::map<std::pair<uint64_t, uint64_t>, uint64_t> edgeSum;
    for (const Bucket *b : liveBuckets()) {
        for (const auto &[k, v] : b->blocks)
            blockSum[k] += v;
        for (const auto &[k, v] : b->edges)
            edgeSum[k] += v;
    }
    for (const auto &[k, v] : blockSum)
        if (!ep.addBlockCount(ir::ProcId(k >> 32),
                              ir::BlockId(k & 0xFFFFFFFFu), v))
            ++skipped;
    for (const auto &[k, v] : edgeSum)
        if (!ep.addEdgeCount(ir::ProcId(k.first),
                             ir::BlockId(k.second >> 32),
                             ir::BlockId(k.second & 0xFFFFFFFFu), v))
            ++skipped;
}

void
Aggregate::dumpPaths(profile::PathProfiler &pp, uint64_t &skipped) const
{
    std::map<std::pair<uint32_t, std::vector<uint32_t>>, uint64_t>
        pathSum;
    for (const Bucket *b : liveBuckets())
        for (const auto &[k, v] : b->paths)
            pathSum[k] += v;
    std::vector<ir::BlockId> seq;
    for (const auto &[k, v] : pathSum) {
        seq.assign(k.second.begin(), k.second.end());
        if (!pp.addPathCount(ir::ProcId(k.first), seq, v))
            ++skipped;
    }
}

std::string
Aggregate::serialize() const
{
    std::string out;
    out += "psagg1"; // magic + version
    putU32(out, opts_.windows);
    putU64(out, epoch_);
    putU64(out, dropped_keys_);

    const auto live = liveBuckets();
    putU32(out, uint32_t(live.size()));
    for (const Bucket *b : live) {
        putU64(out, b->epoch);
        putU32(out, uint32_t(b->blocks.size()));
        for (const auto &[k, v] : b->blocks) {
            putU64(out, k);
            putU64(out, v);
        }
        putU32(out, uint32_t(b->edges.size()));
        for (const auto &[k, v] : b->edges) {
            putU64(out, k.first);
            putU64(out, k.second);
            putU64(out, v);
        }
        putU32(out, uint32_t(b->paths.size()));
        for (const auto &[k, v] : b->paths) {
            putU32(out, k.first);
            putU32(out, uint32_t(k.second.size()));
            for (uint32_t blk : k.second)
                putU32(out, blk);
            putU64(out, v);
        }
    }
    putU32(out, uint32_t(last_seq_.size()));
    for (const auto &[id, seq] : last_seq_) {
        putStr(out, id);
        putU64(out, seq);
    }
    putU64(out, fnv1a64(out.data(), out.size()));
    return out;
}

Status
Aggregate::deserialize(const std::string &blob,
                       const AggregateOptions &opts, Aggregate &out)
{
    auto bad = [](const char *what) {
        return Status::error(ErrorKind::ProfileCorrupt,
                             strfmt("aggregate blob: %s", what));
    };
    if (blob.size() < 6 + 8 || blob.compare(0, 6, "psagg1") != 0)
        return bad("bad magic/version");
    {
        size_t tail = blob.size() - 8;
        uint64_t declared = 0;
        size_t tpos = tail;
        getU64(blob, tpos, declared);
        if (declared != fnv1a64(blob.data(), tail))
            return bad("trailer hash mismatch");
    }
    const std::string body(blob, 0, blob.size() - 8);
    size_t pos = 6;

    out = Aggregate(opts);
    uint32_t windows = 0;
    if (!getU32(body, pos, windows) || !getU64(body, pos, out.epoch_) ||
        !getU64(body, pos, out.dropped_keys_))
        return bad("truncated header");
    if (windows != opts.windows)
        return bad("window count mismatch with configured options");

    uint32_t nbuckets = 0;
    if (!getU32(body, pos, nbuckets))
        return bad("truncated bucket count");
    for (uint32_t i = 0; i < nbuckets; ++i) {
        uint64_t ep = 0;
        if (!getU64(body, pos, ep))
            return bad("truncated bucket epoch");
        Bucket &b = out.buckets_[ep];
        b.epoch = ep;
        uint32_t n = 0;
        if (!getU32(body, pos, n))
            return bad("truncated block map size");
        for (uint32_t j = 0; j < n; ++j) {
            uint64_t k = 0, v = 0;
            if (!getU64(body, pos, k) || !getU64(body, pos, v))
                return bad("truncated block entry");
            b.blocks[k] = v;
        }
        if (!getU32(body, pos, n))
            return bad("truncated edge map size");
        for (uint32_t j = 0; j < n; ++j) {
            uint64_t k1 = 0, k2 = 0, v = 0;
            if (!getU64(body, pos, k1) || !getU64(body, pos, k2) ||
                !getU64(body, pos, v))
                return bad("truncated edge entry");
            b.edges[{k1, k2}] = v;
        }
        if (!getU32(body, pos, n))
            return bad("truncated path map size");
        for (uint32_t j = 0; j < n; ++j) {
            uint32_t proc = 0, len = 0;
            if (!getU32(body, pos, proc) || !getU32(body, pos, len))
                return bad("truncated path entry");
            if (uint64_t(len) * 4 > body.size() - pos)
                return bad("path length exceeds blob");
            std::vector<uint32_t> blocks(len);
            for (uint32_t &blk : blocks)
                if (!getU32(body, pos, blk))
                    return bad("truncated path blocks");
            uint64_t v = 0;
            if (!getU64(body, pos, v))
                return bad("truncated path count");
            b.paths[{proc, std::move(blocks)}] = v;
        }
    }
    uint32_t nclients = 0;
    if (!getU32(body, pos, nclients))
        return bad("truncated client count");
    for (uint32_t i = 0; i < nclients; ++i) {
        std::string id;
        uint64_t seq = 0;
        if (!getStr(body, pos, id) || !getU64(body, pos, seq))
            return bad("truncated client cursor");
        out.last_seq_[id] = seq;
    }
    if (pos != body.size())
        return bad("trailing bytes");
    return Status();
}

uint64_t
Aggregate::contentHash() const
{
    const std::string blob = serialize();
    return fnv1a64(blob.data(), blob.size());
}

} // namespace pathsched::serve
