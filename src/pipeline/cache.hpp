/**
 * @file
 * Memoized stage cache: fingerprint-keyed reuse of transformed
 * procedures.
 *
 * Profile-driven pipelines are rerun constantly with mostly-unchanged
 * inputs — a batch sweep over configs × workloads reschedules the same
 * procedures again and again.  StageCache memoizes the expensive part:
 * the per-procedure transform chain (form → compact → regalloc), keyed
 * by everything that can influence its output:
 *
 *  - the structural CFG fingerprint (profile::cfgFingerprint) *and* a
 *    content hash of the procedure's canonical binary serialization
 *    (the fingerprint alone ignores instruction payloads);
 *  - a content hash of the profile slice driving formation for that
 *    procedure (edge records or path windows, combined commutatively
 *    so unordered-map iteration order cannot leak into the key);
 *  - the scheduling backend (its registry name, plus the formation
 *    knobs when it forms superblocks) and the machine model hash.
 *
 * A hit restores the post-regalloc procedure body along with the
 * per-procedure stage counters and spill-slot count, so a warm run
 * reports the same statistics as a cold one.  Cached bodies keep their
 * spill offsets *sentinel-relative* (regalloc::kSpillSlotBase): the
 * executor rebases them in procedure-id order at its serial join,
 * which is what makes a cached body position-independent — it can be
 * reused in a run where other procedures spilled differently.
 *
 * The cache is two-tier: an in-memory map (always) and an optional
 * on-disk directory (--cache-dir) holding one checksummed binary file
 * per key, so separate processes of a batch sweep can share work.  A
 * torn, truncated or corrupted file fails its checksum and is treated
 * as a miss — admission control for cache entries; a stale entry
 * cannot exist because the key covers every input.
 *
 * Thread safety: lookup/insert are mutex-guarded and safe to call from
 * concurrent executor tasks.
 */

#ifndef PATHSCHED_PIPELINE_CACHE_HPP
#define PATHSCHED_PIPELINE_CACHE_HPP

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "form/form.hpp"
#include "ir/procedure.hpp"
#include "machine/machine.hpp"
#include "regalloc/linear_scan.hpp"
#include "sched/compact.hpp"
#include "support/vio.hpp"

namespace pathsched::pipeline {

/** 128-bit content key: two independently-seeded FNV-1a streams over
 *  the same input bytes. */
struct CacheKey
{
    uint64_t lo = 0;
    uint64_t hi = 0;

    bool
    operator==(const CacheKey &o) const
    {
        return lo == o.lo && hi == o.hi;
    }
};

/**
 * Incremental CacheKey builder.  Feed it the key material (bytes,
 * integers, doubles-as-bit-patterns); every u64() goes through a fixed
 * little-endian encoding so keys are stable across platforms.
 */
class KeyHasher
{
  public:
    KeyHasher &bytes(const void *data, size_t size);
    KeyHasher &u64(uint64_t v);
    KeyHasher &str(const std::string &s);

    CacheKey
    key() const
    {
        return {lo_, hi_};
    }

  private:
    uint64_t lo_ = 0xcbf29ce484222325ULL; ///< FNV-1a offset basis
    uint64_t hi_ = 0x6c62272e07bb0142ULL; ///< independent second basis
};

/** Cumulative counters over the cache's lifetime (may span runs). */
struct StageCacheStats
{
    uint64_t hits = 0;     ///< lookups served (memory or disk)
    uint64_t misses = 0;   ///< lookups that found nothing
    uint64_t diskHits = 0; ///< subset of hits loaded from --cache-dir
    uint64_t stores = 0;   ///< entries inserted
    uint64_t corrupt = 0;  ///< disk entries rejected by the checksum
    uint64_t diskFailures = 0; ///< disk-tier write faults observed
};

/** Two-tier memoization of transformed procedures; see file comment. */
class StageCache
{
  public:
    /** @p dir is the optional on-disk tier; empty = memory only.  The
     *  directory must already exist (the CLI creates it).  Disk writes
     *  go through @p vio under the "cache" label (nullptr = the system
     *  passthrough); the first write fault disables the disk tier for
     *  the rest of the run — the memory tier, and therefore the run's
     *  output, is unaffected. */
    explicit StageCache(std::string dir = "", Vio *vio = nullptr);

    /** Everything a warm run needs to skip one procedure's transform
     *  chain and still report identical results. */
    struct Entry
    {
        /** Post-regalloc body, spill offsets sentinel-relative. */
        ir::Procedure proc;
        /** Local spill slots the body references (rebase input). */
        uint64_t spillSlots = 0;
        form::FormStats form;
        sched::CompactStats compact;
        regalloc::AllocStats alloc;
    };

    /** True and fills @p out when @p key is cached (either tier). */
    bool lookup(const CacheKey &key, Entry &out);

    /** Memoize @p entry under @p key (and persist it when a disk tier
     *  is configured — torn writes are defeated by temp-file rename
     *  plus the checksum on read). */
    void insert(const CacheKey &key, const Entry &entry);

    StageCacheStats stats() const;

    /** True once a disk-tier write fault has sidelined the tier. */
    bool diskDisabled() const;

    const std::string &
    dir() const
    {
        return dir_;
    }

  private:
    struct KeyHash
    {
        size_t
        operator()(const CacheKey &k) const
        {
            return size_t(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ULL));
        }
    };

    std::string filePath(const CacheKey &key) const;

    std::string dir_;
    Vio *vio_;
    mutable std::mutex mu_;
    std::unordered_map<CacheKey, Entry, KeyHash> map_;
    StageCacheStats stats_;
    bool disk_disabled_ = false;
};

/**
 * Canonical binary serialization of @p proc (fixed-width little-endian
 * fields, every Instruction member included) appended to @p out — the
 * cache's persistence format and the content-hash input for keys.
 */
void serializeProcedure(const ir::Procedure &proc, std::string &out);

/** Inverse of serializeProcedure, reading at @p pos (advanced past the
 *  record).  False on truncated or malformed input, @p out then
 *  unspecified. */
bool deserializeProcedure(const std::string &in, size_t &pos,
                          ir::Procedure &out);

/** Hash of every MachineModel field that can change a schedule. */
uint64_t hashMachineModel(const machine::MachineModel &mm);

} // namespace pathsched::pipeline

#endif // PATHSCHED_PIPELINE_CACHE_HPP
