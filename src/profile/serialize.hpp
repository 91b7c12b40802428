/**
 * @file
 * Textual serialization of profiles.
 *
 * The paper's compiler collects profiles in an instrumented training
 * run and consumes them in a separate compilation (§3.1).  This module
 * provides the equivalent persistence: both profilers round-trip
 * through a line-oriented text format, so a training run and the
 * formation pass can live in different processes.
 *
 * v1 formats (one record per line):
 *
 *   edgeprofile v1
 *   block <proc> <block> <count>
 *   edge <proc> <from> <to> <count>
 *
 *   pathprofile v1 <maxBranches> <maxBlocks> <forward:0|1>
 *   path <proc> <count> <len> <b1> ... <blen>     (oldest block first)
 *
 * v2 adds integrity metadata and is otherwise a superset of v1:
 *
 *   edgeprofile v2 crc <16-hex>
 *   pathprofile v2 <maxBranches> <maxBlocks> <forward> crc <16-hex>
 *   fingerprint <proc> <16-hex>
 *   ... v1 block/edge/path records ...
 *
 *  - `crc` is the FNV-1a 64-bit hash of every byte *after* the header
 *    line's newline.  Any torn write, bit rot, or splice in the body
 *    fails the whole-file check (ErrorKind::ProfileCorrupt).
 *  - `fingerprint` records cfgFingerprint() of each procedure at
 *    collection time, so a consumer compiling a *different* program
 *    version can detect staleness per procedure (profile/validate.hpp).
 *
 * cfgFingerprint() is a structural hash of one procedure's CFG: FNV-1a
 * over the block count followed by, per block, its successor count,
 * successor ids (in successorsOf() order), and branch arity (1 for a
 * conditional BrNz/BrZ terminator, else 0).  Instruction contents do
 * not participate, so pure data-flow edits keep a profile fresh while
 * any CFG reshaping invalidates it.
 *
 * v1 files load fine through every entry point here; they simply carry
 * no checksum or fingerprints and therefore admit as "unverified"
 * (ProfileMeta::hasChecksum == false, empty fingerprint list).
 */

#ifndef PATHSCHED_PROFILE_SERIALIZE_HPP
#define PATHSCHED_PROFILE_SERIALIZE_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "profile/edge_profile.hpp"
#include "profile/path_profile.hpp"
#include "support/hash.hpp"
#include "support/status.hpp"

namespace pathsched::profile {

/** Structural CFG hash of @p proc (see the file comment). */
uint64_t cfgFingerprint(const ir::Procedure &proc);

/**
 * Integrity metadata recovered while loading a serialized profile.
 * For v1 files only `version` is meaningful.
 */
struct ProfileMeta
{
    int version = 1;
    /** v2: a `crc` field was present in the header. */
    bool hasChecksum = false;
    /** v2: the body hashed to the declared checksum. */
    bool checksumOk = true;
    /** v2 `fingerprint` records, in file order: (proc, fingerprint). */
    std::vector<std::pair<uint32_t, uint64_t>> fingerprints;
    /** Lenient mode: records dropped instead of failing the file. */
    uint64_t recordsSkipped = 0;
    /** Procedures named by at least one dropped record (deduplicated;
     *  may include ids out of range for the current program). */
    std::vector<uint32_t> skippedProcs;
    /** Dropped records whose proc field itself was unreadable. */
    uint64_t unattributedSkips = 0;

    /** Fingerprint recorded for @p proc, or false. */
    bool fingerprintFor(uint32_t proc, uint64_t &out) const;
};

/** Loader behaviour toggles. */
struct LoadOptions
{
    /**
     * Skip (and count in ProfileMeta) malformed or out-of-range
     * records instead of failing the whole file.  File-level problems
     * — an unreadable header, a parameter mismatch, a checksum
     * mismatch — still fail.  This is the admission layer's repair
     * mode; the default matches the historical all-or-nothing parse.
     */
    bool lenient = false;
};

/** Render @p ep as v1 text. */
std::string toText(const EdgeProfiler &ep);

/** Render @p pp as v1 text (raw window counts; finalization optional). */
std::string toText(const PathProfiler &pp);

/** Render @p ep as v2 text: checksum plus one fingerprint per
 *  procedure of @p prog (the program the profile was collected on). */
std::string toTextV2(const EdgeProfiler &ep, const ir::Program &prog);

/** v2 render of @p pp; same contract as the edge overload. */
std::string toTextV2(const PathProfiler &pp, const ir::Program &prog);

/**
 * Parse @p text (v1 or v2) into @p ep, *adding* counts to whatever is
 * already recorded so profiles from several runs can be merged.
 * Never panics on any input.  Error kinds: BadProfile for malformed
 * text, ProfileCorrupt for a failed v2 checksum.
 */
Status loadEdgeProfile(const std::string &text, EdgeProfiler &ep,
                       ProfileMeta &meta,
                       const LoadOptions &opts = LoadOptions());

/**
 * Parse @p text (v1 or v2) into @p pp; counts merge additively.
 * @p pp must not be finalized and must match the declared parameters —
 * both are *typed* errors here (BadProfile / ProfileStale), reachable
 * from file input, never an assert.
 */
Status loadPathProfile(const std::string &text, PathProfiler &pp,
                       ProfileMeta &meta,
                       const LoadOptions &opts = LoadOptions());

} // namespace pathsched::profile

#endif // PATHSCHED_PROFILE_SERIALIZE_HPP
