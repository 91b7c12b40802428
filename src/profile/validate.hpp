/**
 * @file
 * Profile admission control: integrity checks, staleness detection and
 * the per-procedure degradation cascade.
 *
 * Serialized profiles are external inputs: they may be torn, spliced,
 * hand-edited, or collected against an older build of the program.
 * The loaders in profile/serialize.hpp reject what cannot be *parsed*;
 * this module rejects what cannot be *believed*.  It runs semantic
 * checks per procedure and classifies each one:
 *
 *  - Accepted: every check passed; the profile drives scheduling as-is.
 *  - ProjectedEdges (path profiles only): some windows were dropped,
 *    but the survivors still project onto a consistent edge profile.
 *    The procedure degrades from path-based to edge-based trace
 *    selection using that projection — still profile-guided, just with
 *    the weaker point profile of §2.1.
 *  - Quarantined: the procedure's data is stale or irreparable; the
 *    pipeline falls back to the BB baseline for it.
 *
 * The checks exploit two structural facts.  First, projecting each
 * recorded window's count onto its *final* block (resp. final edge)
 * reproduces the exact dynamic block (resp. edge) frequencies, because
 * every dynamic step increments exactly one window ending in the
 * executed block.  Second, real executions therefore satisfy, for
 * every block b, that the windows whose next-to-last block is b (its
 * projected outgoing traversals) count no more than the windows ending
 * in b (its projected executions) — auditPathProfile's flow pass, run
 * when no window was dropped — and every window's count is bounded by
 * the projected count of each edge it contains.  Corrupt counts break
 * these inequalities without any knowledge of the original run.
 *
 * Edge profiles are checked directly against the EdgeProfiler's
 * counting discipline (onEdge bumps the edge and its head block
 * together): inflow(b) must equal blockFreq(b) exactly for b != 0,
 * entry blocks may only exceed their inflow, outflow can never exceed
 * a block's count, and a non-returning block may leak at most one
 * execution (a frame in flight when a training run was cut short).
 *
 * Staleness uses the v2 fingerprints (serialize.hpp): a procedure
 * whose recorded CFG fingerprint differs from cfgFingerprint() of the
 * current IR is quarantined before any count is trusted.  v1 profiles
 * carry no fingerprints and skip this check ("unverified").
 *
 * admitEdgeProfile()/admitPathProfile() are the one way from profile
 * text to an admitted profile; callers admit once, before any pipeline
 * run, which only reads the result (pipeline/pipeline.hpp).
 */

#ifndef PATHSCHED_PROFILE_VALIDATE_HPP
#define PATHSCHED_PROFILE_VALIDATE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "profile/serialize.hpp"
#include "support/status.hpp"

namespace pathsched::profile {

/** How the pipeline treats externally loaded profiles. */
enum class AdmissionMode : uint8_t
{
    Off,    ///< trust the file; no semantic checks (historic behaviour)
    Repair, ///< check, degrade per procedure, never fail the run
    Strict, ///< check; any finding fails the load with a typed error
};

/** Parse an admission-mode token ("off", "repair", "strict"); false
 *  on an unknown token. */
bool parseAdmissionMode(const std::string &token, AdmissionMode &out);

/** Admission outcome for one procedure. */
enum class ProcAction : uint8_t
{
    Accepted,       ///< profile data admitted unchanged
    ProjectedEdges, ///< path data degraded to a projected edge profile
    Quarantined,    ///< no trustworthy data; schedule from the BB baseline
};

/** Stable display name ("accepted", "projected-edges", "quarantined"). */
const char *procActionName(ProcAction action);

/** One procedure's non-clean admission record. */
struct ProcAudit
{
    ir::ProcId proc = 0;
    std::string procName;
    ProcAction action = ProcAction::Accepted;
    /** Failure classification (ProfileCorrupt or ProfileStale). */
    ErrorKind kind = ErrorKind::ProfileCorrupt;
    std::string message;
    /** Windows dropped from this procedure during repair. */
    uint64_t droppedPaths = 0;
};

/** Whole-profile admission verdict. */
struct ProfileAudit
{
    /** Admission ran (mode was not Off). */
    bool enabled = false;
    /** The file itself was rejected (load failure); procs is empty and
     *  the pipeline substitutes its internal training profile. */
    bool fileRejected = false;
    /** The load failure behind fileRejected (OK otherwise). */
    Status fileStatus;
    /** Every non-Accepted procedure, in procedure-id order. */
    std::vector<ProcAudit> procs;

    /** Procedures examined. */
    uint64_t checked = 0;
    /** Procedures degraded to a projected edge profile. */
    uint64_t repaired = 0;
    /** Procedures quarantined to the BB baseline. */
    uint64_t quarantined = 0;
    /** Procedures rejected for a fingerprint (staleness) mismatch. */
    uint64_t staleProcs = 0;
    /** Total windows/records dropped (parse-time and check-time). */
    uint64_t droppedPaths = 0;

    /** True when admission found nothing wrong. */
    bool
    clean() const
    {
        return !fileRejected && procs.empty() && droppedPaths == 0;
    }

    /** The audit record for @p p, or nullptr when @p p was accepted. */
    const ProcAudit *findProc(ir::ProcId p) const;
};

/**
 * Project every recorded window of @p pp onto final-block / final-edge
 * counts, accumulated into @p out (an EdgeProfiler over the same
 * program).  For a profile collected by a real run this reproduces the
 * exact dynamic block and edge frequencies whenever the window can
 * hold two blocks (maxBranches >= 1, maxBlocks >= 2).
 */
void projectPathsToEdges(const PathProfiler &pp, EdgeProfiler &out);

/**
 * Audit @p ep (typically loaded from text) against the current
 * program.  Fills @p audit; in Strict mode the first finding is also
 * returned as a typed error.  Never modifies @p ep — quarantined
 * procedures are handled by the caller's cascade.
 */
Status auditEdgeProfile(const ir::Program &prog, const EdgeProfiler &ep,
                        const ProfileMeta &meta, AdmissionMode mode,
                        ProfileAudit &audit);

/**
 * Audit @p pp against the current program.  @p pp must hold raw
 * (pre-finalize or finalize-preserved) window counts.  For every
 * procedure degraded to ProjectedEdges, the surviving windows'
 * projection is accumulated into @p projected when non-null (an
 * EdgeProfiler over the same program); the caller schedules those
 * procedures from it in edge mode.  Strict mode returns the first
 * finding as a typed error.
 */
Status auditPathProfile(const ir::Program &prog, const PathProfiler &pp,
                        const ProfileMeta &meta, AdmissionMode mode,
                        ProfileAudit &audit, EdgeProfiler *projected);

/** An edge profile after admitEdgeProfile().  When audit.fileRejected
 *  is set, `profile` must not be consumed (the pipeline falls back to
 *  its internal training profile). */
struct AdmittedEdgeProfile
{
    explicit AdmittedEdgeProfile(const ir::Program &prog) : profile(prog)
    {}

    EdgeProfiler profile;
    ProfileMeta meta;
    ProfileAudit audit;
};

/** A path profile after admitPathProfile(); as AdmittedEdgeProfile. */
struct AdmittedPathProfile
{
    AdmittedPathProfile(const ir::Program &prog,
                        const PathProfileParams &params)
        : profile(prog, params), projected(prog)
    {}

    /** Finalized unless the file was rejected. */
    PathProfiler profile;
    /** Edge projection of every ProjectedEdges procedure's survivors. */
    EdgeProfiler projected;
    ProfileMeta meta;
    ProfileAudit audit;
};

/**
 * Admit the edge-profile text @p text against @p prog: load it
 * (leniently exactly when @p mode is Repair), audit it, and fill
 * @p out.  Repair never fails: a file the loader rejects is recorded
 * as audit.fileRejected.  Strict returns the load failure or the first
 * audit finding as a typed error; Off returns a load failure and runs
 * no audit.  On a non-OK return @p out must not be consumed.
 */
Status admitEdgeProfile(const std::string &text, const ir::Program &prog,
                        AdmissionMode mode, AdmittedEdgeProfile &out);

/** Path-profile counterpart of admitEdgeProfile; @p params must match
 *  the file's declared parameters. */
Status admitPathProfile(const std::string &text, const ir::Program &prog,
                        const PathProfileParams &params,
                        AdmissionMode mode, AdmittedPathProfile &out);

} // namespace pathsched::profile

#endif // PATHSCHED_PROFILE_VALIDATE_HPP
