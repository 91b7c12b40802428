/**
 * @file
 * The scheduler-backend registry: configuration dispatch as data.
 *
 * A scheduling configuration is one descriptor per backend, a row of
 * plain data, so no code outside the registry re-derives its meaning
 * from `config == SchedConfig::P4`-style predicates:
 *
 *  - a stable *name* ("P4", "M16") that is the string key for
 *    `--config` parsing everywhere;
 *  - a *formation preset* (profile kind, unroll factor, superblock-loop
 *    heads, non-loop stop rule) that formConfigFor() copies into a
 *    form::FormConfig;
 *  - *capability queries* derived from the preset —
 *    needsEdgeProfile()/needsPathProfile()/hasTransform() — that
 *    answer every "which profile does this config consume?" question
 *    (training-listener attachment, profile admission, the serving
 *    loop's reschedule inputs);
 *  - a per-procedure Status-returning *transform* entry point (the
 *    "form" slot of the pipeline's task chain) following the
 *    src/pipeline/stages.hpp conventions.  The chain around it owns
 *    quarantine, budgets and fault injection, so the backend knows
 *    nothing of them.
 *
 * The registry is a constant table holding the paper's five
 * configurations (§4), in SchedConfig order.  The fuzz oracle,
 * `--config all`, the batch sweep and the serving loop all read it
 * through allBackends(), so a new row (plus its
 * enumerator) is the only edit a new configuration of the superblock
 * former needs.
 */

#ifndef PATHSCHED_PIPELINE_BACKEND_HPP
#define PATHSCHED_PIPELINE_BACKEND_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/pipeline.hpp"

namespace pathsched::pipeline {

/** Everything a backend's transform stage may read, assembled by the
 *  pipeline per procedure.  Pointers follow the capability queries: a
 *  profile pointer is meaningful only when the matching capability is
 *  set (the internal training profile otherwise carries zero counts). */
struct TransformContext
{
    SchedConfig config = SchedConfig::BB;
    const PipelineOptions *opt = nullptr;
    /** Admitted edge profile (external or internal training). */
    const profile::EdgeProfiler *edge = nullptr;
    /** Admitted, finalized path profile. */
    const profile::PathProfiler *path = nullptr;
    /** Edge projection of a partially-admitted path profile. */
    const profile::EdgeProfiler *projectedEdge = nullptr;
    /** Admission degraded this procedure's path windows: a
     *  path-consuming backend must fall back to projectedEdge. */
    bool useProjectedEdges = false;
    /** "time.<config>."-prefixed observer for pass timers. */
    const obs::Observer *timed = nullptr;
};

/** Counters a transform stage fills. */
struct TransformStats
{
    form::FormStats form;
};

/** The profile a backend's superblock formation consumes; None means
 *  the backend forms no superblocks (the BB baseline). */
enum class FormProfile
{
    None,
    Edge,
    Path,
};

/** One scheduling backend: a row of the registry table in backend.cpp. */
struct BackendDesc
{
    SchedConfig config = SchedConfig::BB;
    /** Stable display/parse name, e.g. "P4e". */
    const char *name = "";
    /** One-line description for --help and docs. */
    const char *summary = "";

    /** @name Formation preset, copied by formConfigFor() @{ */
    FormProfile profile = FormProfile::None;
    /** Edge scheme: loop unrolling factor. */
    uint32_t unrollFactor = 4;
    /** Path scheme: superblock-loop heads allowed per trace. */
    uint32_t maxLoopHeads = 4;
    /** Non-loop superblocks stop enlarging at any head ("P4e"). */
    bool nonLoopStopsAtAnyHead = false;
    /** @} */

    /** Timing/deadline/degradation label of the transform stage. */
    static constexpr const char *transformLabel = "form";

    /** @name Capability queries — the only sanctioned way to ask what
     *  a configuration needs; raw SchedConfig comparisons outside the
     *  registry are rejected by backend_registry_test's guard. @{ */
    bool needsEdgeProfile() const { return profile == FormProfile::Edge; }
    bool needsPathProfile() const { return profile == FormProfile::Path; }
    bool needsProfile() const { return profile != FormProfile::None; }
    /** Forms superblocks; gates the "form.<cfg>.*" counters. */
    bool hasTransform() const { return profile != FormProfile::None; }
    /** @} */

    /**
     * Per-procedure transform entry point (the chain head before
     * compact -> regalloc), per stages.hpp: forms superblocks over
     * @c prog's procedure @c proc in place and returns a Status — non-OK
     * sends the procedure through the quarantine path, which restores
     * its original body.  @c failedStage is set to transformLabel, the
     * stage every failure of the transform is attributed to.  Only
     * valid when hasTransform().
     */
    Status transform(ir::Program &prog, ir::ProcId proc,
                     const TransformContext &ctx, TransformStats &stats,
                     const char **failedStage) const;
};

/** Derive the FormConfig @p be stands for: its preset plus the
 *  formation knobs of @p options. */
form::FormConfig formConfigFor(const BackendDesc &be,
                               const PipelineOptions &options);

/** The profile kinds @p be reads. */
ProfileNeeds needsOf(const BackendDesc &be);

/** The union of needsOf() over @p backends: what one PreparedWorkload
 *  shared by all of them must collect. */
ProfileNeeds needsOf(const std::vector<const BackendDesc *> &backends);

/** Descriptor of @p config. */
const BackendDesc &backendFor(SchedConfig config);

/** Descriptor named @p name, or null — the string-keyed lookup behind
 *  every tool's --config parsing. */
const BackendDesc *findBackend(const std::string &name);

/** Every backend, in SchedConfig order: BB, M4, M16, P4, P4e.  This
 *  order is the canonical config list of `--config all`, the batch
 *  sweep and the fuzz oracle. */
const std::vector<const BackendDesc *> &allBackends();

/** Backend names in canonical order joined by @p sep — the one source
 *  of every tool's config list in usage text. */
std::string backendNames(const char *sep);

} // namespace pathsched::pipeline

#endif // PATHSCHED_PIPELINE_BACKEND_HPP
