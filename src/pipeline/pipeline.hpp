/**
 * @file
 * End-to-end experiment pipeline.
 *
 * Reproduces the paper's back-end flow (§2.3, §3): profile the original
 * program on the training input, form superblocks (edge- or
 * path-driven), optimize/rename/preschedule, allocate registers,
 * postschedule, place procedures (Pettis-Hansen), then measure the
 * transformed program on the test input — optionally through the
 * 32 KB direct-mapped I-cache.  Every pipeline run checks that the
 * transformed program's output matches the original's.  A profile
 * collected in another run (§3.1) arrives already admitted
 * (profile/validate.hpp) through PipelineOptions::profileInput; the
 * pipeline never parses profile text.
 *
 * A run has two halves.  prepareWorkload() does the work that does not
 * depend on the backend — verify the input, one training run that
 * collects exactly the profile kinds asked for, one reference run of
 * the original program — and runBackend() does the rest for one
 * backend.  Callers that run several backends on one program share
 * one PreparedWorkload, as the paper profiles once and builds all five
 * schedules from that profile (§3, §4); runPipeline() is the
 * one-backend form, preparing only the kinds its backend reads.
 *
 * The per-procedure stages run as one parallel-for over procedures
 * (pipeline/executor.hpp): each procedure's chain — transform, compact,
 * regalloc, postsched, verify — runs back to back on one worker, so
 * independent procedures proceed in parallel, and one serial join
 * merges their results in procedure-id order, while the whole-program
 * stages (training run, layout, measurement, output comparison) stay
 * serial.  An N-thread run is bit-identical to a 1-thread run — see
 * docs/architecture.md for the invariants that guarantee it.
 *
 * The pipeline is fault-tolerant per procedure (docs/robustness.md):
 * when any transform stage fails for one procedure — or the
 * post-transform verification or output-equivalence check implicates
 * one — that procedure alone is degraded to the always-safe BB
 * configuration and the run completes, recording the degradation in
 * PipelineResult::degraded and the "robust.<config>.*" counters.  Only
 * a failure of the BB fallback itself aborts the run.
 */

#ifndef PATHSCHED_PIPELINE_PIPELINE_HPP
#define PATHSCHED_PIPELINE_PIPELINE_HPP

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "form/form.hpp"
#include "icache/icache.hpp"
#include "layout/code_layout.hpp"
#include "interp/interpreter.hpp"
#include "ir/procedure.hpp"
#include "machine/machine.hpp"
#include "obs/timer.hpp"
#include "profile/edge_profile.hpp"
#include "profile/path_profile.hpp"
#include "profile/validate.hpp"
#include "regalloc/linear_scan.hpp"
#include "sched/compact.hpp"
#include "support/budget.hpp"
#include "support/faultinject.hpp"
#include "support/status.hpp"

namespace pathsched::pipeline {

struct BackendDesc;

/**
 * The paper's five scheduling configurations (§4).  An enumerator is
 * only a stable identifier — everything a configuration *means* (its
 * name, formation preset, profile needs) lives in its BackendDesc row
 * (pipeline/backend.hpp); query the descriptor instead of comparing
 * enumerators.
 */
enum class SchedConfig
{
    BB,  ///< basic-block scheduling (Table 1 baseline)
    M4,  ///< edge profile, mutual-most-likely, unroll factor 4
    M16, ///< edge profile, mutual-most-likely, unroll factor 16
    P4,  ///< path profile, <= 4 superblock-loop heads (§2.2)
    P4e, ///< P4 with non-loop superblocks capped at tail duplication
};

/** Short display name, e.g. "P4e". */
const char *configName(SchedConfig config);

/** @name PipelineOptions option groups
 *
 * Non-paper concerns are grouped by subsystem instead of accreting as
 * flat fields: profile admission (profileInput), governance and fault
 * injection (robustness), stat/trace sinks (observability), and the
 * per-procedure parallel-for (executor).  The paper's
 * own knobs — machine model, formation and scheduling parameters —
 * stay flat on PipelineOptions, mirroring §3/§4 of the paper.
 * @{
 */

/** Externally supplied profiles, already admitted (docs/robustness.md).
 *
 * Admission (profile::admitEdgeProfile / admitPathProfile) runs once,
 * before the pipeline, which only reads the result: one admitted
 * profile may be shared by many runs and threads.  A set pointer of
 * the kind the backend reads replaces that training profile, unless
 * its audit records a rejected file (the pipeline then warns and
 * profiles the training run itself).  Audit findings degrade per
 * procedure (path -> projected edges -> BB), recorded in
 * PipelineResult::profileAudit.  With both null the pipeline is
 * bit-identical to a build without this layer. */
struct ProfileInput
{
    const profile::AdmittedEdgeProfile *edges = nullptr; ///< M4/M16
    const profile::AdmittedPathProfile *paths = nullptr; ///< P4/P4e
};

/** Resource governance and fault injection (docs/robustness.md). */
struct RobustnessOptions
{
    /**
     * A run-wide deadline and an interpreter step budget.  A chain
     * that finds the deadline expired at a stage boundary stops there,
     * degrading nothing, and the run ends with a typed
     * DeadlineExceeded status; a measured test run over the step
     * budget degrades the procedure it stopped in to BB.
     * Default-constructed = no governance: the pipeline behaves
     * bit-identically to an unbudgeted run.
     */
    ResourceBudget budget;

    /**
     * Optional fault injector (not owned; see support/faultinject.hpp).
     * runPipeline consults it at every per-procedure stage boundary
     * ("form", "materialize", "compact", "regalloc", "verify",
     * "output-compare") and treats a hit exactly like a real failure
     * of that stage, degrading the procedure to BB.  Quarantined
     * procedures and the BB fallback itself are never re-injected, so
     * an armed fault cannot make the fallback fail.  Null disables
     * injection entirely.  The injector locks itself, so injection is
     * safe (though attribution of count=/prob= faults is
     * scheduling-dependent) under a multi-threaded executor.
     */
    FaultInjector *faults = nullptr;
};

/** Observability sinks (docs/observability.md).
 *
 * With an observer attached, every stage registers its counters
 * ("<stage>.<config>.<counter>", e.g. "form.P4.superblocks") and
 * wall-time distributions ("time.<config>.<stage>") into
 * observer->stats, and emits trace events into observer->trace.  Both
 * sinks are optional; a null observer costs nothing beyond the
 * per-stage clock reads that fill PipelineResult::stages.
 * Per-procedure tasks record into private registries that merge into
 * observer->stats at the serial join, in procedure-id order — counter
 * totals are thread-count-invariant; their trace events are only
 * emitted from single-threaded runs. */
struct ObsOptions
{
    const obs::Observer *observer = nullptr;
};

/** Per-procedure parallelism (docs/architecture.md). */
struct ExecutorOptions
{
    /** Worker threads for the per-procedure stage chains; 1 = run
     *  inline on the calling thread, 0 = one per hardware thread.
     *  Output is bit-identical for every value. */
    unsigned threads = 1;
    /** Always null, and nothing reads it: it is kept only because
     *  perfbench/main.cpp:506 assigns it, and goes with the next
     *  change to the benchmark. */
    std::nullptr_t cache = nullptr;
};
/** @} */

/** Everything configurable about one pipeline run. */
struct PipelineOptions
{
    machine::MachineModel machine = machine::MachineModel::unitLatency();
    /** Attach the I-cache during the test run (Figs. 5/6). */
    bool useICache = false;
    icache::ICache::Params cacheParams;
    /** Always on: every measured procedure runs on the machine's
     *  registers.  A constant, kept because perfbench/replay.cpp reads
     *  it. */
    static constexpr bool registerAllocate = true;
    /** Order procedures with Pettis-Hansen placement. */
    bool pettisHansen = true;
    /** Block address order within procedures (hot-first ablation). */
    layout::BlockOrder blockOrder = layout::BlockOrder::ById;
    /** Path-profiler depth etc. (paper: 15 branches). */
    profile::PathProfileParams pathParams;
    /** Enlargement gate: required completion frequency. */
    double completionThreshold = 0.50;
    /** Superblock instruction-count cap. */
    uint32_t maxInstrs = 256;
    /** Disable the enlargement step entirely (ablation). */
    bool enlarge = true;
    /** Also grow traces upward from seeds (footnote 2 ablation). */
    bool growUpward = false;
    /** List-scheduler candidate priority (ablation). */
    sched::SchedPriority schedPriority =
        sched::SchedPriority::CriticalPath;
    /** Interpreter step ceiling (the runaway guard; the default is the
     *  interpreter's own, so the two can never drift apart). */
    uint64_t maxSteps = interp::kDefaultMaxSteps;
    /** Keep the transformed program in PipelineResult::transformed
     *  (for tests and tools that inspect the scheduled IR). */
    bool keepTransformed = false;

    /** @name Option groups (see above) @{ */
    ProfileInput profileInput;
    RobustnessOptions robustness;
    ObsOptions observability;
    ExecutorOptions executor;
    /** @} */
};

/** One procedure degraded to the BB baseline during a pipeline run. */
struct Degradation
{
    ir::ProcId proc = 0;
    std::string procName;
    /** Stage boundary that failed: "profile" (admission quarantined
     *  the procedure before its transform), "form", "materialize",
     *  "compact", "regalloc", "verify", "output-compare", or
     *  "interp" (the measured test run blew its step budget inside
     *  this procedure). */
    std::string stage;
    ErrorKind kind = ErrorKind::Injected;
    std::string message;
};

/** Executor activity of one run (report: "executor"). */
struct ExecReport
{
    unsigned threads = 1;       ///< resolved worker thread count
    uint64_t tasks = 0;         ///< procedures x per-procedure stages run
};

/** Measurements from one (program, config) pipeline run. */
struct PipelineResult
{
    SchedConfig config = SchedConfig::BB;
    std::string name;

    interp::RunResult test;   ///< the measured (transformed) test run
    form::FormStats form;
    sched::CompactStats compact;
    regalloc::AllocStats alloc;

    uint64_t codeBytes = 0;   ///< laid-out binary size
    size_t numPaths = 0;      ///< distinct paths in the formation profile
    uint64_t trainSteps = 0;  ///< dynamic ops in the training run
    bool outputMatches = false; ///< transformed output == original output

    /**
     * Overall run status.  Non-OK means the run could not complete at
     * all (invalid input program, training/reference run over the step
     * ceiling) and the measurement fields are not meaningful.  A
     * *degraded* run — some procedures fell back to BB — still
     * completes with an OK status; check degradedRun().
     */
    Status status;
    /** Procedures degraded to BB: failures inside the per-procedure
     *  chains (profile, form, materialize, compact, regalloc, verify)
     *  in procedure-id order, then the degradations of the measured
     *  run ("interp") and the output comparison ("output-compare") in
     *  the order found.  Identical for every thread count. */
    std::vector<Degradation> degraded;
    /** The run completed but at least one procedure fell back to BB. */
    bool degradedRun() const { return !degraded.empty(); }
    /** The run was governed by a non-empty ResourceBudget. */
    bool budgeted = false;
    /** Admission verdict on externally supplied profiles (enabled is
     *  false when no external profile was checked). */
    profile::ProfileAudit profileAudit;
    /** The transformed program, when keepTransformed was set and the
     *  run completed. */
    std::shared_ptr<const ir::Program> transformed;
    /** Degradations caused by an exhausted step budget (an expired
     *  deadline degrades nothing). */
    size_t budgetDegradations() const;

    /** Executor activity (threads, tasks).
     *  Always filled, even for single-threaded runs. */
    ExecReport exec;

    /** Wall time of every pipeline stage, in execution order (always
     *  collected; independent of the observer).  Per-procedure stages
     *  report the sum of their tasks' wall times.  The "train" and
     *  "verify" rows time the shared PreparedWorkload's runs: only the
     *  first result built from it carries their ms, later ones 0. */
    std::vector<obs::StageTiming> stages;

    /** Total wall time across stages, ms. */
    double totalMs() const;
};

/** Profile kinds a training run collects: the union of
 *  needsEdgeProfile()/needsPathProfile() over the backends that will
 *  share one PreparedWorkload (needsOf() in pipeline/backend.hpp). */
struct ProfileNeeds
{
    bool edges = false;
    bool paths = false;

    ProfileNeeds &
    operator|=(const ProfileNeeds &o)
    {
        edges |= o.edges;
        paths |= o.paths;
        return *this;
    }
};

/**
 * The backend-independent half of a pipeline run on one program, built
 * by prepareWorkload() and never modified afterwards, so any number of
 * runBackend() calls on any threads may share it.  It refers to the
 * program and inputs it was built from, which must outlive it.
 */
struct PreparedWorkload
{
    const ir::Program *program = nullptr;
    const interp::ProgramInput *train = nullptr;
    const interp::ProgramInput *test = nullptr;
    /** The options the profiles and runs were built with; runBackend
     *  asserts that its own options agree. */
    profile::PathProfileParams pathParams;
    uint64_t maxSteps = 0;

    /** Non-OK when the input program failed verification or the
     *  training or reference run stopped early; every runBackend()
     *  then returns it unchanged, so it is attributed once. */
    Status status;
    /** The training run: dynInstrs and the call counts Pettis-Hansen
     *  placement reads. */
    interp::RunResult training;
    /** The Pettis-Hansen procedure order of the training call counts,
     *  which every backend's layout shares: placement skips the
     *  zero-weight static edges, so a backend's rewrites cannot change
     *  it. */
    std::vector<ir::ProcId> placement;
    /** Training profiles of the kinds asked for, unless an admitted
     *  external profile of that kind (whose file was not rejected)
     *  replaced it.  The path profile is finalized. */
    std::optional<profile::EdgeProfiler> edges;
    std::optional<profile::PathProfiler> paths;
    /** The original program on the test input: the output every
     *  transformed program must reproduce. */
    interp::RunResult reference;

    /** Wall time of one run of the original program, and its start on
     *  the observer's trace clock (0 without a trace). */
    struct RunCost
    {
        double ms = 0;
        uint64_t traceStartUs = 0;
    };
    RunCost trainCost;     ///< the "train" stage row
    RunCost referenceCost; ///< the "verify" stage row
    /** Set by the first runBackend() that reports the costs above (a
     *  heap cell, so the struct stays movable). */
    std::unique_ptr<std::atomic<bool>> costClaimed =
        std::make_unique<std::atomic<bool>>(false);
};

/**
 * Verify @p program strictly, run it once on @p train — collecting call
 * counts, and from them the Pettis-Hansen placement, plus the profile
 * kinds in @p needs that @p options' profileInput does not already
 * supply — and once on @p test as the reference run.  The result's status records the first of the three
 * that failed.  @p options supplies the step ceiling, the path-profiler
 * parameters, the interpreter step budget and deadline, and the
 * observer; pass the same pathParams and maxSteps to every runBackend()
 * sharing the result.
 */
PreparedWorkload prepareWorkload(const ir::Program &program,
                                 const interp::ProgramInput &train,
                                 const interp::ProgramInput &test,
                                 ProfileNeeds needs,
                                 const PipelineOptions &options);

/**
 * The per-backend half: transform a copy of the prepared program per
 * @p backend, measure it on the test input and compare its output with
 * the prepared reference run.  The prepared program is not modified.
 *
 * Recovery contract: a non-OK prepared status is returned unchanged.
 * A per-procedure stage failure (or an injected fault) degrades that
 * procedure to BB and the run completes — see PipelineResult::degraded.
 * An output mismatch that survives degrading every suspect procedure
 * to BB is an internal bug and panics, as does a failure of the BB
 * fallback itself.
 */
PipelineResult runBackend(const PreparedWorkload &prepared,
                          const BackendDesc &backend,
                          const PipelineOptions &options);

/**
 * Run the full pipeline for one configuration: prepareWorkload() with
 * the profile kinds @p config reads, then runBackend().
 */
PipelineResult runPipeline(const ir::Program &program,
                           const interp::ProgramInput &train,
                           const interp::ProgramInput &test,
                           SchedConfig config,
                           const PipelineOptions &options);

} // namespace pathsched::pipeline

#endif // PATHSCHED_PIPELINE_PIPELINE_HPP
