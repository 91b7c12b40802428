#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "analysis/callgraph.hpp"
#include "analysis/liveness.hpp"
#include "ir/verifier.hpp"
#include "layout/code_layout.hpp"
#include "layout/pettis_hansen.hpp"
#include "pipeline/backend.hpp"
#include "profile/edge_profile.hpp"
#include "support/logging.hpp"
#include "support/strutil.hpp"

namespace pathsched::pipeline {

double
PipelineResult::totalMs() const
{
    double total = 0;
    for (const auto &s : stages)
        total += s.ms;
    return total;
}

// configName and formConfigFor live in backend.cpp, beside the
// registrations whose descriptors they reflect.

namespace {

/** Accumulates the enclosing scope's wall time into a double, so a
 *  stage's total is the sum of its procedures' chains. */
class MsAccum
{
  public:
    explicit MsAccum(double &acc)
        : acc_(acc), t0_(std::chrono::steady_clock::now())
    {}
    ~MsAccum()
    {
        acc_ += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0_)
                    .count();
    }

  private:
    double &acc_;
    std::chrono::steady_clock::time_point t0_;
};

/** Replace @p dst's body (registers, blocks, side tables) with @p src's.
 *  The header (name, id, arity) is left untouched: it never changes,
 *  and verifying a call to this procedure reads it. */
void
replaceBody(ir::Procedure &dst, ir::Procedure &&src)
{
    dst.numRegs = src.numRegs;
    dst.frameSlots = src.frameSlots;
    dst.blocks = std::move(src.blocks);
    dst.schedules = std::move(src.schedules);
    dst.superblocks = std::move(src.superblocks);
    dst.syncSideTables();
}

/** The run's deadline, noticed at @p stage, has expired. */
Status
expiredAt(const char *stage)
{
    return Status::error(ErrorKind::DeadlineExceeded,
                         strfmt("%s: deadline expired", stage));
}

/** The typed status of a run (@p what names it) that stopped early, or
 *  OK.  For a run of the original program, the training or reference
 *  run, there is no procedure to degrade: the limit is simply too
 *  small for this workload. */
Status
stoppedEarly(const interp::RunResult &run, const char *what,
             const PipelineOptions &opt)
{
    if (run.stepLimit)
        return Status::error(ErrorKind::StepLimit,
                             strfmt("%s exceeded %llu steps", what,
                                    (unsigned long long)opt.maxSteps));
    if (run.deadlineStop)
        return Status::error(ErrorKind::DeadlineExceeded,
                             strfmt("deadline expired during the %s", what));
    return Status();
}

/** An admitted external profile that replaces the training profile of
 *  its kind (a file its admission rejected does not). */
template <typename Admitted>
bool
supplied(const Admitted *adm)
{
    return adm != nullptr && !adm->audit.fileRejected;
}

/** Publish @p run's dynamic counters into @p stats as
 *  "@p prefix.<name>" (accumulating, so repeated test attempts sum; a
 *  null registry publishes nothing).  Each run is one activation of
 *  main, hence procEnters = calls + 1.  A run with an I-cache attached
 *  (@p icache) also publishes the cache's counters; accesses / probes
 *  is the share of fetches charged without a cache lookup. */
void
publishRunCounters(obs::StatRegistry *stats, const std::string &prefix,
                   const interp::RunResult &run, bool icache)
{
    if (stats == nullptr)
        return;
    stats->addCounter(prefix + ".ops", run.dynInstrs);
    stats->addCounter(prefix + ".branches", run.dynBranches);
    stats->addCounter(prefix + ".jumps", run.dynJumps);
    stats->addCounter(prefix + ".calls", run.dynCalls);
    stats->addCounter(prefix + ".rets", run.dynRets);
    stats->addCounter(prefix + ".mem", run.dynMemOps);
    stats->addCounter(prefix + ".edges", run.dynEdges);
    stats->addCounter(prefix + ".procEnters", run.dynCalls + 1);
    stats->addCounter(prefix + ".procExits", run.dynRets);
    if (icache) {
        stats->addCounter(prefix + ".icacheAccesses", run.icacheAccesses);
        stats->addCounter(prefix + ".icacheMisses", run.icacheMisses);
        stats->addCounter(prefix + ".icacheProbes", run.icacheProbes);
        stats->addCounter(prefix + ".stallCycles", run.stallCycles);
    }
}

} // namespace

PreparedWorkload
prepareWorkload(const ir::Program &program,
                const interp::ProgramInput &train,
                const interp::ProgramInput &test, ProfileNeeds needs,
                const PipelineOptions &opt)
{
    PreparedWorkload pw;
    pw.program = &program;
    pw.train = &train;
    pw.test = &test;
    pw.pathParams = opt.pathParams;
    pw.maxSteps = opt.maxSteps;
    pw.status = ir::verifyStatus(program, ir::VerifyMode::Strict);
    if (!pw.status.ok())
        return pw;

    const obs::Observer *observer = opt.observability.observer;
    obs::StageTrace *trace = observer != nullptr ? observer->trace : nullptr;
    interp::InterpOptions iopts;
    iopts.maxSteps = opt.maxSteps;
    iopts.deadline = opt.robustness.deadline;
    auto timedRun = [&](PreparedWorkload::RunCost &cost, auto &&run) {
        cost.traceStartUs = trace != nullptr ? trace->nowUs() : 0;
        const auto t0 = std::chrono::steady_clock::now();
        run();
        cost.ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    };

    // --- Training run: dynamic call counts for procedure placement,
    //     plus each profile kind asked for that no admitted external
    //     profile supplies. ---
    if (needs.edges && !supplied(opt.profileInput.edges))
        pw.edges.emplace(program);
    if (needs.paths && !supplied(opt.profileInput.paths))
        pw.paths.emplace(program, opt.pathParams);
    timedRun(pw.trainCost, [&] {
        interp::InterpOptions topts = iopts;
        topts.collectCallCounts = true;
        interp::Interpreter interp(program, topts);
        if (pw.edges)
            interp.addListener(&*pw.edges);
        if (pw.paths)
            interp.addListener(&*pw.paths);
        pw.training = interp.run(train);
        if (pw.paths)
            pw.paths->finalize();
    });
    pw.status = stoppedEarly(pw.training, "training run", opt);
    if (!pw.status.ok())
        return pw;

    // --- Pettis-Hansen placement: it reads only the training call
    //     counts and the procedure count, which no backend changes. ---
    analysis::CallGraph cg(program);
    for (const auto &[edge, count] : pw.training.callCounts)
        cg.addWeight(edge.first, edge.second, count);
    pw.placement = layout::pettisHansenOrder(cg);

    // --- Reference run: the original program on the test input, the
    //     output every backend's transformed program must match. ---
    timedRun(pw.referenceCost, [&] {
        pw.reference = interp::Interpreter(program, iopts).run(test);
    });
    pw.status = stoppedEarly(pw.reference, "reference test run", opt);
    return pw;
}

PipelineResult
runBackend(const PreparedWorkload &prepared, const BackendDesc &be,
           const PipelineOptions &options)
{
    const PipelineOptions &opt = options;
    ps_assert_msg(opt.pathParams == prepared.pathParams &&
                      opt.maxSteps == prepared.maxSteps,
                  "runBackend options disagree with the prepared "
                  "workload's pathParams/maxSteps");
    const ir::Program &program = *prepared.program;
    const interp::ProgramInput &test = *prepared.test;
    PipelineResult result;
    result.config = be.config;
    result.name = be.name;
    if (!prepared.status.ok()) {
        result.status = prepared.status;
        return result;
    }

    // Observability: "timed" carries the "time.<config>." prefix for
    // stage stopwatches; counters register as <stage>.<config>.<name>.
    const obs::Observer base = opt.observability.observer != nullptr
                                   ? *opt.observability.observer
                                   : obs::Observer();
    const obs::Observer timed =
        base.withPrefix("time." + result.name + ".");
    const std::string cfg_dot = "." + result.name + ".";

    // The prepared training and reference runs are counted once: the
    // first result built from them carries their wall time (and trace
    // events), every later one 0 ms in the same rows.
    const bool claims_cost = !prepared.costClaimed->exchange(true);
    auto preparedStage = [&](const char *stage,
                             const PreparedWorkload::RunCost &cost) {
        const double ms = claims_cost ? cost.ms : 0.0;
        result.stages.push_back({stage, ms});
        timed.addSample(stage, ms);
        if (claims_cost && base.trace != nullptr)
            base.trace->record(timed.prefix + stage, cost.traceStartUs,
                               uint64_t(cost.ms * 1000.0));
    };

    const Deadline &deadline = opt.robustness.deadline;

    // --- 1. The formation profile: an admitted external profile of the
    //        kind the backend reads, else the prepared training profile
    //        (also when the external file's admission was rejected). ---
    const profile::AdmittedEdgeProfile *ext_edge =
        be.needsEdgeProfile() ? opt.profileInput.edges : nullptr;
    const profile::AdmittedPathProfile *ext_path =
        be.needsPathProfile() ? opt.profileInput.paths : nullptr;
    profile::ProfileAudit &audit = result.profileAudit;
    if (ext_edge != nullptr)
        audit = ext_edge->audit;
    else if (ext_path != nullptr)
        audit = ext_path->audit;
    if (audit.fileRejected) {
        ext_edge = nullptr;
        ext_path = nullptr;
    }
    const profile::EdgeProfiler *edge_for_form = nullptr;
    if (ext_edge != nullptr)
        edge_for_form = &ext_edge->profile;
    else if (be.needsEdgeProfile() && prepared.edges)
        edge_for_form = &*prepared.edges;
    const profile::PathProfiler *path_for_form = nullptr;
    if (ext_path != nullptr)
        path_for_form = &ext_path->profile;
    else if (be.needsPathProfile() && prepared.paths)
        path_for_form = &*prepared.paths;
    ps_assert_msg((edge_for_form != nullptr) == be.needsEdgeProfile() &&
                      (path_for_form != nullptr) == be.needsPathProfile(),
                  "config %s: the prepared workload lacks the profile it "
                  "reads",
                  be.name);

    preparedStage("train", prepared.trainCost);
    publishRunCounters(base.stats, "interp" + cfg_dot + "train",
                       prepared.training, false);
    result.trainSteps = prepared.training.dynInstrs;
    size_t trie_bytes = 0;
    uint64_t memo_misses = 0;
    if (path_for_form != nullptr) {
        result.numPaths = path_for_form->numPaths();
        trie_bytes = path_for_form->trieBytes();
        memo_misses = path_for_form->memoMisses();
    }
    base.addCounter("profile" + cfg_dot + "trainSteps",
                    result.trainSteps);
    base.addCounter("profile" + cfg_dot + "paths", result.numPaths);
    base.addCounter("profile" + cfg_dot + "trieBytes", trie_bytes);
    base.addCounter("profile" + cfg_dot + "memoMisses", memo_misses);

    // --- 1b. Admission accounting.  The verdict itself was reached
    //         before the run (profile/validate.hpp); with no external
    //         profile the audit is disabled and this block is inert.
    if (audit.fileRejected)
        warn("config %s: external profile rejected (%s); "
             "falling back to the internal training profile",
             result.name.c_str(), audit.fileStatus.toString().c_str());
    if (audit.enabled) {
        base.addCounter("profile" + cfg_dot + "audit.checked",
                        audit.checked);
        base.addCounter("profile" + cfg_dot + "audit.repaired",
                        audit.repaired);
        base.addCounter("profile" + cfg_dot + "audit.droppedPaths",
                        audit.droppedPaths);
        base.addCounter("profile" + cfg_dot + "audit.staleProcs",
                        audit.staleProcs);
        base.addCounter("robust" + cfg_dot + "profile.repaired",
                        audit.repaired);
        base.addCounter("robust" + cfg_dot + "profile.quarantined",
                        audit.quarantined);
        base.addCounter("robust" + cfg_dot + "profile.stale",
                        audit.staleProcs);
        if (audit.fileRejected)
            base.addCounter("robust" + cfg_dot + "profile.fileRejected",
                            1);
    }

    // --- 2. Transform a copy of the program: one stage chain per
    //        procedure, in procedure-id order, with per-procedure
    //        quarantine (see the file comment). ---
    ir::Program prog = program;
    const size_t num_procs = prog.procs.size();
    std::vector<uint8_t> quarantined(num_procs, 0);
    // What the chains count.  The loop's totals become the result's,
    // and the stage rows and counters are recorded once, after the
    // loop, so the BB fallbacks that the measured run or the output
    // comparison trigger later are not counted in either.
    TransformStats xf;
    sched::CompactStats compact_stats;
    regalloc::AllocStats alloc_stats;
    sched::ScheduleStats postsched_stats;
    double form_ms = 0, compact_ms = 0, regalloc_ms = 0, postsched_ms = 0;
    const obs::Observer compact_obs = timed.withPrefix("compact.");
    // The stage boundary at which a chain found the run's deadline
    // expired and stopped, or null.
    const char *stopped_at = nullptr;

    // --- 3. transform -> compact -> regalloc -> postsched -> verify,
    //        one chain per procedure.  The transform stage is the
    //        backend's descriptor entry point.  The chain owns all of a
    //        procedure's governance: at its stage boundaries it queries
    //        the fault injector and polls the deadline, so no pass
    //        knows of either.  An expired deadline stops the chain
    //        where it is seen, recorded in stopped_at, and ends the run
    //        after it, so the half-done procedure needs no fallback.  A
    //        quarantined procedure's chain is its BB fallback, which
    //        crosses no boundary.  Returns the failed stage (null if
    //        none) and why.
    FaultInjector *const faults = opt.robustness.faults;
    struct Failure
    {
        const char *stage = nullptr;
        Status status;
    };
    auto runChain = [&](ir::ProcId p) -> Failure {
        const bool governed = quarantined[p] == 0;
        auto injected = [&](const char *stage) {
            return governed && faults != nullptr ? faults->check(stage, p)
                                                 : Status();
        };
        // The deadline, polled at a governed chain's stage boundaries.
        auto expired = [&](const char *stage) {
            if (!governed || !deadline.expired())
                return false;
            stopped_at = stage;
            return true;
        };
        if (governed) {
            MsAccum acc(be.hasTransform() ? form_ms : compact_ms);
            if (expired(be.hasTransform() ? be.transformLabel : "compact"))
                return {};
            const profile::ProcAudit *pa =
                audit.enabled ? audit.findProc(p) : nullptr;
            if (pa && pa->action == profile::ProcAction::Quarantined) {
                // No believable profile data for this procedure:
                // schedule it from the BB baseline.
                return {"profile", Status::error(pa->kind, pa->message)};
            }
            if (be.hasTransform()) {
                const char *stage = be.transformLabel;
                if (Status st = injected(stage); !st.ok())
                    return {stage, std::move(st)};
                TransformContext tc;
                tc.config = be.config;
                tc.opt = &opt;
                tc.edge = edge_for_form;
                tc.path = path_for_form;
                tc.projectedEdge =
                    ext_path != nullptr ? &ext_path->projected : nullptr;
                tc.useProjectedEdges =
                    pa && pa->action == profile::ProcAction::ProjectedEdges;
                tc.timed = &timed;
                if (Status st = be.transform(prog, p, tc, xf, &stage);
                    !st.ok())
                    return {stage, std::move(st)};
                if (expired(stage))
                    return {};
                if (Status st = injected("materialize"); !st.ok())
                    return {"materialize", std::move(st)};
            }
        }
        // Compaction's final liveness solve, which regalloc reuses.
        std::optional<analysis::Liveness> live;
        {
            MsAccum acc(compact_ms);
            if (Status st = injected("compact"); !st.ok())
                return {"compact", std::move(st)};
            sched::CompactOptions copts;
            copts.priority = opt.schedPriority;
            copts.observer = &compact_obs;
            copts.liveness = &live;
            if (Status st = sched::compactProcedure(prog, p, opt.machine,
                                                    copts, compact_stats);
                !st.ok())
                return {"compact", std::move(st)};
            if (expired("compact"))
                return {};
        }
        {
            MsAccum acc(regalloc_ms);
            if (Status st = injected("regalloc"); !st.ok())
                return {"regalloc", std::move(st)};
            regalloc::AllocOptions ao;
            ao.liveness = live ? &*live : nullptr;
            if (Status st = regalloc::allocateProcedure(
                    prog, p, opt.machine.numRegs, alloc_stats, ao);
                !st.ok())
                return {"regalloc", std::move(st)};
            if (expired("regalloc"))
                return {};
        }
        {
            MsAccum acc(postsched_ms);
            postsched_stats += sched::scheduleProcedure(
                prog, p, opt.machine, opt.schedPriority);
        }
        // Machine conformance is checked, not counted: a procedure on
        // more registers than the machine has fails verification.
        if (Status st = injected("verify"); !st.ok())
            return {"verify", std::move(st)};
        if (Status st = ir::verifyProcStatus(prog, p,
                                             ir::VerifyMode::Superblock,
                                             opt.machine.numRegs);
            !st.ok())
            return {"verify", std::move(st)};
        return {};
    };

    // Quarantine procedure p after it failed at @p stage: restore its
    // original (basic-block) body and run its chain again, now as the
    // BB fallback.  A failure here means the always-safe baseline
    // itself is broken, which is an internal bug: abort.
    auto fallBack = [&](ir::ProcId p, const char *stage, const Status &st) {
        quarantined[p] = 1;
        warn("config %s: proc %s failed at %s (%s); degrading to BB",
             result.name.c_str(), program.procs[p].name.c_str(), stage,
             st.toString().c_str());
        result.degraded.push_back(
            {p, program.procs[p].name, stage, st.kind(), st.message()});
        auto t = timed.time("fallback");
        replaceBody(prog.procs[p], ir::Procedure(program.procs[p]));
        const Failure f = runChain(p);
        if (f.stage != nullptr)
            panic("BB fallback failed for proc %s at %s: %s",
                  program.procs[p].name.c_str(), f.stage,
                  f.status.toString().c_str());
    };

    for (ir::ProcId p = 0; p < num_procs && stopped_at == nullptr; ++p) {
        const Failure f = runChain(p);
        if (f.stage != nullptr)
            fallBack(p, f.stage, f.status);
    }
    result.form = xf.form;
    result.compact = compact_stats;
    result.alloc = alloc_stats;
    result.postsched = postsched_stats;
    if (stopped_at != nullptr) {
        result.status = expiredAt(stopped_at);
        return result;
    }

    // --- 4. Stage rows and counters of the chains. ---
    if (be.hasTransform()) {
        result.stages.push_back({be.transformLabel, form_ms});
        timed.addSample(std::string(be.transformLabel) + ".total",
                        form_ms);
        base.addCounter("form" + cfg_dot + "tracesSelected",
                        result.form.tracesSelected);
        base.addCounter("form" + cfg_dot + "multiBlockTraces",
                        result.form.multiBlockTraces);
        base.addCounter("form" + cfg_dot + "superblocks",
                        result.form.superblocksFormed);
        base.addCounter("form" + cfg_dot + "enlarged",
                        result.form.enlargedSuperblocks);
        base.addCounter("form" + cfg_dot + "blocksDuplicated",
                        result.form.blocksDuplicated);
        base.addCounter("form" + cfg_dot + "unreachableRemoved",
                        result.form.unreachableRemoved);
    }
    result.stages.push_back({"compact", compact_ms});
    timed.addSample("compact.total", compact_ms);
    base.addCounter("compact" + cfg_dot + "copiesPropagated",
                    result.compact.opt.copiesPropagated);
    base.addCounter("compact" + cfg_dot + "deadRemoved",
                    result.compact.opt.deadRemoved);
    base.addCounter("compact" + cfg_dot + "optSweeps",
                    result.compact.opt.sweeps);
    base.addCounter("compact" + cfg_dot + "blocksRenamed",
                    result.compact.rename.blocksRenamed);
    base.addCounter("compact" + cfg_dot + "defsRenamed",
                    result.compact.rename.defsRenamed);
    base.addCounter("compact" + cfg_dot + "stubsCreated",
                    result.compact.rename.stubsCreated);
    base.addCounter("compact" + cfg_dot + "loadsSpeculated",
                    result.compact.sched.loadsSpeculated);
    base.addCounter("compact" + cfg_dot + "schedInPlace",
                    result.compact.sched.inPlace);
    base.addCounter("compact" + cfg_dot + "liveSolves",
                    result.compact.sched.liveSolves);
    base.addCounter("compact" + cfg_dot + "liveVisits",
                    result.compact.sched.liveVisits);
    result.stages.push_back({"regalloc", regalloc_ms});
    timed.addSample("regalloc", regalloc_ms);
    base.addCounter("alloc" + cfg_dot + "regsSpilled",
                    result.alloc.regsSpilled);
    base.addCounter("alloc" + cfg_dot + "rounds", result.alloc.rounds);
    base.addCounter("alloc" + cfg_dot + "liveSolves",
                    result.alloc.liveSolves);
    base.addCounter("alloc" + cfg_dot + "liveVisits",
                    result.alloc.liveVisits);
    // A registry shared by several workloads keeps their peak.
    const std::string pressure = "alloc" + cfg_dot + "maxPressure";
    const obs::Stat *seen =
        base.stats != nullptr ? base.stats->find(base.prefix + pressure)
                              : nullptr;
    base.setGauge(pressure,
                  std::max(double(result.alloc.maxPressure),
                           seen != nullptr ? seen->gauge : 0.0));
    base.addCounter("sched" + cfg_dot + "postschedKept",
                    result.postsched.blocksKept);
    base.addCounter("sched" + cfg_dot + "liveSolves",
                    result.postsched.liveSolves);
    base.addCounter("sched" + cfg_dot + "liveVisits",
                    result.postsched.liveVisits);
    result.stages.push_back({"postsched", postsched_ms});
    timed.addSample("postsched", postsched_ms);

    // --- 5. Procedure placement and address assignment. ---
    // Re-runnable: the output-equivalence fallback lays the program out
    // again after degrading suspects.
    layout::CodeLayout code_layout;
    auto runLayout = [&](const char *stage_name) {
        auto t = timed.time(stage_name);
        code_layout = opt.pettisHansen
                          ? layout::layoutProgram(prog, prepared.placement,
                                                  opt.blockOrder)
                          : layout::layoutProgram(prog, {}, opt.blockOrder);
        t.stop();
        result.stages.push_back({stage_name, t.elapsedMs()});
        result.codeBytes = code_layout.totalBytes;
        base.setGauge("layout" + cfg_dot + "codeBytes",
                      double(result.codeBytes));
    };
    runLayout("layout");

    // --- 6. Measured test run of the transformed program (the I-cache
    //        simulation when opt.useICache is set).  Re-runnable, with
    //        a fresh I-cache per attempt so a retry never sees the
    //        first attempt's cache contents. ---
    auto runTest = [&](const char *stage_name) {
        auto t = timed.time(stage_name);
        interp::InterpOptions iopts;
        iopts.maxSteps = opt.maxSteps;
        iopts.deadline = deadline;
        iopts.codeLayout = &code_layout;
        icache::ICache icache_sim(opt.cacheParams);
        if (opt.useICache)
            iopts.cache = &icache_sim;
        result.test = interp::Interpreter(prog, iopts).run(test);
        t.stop();
        publishRunCounters(base.stats, "interp" + cfg_dot + "test",
                           result.test, opt.useICache);
        result.stages.push_back({stage_name, t.elapsedMs()});
    };
    runTest("test");

    // --- 7. Semantic check against the prepared reference run. ---
    const interp::RunResult &ref = prepared.reference;
    preparedStage("verify", prepared.referenceCost);

    // Degrade @p suspects to BB, and lay out and measure the program
    // again.  Hyphenated row names: "layout.retry" would nest under the
    // "layout" leaf in the stats registry, which forbids that.
    using Suspects = std::vector<std::pair<ir::ProcId, Status>>;
    auto degradeAndRemeasure = [&](const Suspects &suspects,
                                   const char *stage) {
        for (const auto &[p, st] : suspects)
            fallBack(p, stage, st);
        runLayout("layout-retry");
        runTest("test-retry");
    };

    // A measured run over the step bound carries a stopProc
    // attribution: degrade that procedure to BB and re-measure, while
    // it is one not yet degraded.  Each round quarantines one more
    // procedure, so the rounds are bounded by the procedure count.  An
    // overrun the attribution cannot absorb falls through to the
    // output comparison, where a truncated run mismatches.
    for (;;) {
        if (result.test.deadlineStop) {
            result.status = stoppedEarly(result.test,
                                         "measured test run", opt);
            return result;
        }
        const ir::ProcId sp = result.test.stopProc;
        if (!result.test.stepLimit || sp >= num_procs || quarantined[sp])
            break;
        degradeAndRemeasure(
            {{sp, Status::error(
                      ErrorKind::StepLimit,
                      strfmt("test run exceeded %llu steps in proc %s",
                             (unsigned long long)opt.maxSteps,
                             program.procs[sp].name.c_str()))}},
            "interp");
    }

    auto matches = [&]() {
        return !result.test.truncated() &&
               ref.output == result.test.output &&
               ref.returnValue == result.test.returnValue;
    };

    // Injected output-compare faults name their suspects (and the
    // error kind to record) directly.  Quarantined procedures are not
    // queried, so the BB fallback cannot be re-failed.
    Suspects suspects;
    for (ir::ProcId p = 0; faults != nullptr && p < num_procs; ++p) {
        if (quarantined[p])
            continue;
        Status st = faults->check("output-compare", p);
        if (!st.ok())
            suspects.push_back({p, std::move(st)});
    }

    result.outputMatches = matches();
    if (!result.outputMatches || !suspects.empty()) {
        if (suspects.empty()) {
            // A real mismatch carries no attribution: suspect every
            // procedure that is not already running its BB body.
            const bool step_limited = result.test.stepLimit;
            const Status st = Status::error(
                step_limited ? ErrorKind::StepLimit
                             : ErrorKind::OutputMismatch,
                step_limited
                    ? strfmt("test run exceeded %llu steps",
                             (unsigned long long)opt.maxSteps)
                    : strfmt("%zu vs %zu output values, "
                             "return %lld vs %lld",
                             ref.output.size(),
                             result.test.output.size(),
                             (long long)ref.returnValue,
                             (long long)result.test.returnValue));
            for (ir::ProcId p = 0; p < num_procs; ++p) {
                if (!quarantined[p])
                    suspects.push_back({p, st});
            }
        }
        if (!suspects.empty())
            degradeAndRemeasure(suspects, "output-compare");
        if (result.test.truncated()) {
            // Still over a limit with its suspects on their BB bodies:
            // a governance limit, not a miscompile, so it is typed.
            result.status =
                stoppedEarly(result.test, "measured test run", opt);
            return result;
        }
        ps_assert_msg(!suspects.empty(),
                      "config %s changed program behaviour with every "
                      "procedure already degraded to BB "
                      "(%zu vs %zu output values, return %lld vs %lld)",
                      result.name.c_str(), ref.output.size(),
                      result.test.output.size(),
                      (long long)ref.returnValue,
                      (long long)result.test.returnValue);
        result.outputMatches = matches();
        ps_assert_msg(result.outputMatches,
                      "config %s changed program behaviour even after "
                      "BB fallback "
                      "(%zu vs %zu output values, return %lld vs %lld)",
                      result.name.c_str(), ref.output.size(),
                      result.test.output.size(),
                      (long long)ref.returnValue,
                      (long long)result.test.returnValue);
    }

    // Test-run counters are recorded once, from the *final* (possibly
    // retried) test run.
    base.addCounter("test" + cfg_dot + "cycles", result.test.cycles);
    base.addCounter("test" + cfg_dot + "instrs", result.test.dynInstrs);
    base.addCounter("test" + cfg_dot + "branches",
                    result.test.dynBranches);
    if (opt.useICache) {
        base.addCounter("test" + cfg_dot + "icacheAccesses",
                        result.test.icacheAccesses);
        base.addCounter("test" + cfg_dot + "icacheMisses",
                        result.test.icacheMisses);
        base.addCounter("test" + cfg_dot + "stallCycles",
                        result.test.stallCycles);
    }

    // --- 8. Robustness accounting. ---
    base.addCounter("robust" + cfg_dot + "degraded",
                    result.degraded.size());
    for (ErrorKind k : kAllErrorKinds) {
        uint64_t n = 0;
        for (const auto &d : result.degraded) {
            if (d.kind == k)
                ++n;
        }
        if (n > 0)
            base.addCounter(
                "robust" + cfg_dot + "errors." + errorKindName(k), n);
    }
    if (deadline.active())
        base.setGauge("robust" + cfg_dot + "budget.deadlineRemainingMs",
                      double(deadline.remainingMs()));
    if (opt.keepTransformed)
        result.transformed =
            std::make_shared<ir::Program>(std::move(prog));

    return result;
}

PipelineResult
runPipeline(const ir::Program &program, const interp::ProgramInput &train,
            const interp::ProgramInput &test, SchedConfig config,
            const PipelineOptions &options)
{
    const BackendDesc &be = backendFor(config);
    return runBackend(
        prepareWorkload(program, train, test, needsOf(be), options), be,
        options);
}

} // namespace pathsched::pipeline
