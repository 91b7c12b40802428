#include "pipeline/pipeline.hpp"

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <optional>
#include <utility>

#include "analysis/callgraph.hpp"
#include "analysis/liveness.hpp"
#include "ir/verifier.hpp"
#include "layout/code_layout.hpp"
#include "layout/pettis_hansen.hpp"
#include "pipeline/backend.hpp"
#include "pipeline/cache.hpp"
#include "pipeline/executor.hpp"
#include "profile/edge_profile.hpp"
#include "profile/serialize.hpp"
#include "support/hash.hpp"
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

size_t
PipelineResult::budgetDegradations() const
{
    size_t n = 0;
    for (const auto &d : degraded) {
        if (d.kind == ErrorKind::BudgetExceeded ||
            d.kind == ErrorKind::DeadlineExceeded)
            ++n;
    }
    return n;
}

// configName and formConfigFor live in backend.cpp, beside the
// registrations whose descriptors they reflect.

namespace {

/** Accumulates the enclosing scope's wall time into a double, so a
 *  stage's total is the sum of its tasks regardless of which worker
 *  ran them. */
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

/**
 * Everything one procedure's task chain reads and writes exclusively.
 * Workers never share a ProcCtx, which is the whole determinism story:
 * all cross-procedure aggregation happens at the serial join, in
 * procedure-id order.
 */
struct ProcCtx
{
    /** Backend transform counters. */
    TransformStats xf;
    sched::CompactStats compact;
    regalloc::AllocStats alloc;
    sched::ScheduleStats postsched;
    /** Locally-numbered spill slots not yet assigned an address (see
     *  assignSpillSlots in runBackend). */
    regalloc::SpillPlan spill;
    /** Compaction's final liveness solve, held from compact until
     *  regalloc's first round consumes it. */
    std::optional<analysis::Liveness> live;
    /** This procedure's degradations, merged at the join. */
    std::vector<Degradation> degraded;
    /** Private registry standing in for the shared one (when a stats
     *  sink exists), merged at the join. */
    std::unique_ptr<obs::StatRegistry> ownStats;
    /** "time.<config>."-prefixed observer backing this chain's pass
     *  timers; the run's own observer after the join. */
    obs::Observer timed;
    double formMs = 0, compactMs = 0, regallocMs = 0, postschedMs = 0;
    bool cacheHit = false;
    bool cacheEligible = false;
    CacheKey key;
};

/** Replace @p dst's body (registers, blocks, side tables) with @p src's.
 *  The header (name, id, arity) is left untouched: it never changes,
 *  and other workers read it concurrently when they verify a call to
 *  this procedure. */
void
replaceBody(ir::Procedure &dst, ir::Procedure &&src)
{
    dst.numRegs = src.numRegs;
    dst.blocks = std::move(src.blocks);
    dst.schedules = std::move(src.schedules);
    dst.superblocks = std::move(src.superblocks);
    dst.syncSideTables();
}

/** Little-endian FNV-1a over a u64 sequence — the per-record primitive
 *  of the per-procedure profile content hash. */
uint64_t
hashU64s(std::initializer_list<uint64_t> vals)
{
    uint64_t h = fnv1a64(nullptr, 0);
    for (uint64_t v : vals)
        h = fnv1a64Mix(h, v);
    return h;
}

/** Bump when anything about the transform chain's semantics changes,
 *  so stale --cache-dir entries from older builds can never hit.
 *  2: backend-registry key layout (backend name + formation knobs
 *  hash replace the enum value + flat knob fields).
 *  3: entries no longer carry global-code-motion stats.
 *  4: a spill keeps the schedules of the blocks it leaves unchanged.
 *  5: allocation on exact live ranges, least recently freed register
 *  first. */
constexpr uint64_t kCacheSchema = 5;

/** The typed status of a run of the original program (@p what is
 *  "training run" or "reference test run") that stopped early, or OK.
 *  The original program has no procedure to degrade: the limit is
 *  simply too small for this workload. */
Status
stoppedEarly(const interp::RunResult &run, const char *what,
             const PipelineOptions &opt)
{
    if (run.stepLimit)
        return Status::error(ErrorKind::StepLimit,
                             strfmt("%s exceeded %llu steps", what,
                                    (unsigned long long)opt.maxSteps));
    if (run.budgetStop)
        return Status::error(
            ErrorKind::BudgetExceeded,
            strfmt("%s exceeded the %llu-step budget", what,
                   (unsigned long long)opt.robustness.budget.interpSteps));
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
    pw.recursive = regalloc::findRecursiveProcs(program);

    const obs::Observer *observer = opt.observability.observer;
    obs::StageTrace *trace = observer != nullptr ? observer->trace : nullptr;
    interp::InterpOptions iopts;
    iopts.maxSteps = opt.maxSteps;
    iopts.budgetSteps = opt.robustness.budget.interpSteps;
    iopts.deadline = opt.robustness.budget.deadline;
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

    // Resource governance: null when no budget is set, so the entire
    // budget machinery vanishes and the run is bit-identical to an
    // unbudgeted build.
    const ResourceBudget &bud = opt.robustness.budget;
    const bool budget_active = !bud.unlimited();
    const ResourceBudget *budp = budget_active ? &bud : nullptr;
    result.budgeted = budget_active;

    // Executor setup.  The thread count changes only which worker runs
    // each procedure's chain, never the chain's results.
    unsigned threads = opt.executor.threads;
    if (threads == 0)
        threads = hardwareThreads();
    const bool parallel = threads > 1;
    StageCache *cache = opt.executor.cache;
    result.exec.threads = threads;
    result.exec.cacheEnabled = cache != nullptr;

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

    // --- 2. Transform a copy of the program, one stage chain per
    //        procedure, with per-procedure quarantine (see the file
    //        comment). ---
    ir::Program prog = program;
    const size_t num_procs = prog.procs.size();
    std::vector<uint8_t> quarantined(num_procs, 0);
    const std::vector<uint8_t> &recursive = prepared.recursive;

    // Stage-boundary fault injection; quarantined procedures are never
    // queried again, so the BB fallback cannot be re-failed.  The
    // injector keeps internal state (fire counts, its RNG), hence the
    // mutex; which *worker* reaches a shared count=/prob= fault first
    // is scheduling-dependent, so only proc-targeted deterministic
    // faults give thread-count-invariant attribution.
    FaultInjector *const faults = opt.robustness.faults;
    std::mutex fault_mu;
    auto inject = [&](const char *stage, ir::ProcId p) -> Status {
        if (faults == nullptr || quarantined[p])
            return Status();
        std::optional<ErrorKind> kind;
        {
            std::lock_guard<std::mutex> lk(fault_mu);
            kind = faults->fire(stage, p);
        }
        if (kind)
            return Status::error(
                *kind, strfmt("injected fault at %s", stage));
        return Status();
    };

    // An expired run-wide deadline ends the run with a typed status at
    // the join; chains poll the flag before each stage and stop (the
    // stage that noticed the expiry has already degraded its in-flight
    // procedure by then).
    std::atomic<bool> deadline_hit{false};
    std::mutex deadline_mu;
    Status deadline_status;
    auto deadlineUp = [&](const char *stage) -> bool {
        if (!budget_active)
            return false;
        if (deadline_hit.load(std::memory_order_relaxed))
            return true;
        Status st = deadlineStatus(budp, stage);
        if (st.ok())
            return false;
        {
            std::lock_guard<std::mutex> lk(deadline_mu);
            if (deadline_status.ok())
                deadline_status = std::move(st);
        }
        deadline_hit.store(true, std::memory_order_relaxed);
        return true;
    };

    // Per-procedure task state; see ProcCtx.  Every chain records into
    // its own registry, and traces only when it runs on the calling
    // thread (trace events carry no order a join could restore).
    std::vector<ProcCtx> ctxs(num_procs);
    for (ProcCtx &ctx : ctxs) {
        obs::Observer own = base;
        if (base.stats != nullptr) {
            ctx.ownStats = std::make_unique<obs::StatRegistry>();
            own.stats = ctx.ownStats.get();
        }
        if (parallel)
            own.trace = nullptr;
        ctx.timed = own.withPrefix("time." + result.name + ".");
    }

    // Stage-cache admission: a chain may be memoized only when its
    // result is a pure function of the key — no op/step budgets (a hit
    // would bypass the exhaustion an uncached run records), no armed
    // faults (they misbehave on purpose), no admission action on the
    // procedure (it changes the profile the chain consumes).  A
    // *deadline-only* budget is compatible: expiry is a wall-clock race
    // in any case, degraded procedures are never stored (storeInCache
    // skips quarantined[p]), and a hit only shortens the run — the
    // serving loop relies on this to reschedule under a deadline while
    // still reusing unchanged procedures.
    const bool ops_budgeted =
        budget_active &&
        (bud.formGrowthOps != 0 || bud.compactOps != 0 ||
         bud.regallocOps != 0 || bud.interpSteps != 0);
    const bool cache_usable =
        cache != nullptr && !ops_budgeted && faults == nullptr;
    if (cache_usable) {
        // Per-procedure profile content hash over every profile kind
        // the backend consumes.  Record hashes combine by wrapping
        // addition: the profilers iterate hash maps, whose order must
        // not leak into the key.
        std::vector<uint64_t> prof_hash(num_procs, 0);
        if (be.needsEdgeProfile()) {
            edge_for_form->forEachBlock(
                [&](ir::ProcId p, ir::BlockId b, uint64_t count) {
                    prof_hash[p] += hashU64s({1, b, count});
                });
            edge_for_form->forEachEdge([&](ir::ProcId p, ir::BlockId f,
                                           ir::BlockId t,
                                           uint64_t count) {
                prof_hash[p] += hashU64s({2, f, t, count});
            });
        }
        if (be.needsPathProfile()) {
            path_for_form->forEachPath(
                [&](ir::ProcId p, const std::vector<ir::BlockId> &seq,
                    uint64_t count) {
                    uint64_t h = hashU64s({3, count, seq.size()});
                    for (ir::BlockId b : seq)
                        h = hashU64s({h, b});
                    prof_hash[p] += h;
                });
        }
        const uint64_t machine_hash = hashMachineModel(opt.machine);
        std::string body;
        for (size_t p = 0; p < num_procs; ++p) {
            ProcCtx &ctx = ctxs[p];
            ctx.cacheEligible =
                !audit.enabled || audit.findProc(p) == nullptr;
            if (!ctx.cacheEligible)
                continue;
            body.clear();
            serializeProcedure(program.procs[p], body);
            // Common material first, then the formation knobs, which
            // only a superblock-forming backend reads.
            KeyHasher h;
            h.u64(kCacheSchema)
                .str(be.name)
                .str(body)
                .u64(profile::cfgFingerprint(program.procs[p]))
                .u64(prof_hash[p])
                .u64(machine_hash)
                .u64(uint64_t(opt.schedPriority))
                .u64(opt.registerAllocate ? 1 : 0)
                .u64(opt.registerAllocate && recursive[p] ? 1 : 0);
            if (be.formsSuperblocks())
                superblockKnobsHash(h, opt);
            ctx.key = h.key();
        }
    }

    // A hit replays the whole transform chain from the cache entry:
    // the post-regalloc body (spill offsets still sentinel-relative)
    // plus the chain's counters.
    auto tryCacheRestore = [&](ProcCtx &ctx, ir::ProcId p) -> bool {
        if (!ctx.cacheEligible)
            return false;
        StageCache::Entry e;
        if (!cache->lookup(ctx.key, e))
            return false;
        replaceBody(prog.procs[p], std::move(e.proc));
        ctx.xf.form = e.form;
        ctx.compact = e.compact;
        ctx.alloc = e.alloc;
        ctx.spill.slots = e.spillSlots;
        ctx.cacheHit = true;
        return true;
    };
    // Memoize a cleanly-completed chain (a quarantined procedure's body
    // is the fallback's work, not this key's transform).
    auto storeInCache = [&](ProcCtx &ctx, ir::ProcId p) {
        if (!ctx.cacheEligible || quarantined[p])
            return;
        StageCache::Entry e;
        e.proc = prog.procs[p];
        e.spillSlots = ctx.spill.slots;
        e.form = ctx.xf.form;
        e.compact = ctx.compact;
        e.alloc = ctx.alloc;
        cache->insert(ctx.key, e);
    };

    // --- 3. transform -> compact -> regalloc -> postsched -> verify,
    //        one chain per procedure.  The transform stage is the
    //        backend's descriptor entry point — the pipeline only owns
    //        the chain plumbing (quarantine, cache, budget view,
    //        injection hook).  A quarantined procedure's chain is its
    //        BB fallback: no transform, cache, budget, deadline or
    //        injection.  Returns the failed stage (null if none) and
    //        why; a chain stopped by an expired deadline fails nothing.
    struct Failure
    {
        const char *stage = nullptr;
        Status status;
    };
    auto runChain = [&](ir::ProcId p) -> Failure {
        ProcCtx &ctx = ctxs[p];
        const bool fallback = quarantined[p] != 0;
        const ResourceBudget *budget = fallback ? nullptr : budp;
        auto stopped = [&](const char *stage) {
            return !fallback && deadlineUp(stage);
        };
        bool hit = false;
        if (!fallback) {
            MsAccum acc(be.hasTransform() ? ctx.formMs : ctx.compactMs);
            if (stopped(be.hasTransform() ? be.transformLabel : "compact"))
                return {};
            const profile::ProcAudit *pa =
                audit.enabled ? audit.findProc(p) : nullptr;
            if (pa && pa->action == profile::ProcAction::Quarantined) {
                // No believable profile data for this procedure:
                // schedule it from the BB baseline.
                return {"profile", Status::error(pa->kind, pa->message)};
            }
            hit = tryCacheRestore(ctx, p);
            if (!hit && be.hasTransform()) {
                TransformContext tc;
                tc.config = be.config;
                tc.opt = &opt;
                tc.edge = edge_for_form;
                tc.path = path_for_form;
                tc.projectedEdge =
                    ext_path != nullptr ? &ext_path->projected : nullptr;
                tc.useProjectedEdges =
                    pa && pa->action == profile::ProcAction::ProjectedEdges;
                tc.timed = &ctx.timed;
                tc.budget = budget;
                if (faults != nullptr)
                    tc.inject = [&inject, p](const char *stage) {
                        return inject(stage, p);
                    };
                const char *stage = be.transformLabel;
                Status st = be.transform(prog, p, tc, ctx.xf, &stage);
                if (!st.ok())
                    return {stage, std::move(st)};
            }
        }
        if (!hit) {
            {
                MsAccum acc(ctx.compactMs);
                if (stopped("compact"))
                    return {};
                sched::CompactOptions copts;
                copts.priority = opt.schedPriority;
                const obs::Observer compact_obs =
                    ctx.timed.withPrefix("compact.");
                copts.observer = &compact_obs;
                copts.budget = budget;
                if (opt.registerAllocate)
                    copts.liveness = &ctx.live;
                Status st = inject("compact", p);
                if (st.ok())
                    st = sched::compactProcedure(prog, p, opt.machine,
                                                 copts, ctx.compact);
                if (!st.ok())
                    return {"compact", std::move(st)};
            }
            if (opt.registerAllocate) {
                MsAccum acc(ctx.regallocMs);
                const std::optional<analysis::Liveness> live =
                    std::exchange(ctx.live, std::nullopt);
                if (stopped("regalloc"))
                    return {};
                Status st = inject("regalloc", p);
                if (st.ok()) {
                    regalloc::AllocOptions ao;
                    ao.budget = budget;
                    ao.recursive = &recursive;
                    ao.spill = &ctx.spill;
                    ao.liveness = live ? &*live : nullptr;
                    st = regalloc::allocateProcedure(
                        prog, p, opt.machine.numRegs, ctx.alloc, ao);
                }
                if (!st.ok())
                    return {"regalloc", std::move(st)};
            }
            storeInCache(ctx, p);
        }
        if (stopped("verify"))
            return {};
        // Postscheduling before the spill slots have addresses is safe:
        // the dependence graph tells memory ops apart by (base
        // register, offset inequality), and only spill code uses its
        // block's `ldi 0` base, so moving every slot by one constant
        // changes no edge.
        if (opt.registerAllocate) {
            MsAccum acc(ctx.postschedMs);
            ctx.postsched += sched::scheduleProcedure(
                prog, p, opt.machine, opt.schedPriority);
        }
        Status st = inject("verify", p);
        if (st.ok())
            st = ir::verifyProcStatus(prog, p, ir::VerifyMode::Superblock);
        if (!st.ok())
            return {"verify", std::move(st)};
        return {};
    };

    // Quarantine procedure p after it failed at @p stage: restore its
    // original (basic-block) body and run its chain again, now as the
    // BB fallback.  Its spill slots are issued into the procedure's own
    // SpillPlan, like any chain's, and get their addresses at the next
    // assignSpillSlots().  A failure here means the always-safe
    // baseline itself is broken, which is an internal bug: abort.
    auto fallBack = [&](std::vector<Degradation> &out, ir::ProcId p,
                        const char *stage, const Status &st) {
        quarantined[p] = 1;
        warn("config %s: proc %s failed at %s (%s); degrading to BB",
             result.name.c_str(), program.procs[p].name.c_str(), stage,
             st.toString().c_str());
        out.push_back({p, program.procs[p].name, stage, st.kind(),
                       st.message()});
        ProcCtx &ctx = ctxs[p];
        auto t = ctx.timed.time("fallback");
        replaceBody(prog.procs[p], ir::Procedure(program.procs[p]));
        ctx.spill.slots = 0; // the restored body references no slots
        ctx.live.reset();
        const Failure f = runChain(p);
        if (f.stage != nullptr)
            panic("BB fallback failed for proc %s at %s: %s",
                  program.procs[p].name.c_str(), f.stage,
                  f.status.toString().c_str());
    };

    parallelFor(threads, num_procs, [&](size_t i) {
        const ir::ProcId p = ir::ProcId(i);
        const Failure f = runChain(p);
        if (f.stage != nullptr)
            fallBack(ctxs[p].degraded, p, f.stage, f.status);
    });
    // Counted as the stages each chain runs: transform?, compact,
    // regalloc?, postsched?, verify.
    result.exec.tasks += num_procs * (be.hasTransform() + 2 +
                                      2 * opt.registerAllocate);

    // The one spill-slot assignment point: every procedure holding
    // locally-numbered slots (its chain's, or a fallback's) gets them
    // appended to the program's data memory, in procedure-id order —
    // the historical serial addresses for non-degraded runs.  Runs at
    // the join and again before every re-measure.
    auto assignSpillSlots = [&] {
        for (size_t p = 0; p < num_procs; ++p) {
            regalloc::SpillPlan &plan = ctxs[p].spill;
            if (plan.slots == 0)
                continue;
            regalloc::rebaseSpillSlots(prog.procs[p], prog.memWords);
            prog.memWords += plan.slots;
            plan.slots = 0;
        }
    };

    // --- 4. The join (serial).  Everything order-sensitive happens
    //        here, in procedure-id order: stat merging, degradation
    //        recording and spill-slot assignment. ---
    double form_ms = 0, compact_ms = 0, regalloc_ms = 0, postsched_ms = 0;
    sched::ScheduleStats postsched;
    for (size_t p = 0; p < num_procs; ++p) {
        ProcCtx &ctx = ctxs[p];
        result.form += ctx.xf.form;
        result.compact += ctx.compact;
        result.alloc += ctx.alloc;
        postsched += ctx.postsched;
        for (auto &d : ctx.degraded)
            result.degraded.push_back(std::move(d));
        ctx.degraded.clear();
        if (ctx.cacheHit)
            ++result.exec.cacheHits;
        else if (ctx.cacheEligible)
            ++result.exec.cacheMisses;
        form_ms += ctx.formMs;
        compact_ms += ctx.compactMs;
        regalloc_ms += ctx.regallocMs;
        postsched_ms += ctx.postschedMs;
        if (ctx.ownStats != nullptr)
            base.stats->merge(*ctx.ownStats);
        // Fallbacks after the join time into the run's observer.
        ctx.timed = timed;
    }
    assignSpillSlots();
    if (deadline_hit.load()) {
        result.status = std::move(deadline_status);
        return result;
    }
    if (be.hasTransform()) {
        result.stages.push_back({be.transformLabel, form_ms});
        timed.addSample(std::string(be.transformLabel) + ".total",
                        form_ms);
    }
    if (be.formsSuperblocks()) {
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
    base.addCounter("compact" + cfg_dot + "defsRenamed",
                    result.compact.rename.defsRenamed);
    base.addCounter("compact" + cfg_dot + "stubsCreated",
                    result.compact.rename.stubsCreated);
    base.addCounter("compact" + cfg_dot + "loadsSpeculated",
                    result.compact.sched.loadsSpeculated);
    base.addCounter("compact" + cfg_dot + "liveSolves",
                    result.compact.sched.liveSolves);
    base.addCounter("compact" + cfg_dot + "liveVisits",
                    result.compact.sched.liveVisits);
    if (opt.registerAllocate) {
        result.stages.push_back({"regalloc", regalloc_ms});
        timed.addSample("regalloc", regalloc_ms);
        base.addCounter("alloc" + cfg_dot + "regsSpilled",
                        result.alloc.regsSpilled);
        base.addCounter("alloc" + cfg_dot + "procsSkipped",
                        result.alloc.procsSkipped);
        base.addCounter("alloc" + cfg_dot + "rounds", result.alloc.rounds);
        base.addCounter("alloc" + cfg_dot + "liveSolves",
                        result.alloc.liveSolves);
        base.addCounter("alloc" + cfg_dot + "liveVisits",
                        result.alloc.liveVisits);
        base.setGauge("alloc" + cfg_dot + "maxPressure",
                      result.alloc.maxPressure);
        // The postschedule replaces the preschedule's cycle counts.
        result.compact.sched = postsched;
        base.addCounter("sched" + cfg_dot + "postschedKept",
                        postsched.blocksKept);
        base.addCounter("sched" + cfg_dot + "liveSolves",
                        postsched.liveSolves);
        base.addCounter("sched" + cfg_dot + "liveVisits",
                        postsched.liveVisits);
        result.stages.push_back({"postsched", postsched_ms});
        timed.addSample("postsched", postsched_ms);
    }

    // --- 5. Procedure placement and address assignment. ---
    // Re-runnable: the output-equivalence fallback lays the program out
    // again after degrading suspects.
    layout::CodeLayout code_layout;
    auto runLayout = [&](const char *stage_name) {
        auto t = timed.time(stage_name);
        if (opt.pettisHansen) {
            analysis::CallGraph cg(prog);
            for (const auto &[edge, count] : prepared.training.callCounts)
                cg.addWeight(edge.first, edge.second, count);
            code_layout = layout::layoutProgram(
                prog, layout::pettisHansenOrder(cg), opt.blockOrder);
        } else {
            code_layout =
                layout::layoutProgram(prog, {}, opt.blockOrder);
        }
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
        iopts.budgetSteps = bud.interpSteps;
        iopts.deadline = bud.deadline;
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

    // Degrade @p suspects to BB, give their fallbacks' spill slots
    // addresses, and lay out and measure the program again.  Hyphenated
    // row names: "layout.retry" would nest under the "layout" leaf in
    // the stats registry, which forbids that.
    using Suspects = std::vector<std::pair<ir::ProcId, Status>>;
    auto degradeAndRemeasure = [&](const Suspects &suspects,
                                   const char *stage) {
        for (const auto &[p, st] : suspects)
            fallBack(result.degraded, p, stage, st);
        assignSpillSlots();
        runLayout("layout-retry");
        runTest("test-retry");
    };

    // A budget-truncated measured run carries a stopProc attribution:
    // degrade that procedure to BB and re-measure.  Bounded — each
    // round quarantines one more procedure, and the reference run has
    // already shown the all-BB limit fits the budget, so attribution
    // running dry (or going in circles) is reported as a typed error,
    // never an abort.
    for (size_t round = 0; result.test.budgetStop ||
                           result.test.deadlineStop;
         ++round) {
        if (result.test.deadlineStop) {
            result.status = Status::error(
                ErrorKind::DeadlineExceeded,
                "deadline expired during the measured test run");
            return result;
        }
        const ir::ProcId sp = result.test.stopProc;
        if (sp == ir::kNoProc || sp >= num_procs || quarantined[sp] ||
            round >= num_procs) {
            result.status = Status::error(
                ErrorKind::BudgetExceeded,
                strfmt("test run exceeded the %llu-step budget even "
                       "after degrading %zu procedures",
                       (unsigned long long)bud.interpSteps,
                       result.degraded.size()));
            return result;
        }
        degradeAndRemeasure(
            {{sp, Status::error(
                      ErrorKind::BudgetExceeded,
                      strfmt("test run exceeded the %llu-step budget "
                             "in proc %s",
                             (unsigned long long)bud.interpSteps,
                             program.procs[sp].name.c_str()))}},
            "interp");
    }

    auto matches = [&]() {
        return !result.test.truncated() &&
               ref.output == result.test.output &&
               ref.returnValue == result.test.returnValue;
    };

    // Injected output-compare faults name their suspects (and the
    // error kind to record) directly.
    Suspects suspects;
    for (ir::ProcId p = 0; p < num_procs; ++p) {
        Status st = inject("output-compare", p);
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
        ps_assert_msg(!suspects.empty(),
                      "config %s changed program behaviour with every "
                      "procedure already degraded to BB "
                      "(%zu vs %zu output values, return %lld vs %lld)",
                      result.name.c_str(), ref.output.size(),
                      result.test.output.size(),
                      (long long)ref.returnValue,
                      (long long)result.test.returnValue);
        degradeAndRemeasure(suspects, "output-compare");
        if (result.test.budgetStop || result.test.deadlineStop) {
            // The retry itself ran out of budget: a governance limit,
            // not a miscompile — report it typed instead of asserting.
            result.status = Status::error(
                result.test.deadlineStop ? ErrorKind::DeadlineExceeded
                                         : ErrorKind::BudgetExceeded,
                "resource budget exhausted during the output-compare "
                "retry run");
            return result;
        }
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

    // --- 8. Robustness and executor accounting. ---
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
    if (budget_active) {
        // Gated on governance being on, so unbudgeted runs register
        // exactly the same stats as before the budget layer existed.
        base.addCounter("robust" + cfg_dot + "budget.exhausted",
                        result.budgetDegradations());
        if (bud.deadline.active())
            base.setGauge("robust" + cfg_dot +
                              "budget.deadlineRemainingMs",
                          double(bud.deadline.remainingMs()));
    }
    // Executor stats vary with the thread count and cache warmth —
    // consumers comparing runs for determinism must ignore the
    // "executor." subtree, and only it.
    base.addCounter("executor" + cfg_dot + "tasks", result.exec.tasks);
    base.setGauge("executor" + cfg_dot + "threads", double(threads));
    if (cache != nullptr) {
        base.addCounter("executor" + cfg_dot + "cacheHits",
                        result.exec.cacheHits);
        base.addCounter("executor" + cfg_dot + "cacheMisses",
                        result.exec.cacheMisses);
    }

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
