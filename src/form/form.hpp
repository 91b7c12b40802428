/**
 * @file
 * Superblock formation (the paper's "form" pass, §2).
 *
 * Formation runs in three steps (§2.1):
 *  1. trace selection partitions each procedure's blocks into traces —
 *     mutual-most-likely under edge profiles, or most-likely-path-
 *     successor under path profiles (Fig. 2);
 *  2. tail duplication turns each multi-block trace into a superblock:
 *     here the trace is materialized as one merged block (internal
 *     branches become side exits) while the original non-head blocks
 *     survive to serve side entrances;
 *  3. enlargement appends copies of likely successor blocks — the
 *     classical trio (branch target expansion, loop peeling, loop
 *     unrolling) under edge profiles, or the single unified
 *     most-likely-path-successor mechanism under path profiles.
 */

#ifndef PATHSCHED_FORM_FORM_HPP
#define PATHSCHED_FORM_FORM_HPP

#include <cstdint>
#include <vector>

#include "ir/procedure.hpp"
#include "obs/timer.hpp"
#include "profile/edge_profile.hpp"
#include "profile/path_profile.hpp"
#include "support/status.hpp"

namespace pathsched::form {

/** A trace: a block-id sequence in the original CFG's id space.
 *  Selection traces are simple; enlarged traces may repeat blocks. */
using Trace = std::vector<ir::BlockId>;

/** Which profile drives formation. */
enum class ProfileMode { Edge, Path };

/** Formation configuration; defaults match the paper's "P4".  The
 *  paper's per-trace caps (unroll factor, loop heads, maxInstrs) are
 *  the only bounds on formation; the pipeline polls the run's deadline
 *  at the stage boundaries around this pass. */
struct FormConfig
{
    ProfileMode mode = ProfileMode::Path;
    /** Run the enlargement step at all. */
    bool enlarge = true;
    /** Edge scheme: loop unrolling factor ("M4" = 4, "M16" = 16). */
    uint32_t unrollFactor = 4;
    /** Path scheme: superblock-loop heads allowed per trace (paper: 4). */
    uint32_t maxLoopHeads = 4;
    /** "P4e": non-loop superblocks stop enlarging at any head. */
    bool nonLoopStopsAtAnyHead = false;
    /** Only enlarge superblocks completing at least this often
     *  (the paper's user-specified "high frequency", §2.2). */
    double completionThreshold = 0.50;
    /** Preset superblock instruction-count cap (§2.2). */
    uint32_t maxInstrs = 256;
    /**
     * Also grow traces upward from the seed (footnote 2: the paper's
     * implementation did not, predicting no noticeable improvement;
     * bench_ablation_upward tests that prediction).
     */
    bool growUpward = false;
    /**
     * Optional observability sink: per-procedure select / enlarge /
     * materialize wall times are sampled through it (the caller picks
     * the prefix, e.g. "time.P4.form.").  Null disables timing.
     */
    const obs::Observer *observer = nullptr;
};

/** Counters reported by formProgram. */
struct FormStats
{
    uint64_t tracesSelected = 0;
    uint64_t multiBlockTraces = 0;
    uint64_t superblocksFormed = 0;
    uint64_t enlargedSuperblocks = 0;
    uint64_t blocksDuplicated = 0;
    uint64_t unreachableRemoved = 0;

    FormStats &
    operator+=(const FormStats &o)
    {
        tracesSelected += o.tracesSelected;
        multiBlockTraces += o.multiBlockTraces;
        superblocksFormed += o.superblocksFormed;
        enlargedSuperblocks += o.enlargedSuperblocks;
        blocksDuplicated += o.blocksDuplicated;
        unreachableRemoved += o.unreachableRemoved;
        return *this;
    }
};

/**
 * Form superblocks over procedure @p proc of @p prog in place,
 * accumulating counters into @p stats — the recoverable per-procedure
 * entry point behind formProgram().
 *
 * On a non-OK return (a superblock invariant break during
 * materialization, or the formed procedure failing structural
 * verification) the procedure may be partially rewritten; the caller
 * must discard the program copy or restore the procedure's original
 * body (the pipeline's per-procedure BB quarantine does the latter).
 */
Status formProcedure(ir::Program &prog, ir::ProcId proc,
                     const profile::EdgeProfiler *ep,
                     const profile::PathProfiler *pp,
                     const FormConfig &config, FormStats &stats);

/**
 * Form superblocks over every procedure of @p prog in place.
 * Pass @p ep for ProfileMode::Edge and @p pp (finalized) for
 * ProfileMode::Path; the other pointer may be null.  Panics on any
 * formation failure — callers that need recovery use formProcedure().
 */
FormStats formProgram(ir::Program &prog,
                      const profile::EdgeProfiler *ep,
                      const profile::PathProfiler *pp,
                      const FormConfig &config);

} // namespace pathsched::form

#endif // PATHSCHED_FORM_FORM_HPP
