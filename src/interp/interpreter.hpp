/**
 * @file
 * IR interpreter and cycle-accurate VLIW simulator.
 *
 * One engine serves three roles from the paper's methodology (§3):
 *  - the instrumented training run that feeds profilers (listeners);
 *  - the "compiled simulation" of scheduled code: blocks carry VLIW
 *    schedules, and an entry into a block costs `cycleOf(exit)+1`
 *    cycles (the full block cost when it completes);
 *  - the I-cache timing run: with a CodeLayout and an ICache attached,
 *    every executed operation is a fetch and misses add the configured
 *    penalty.  Fetches are charged per line change: the direct-mapped
 *    cache is probed only when the fetch address enters a new line (a
 *    fetch on the line just fetched always hits), and the skipped
 *    fetches are added as hits in bulk, so accesses, misses, stalls
 *    and cycles are identical to probing on every operation.
 *
 * Each run decodes the program lazily, one block on its first entry,
 * into compact ops, and dispatches them threaded: each handler jumps
 * to the next op's handler itself.  A branch or jump caches, when
 * first taken, where its target's decoded ops start, and with an
 * I-cache attached each op carries how its fetch line follows from
 * the op before it.  Exits count how often they are taken; the block
 * cycle costs and superblock statistics are summed from those counts
 * when the run ends.  Blocks without a valid schedule cost one cycle
 * per operation, which only arises in tests; the experiment pipeline
 * schedules every block.
 */

#ifndef PATHSCHED_INTERP_INTERPRETER_HPP
#define PATHSCHED_INTERP_INTERPRETER_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "icache/icache.hpp"
#include "interp/listener.hpp"
#include "ir/procedure.hpp"
#include "layout/code_layout.hpp"
#include "support/budget.hpp"

namespace pathsched::interp {

/** Default step ceiling (InterpOptions::maxSteps).  The pipeline's
 *  PipelineOptions::maxSteps refers to this same constant so the two
 *  defaults can never drift apart. */
inline constexpr uint64_t kDefaultMaxSteps = 4'000'000'000ULL;

/** The deadline is polled every this many steps, so an expired wall
 *  budget truncates a run within ~microseconds while the clock read
 *  stays far off the per-step hot path. */
inline constexpr uint64_t kDeadlineCheckStride = 8192;

/** Input to one program run: main() arguments and a data-memory image. */
struct ProgramInput
{
    std::vector<int64_t> mainArgs;
    /** Initial contents of data memory word 0..size-1; rest is zero. */
    std::vector<int64_t> memImage;
};

/** Everything observable and measurable about one run. */
struct RunResult
{
    int64_t returnValue = 0;
    /** Values produced by Emit, in order: the program's output. */
    std::vector<int64_t> output;

    uint64_t dynInstrs = 0;     ///< operations executed
    uint64_t dynBranches = 0;   ///< conditional branches executed
    uint64_t dynCalls = 0;      ///< calls executed
    uint64_t dynJumps = 0;      ///< unconditional jumps executed
    uint64_t dynRets = 0;       ///< returns executed
    uint64_t dynMemOps = 0;     ///< data loads (incl. speculative), stores
    /** CFG edges followed inside an activation: one per onEdge fire. */
    uint64_t dynEdges = 0;
    uint64_t cycles = 0;        ///< total cycles incl. cache stalls
    uint64_t stallCycles = 0;   ///< cycles lost to I-cache misses

    /** @name I-cache counters of this run (zero without a cache)
     *  @{
     */
    uint64_t icacheAccesses = 0; ///< fetches: one per operation executed
    uint64_t icacheMisses = 0;   ///< fetches that missed
    /** Lookups the cache model performed: one per change of fetch
     *  line.  icacheAccesses - icacheProbes fetches were same-line
     *  hits, counted without a lookup. */
    uint64_t icacheProbes = 0;
    /** @} */

    /**
     * The run stopped because it reached InterpOptions::maxSteps.
     * Output and counters reflect the truncated prefix; the caller
     * decides whether that is a user error (runaway input program) or
     * a degradable overrun (transformed code running longer).
     */
    bool stepLimit = false;
    /** The run stopped because InterpOptions::deadline expired. */
    bool deadlineStop = false;
    /** Either truncation cause fired. */
    bool
    truncated() const
    {
        return stepLimit || deadlineStop;
    }
    /** Procedure executing when a truncated run stopped — the
     *  overrun's attribution hint; kNoProc on a complete run. */
    ir::ProcId stopProc = ir::kNoProc;

    /** @name Superblock statistics (Fig. 7)
     *  @{
     */
    uint64_t sbEntries = 0;          ///< dynamic superblock entries
    uint64_t sbBlocksExecuted = 0;   ///< sum of trace blocks reached
    uint64_t sbBlocksInSb = 0;       ///< sum of superblock sizes (blocks)
    uint64_t sbCompletions = 0;      ///< entries that ran to the end
    /** @} */

    /** Dynamic call counts per (caller, callee), for Pettis-Hansen. */
    std::map<std::pair<ir::ProcId, ir::ProcId>, uint64_t> callCounts;

    double
    sbAvgBlocksExecuted() const
    {
        return sbEntries ? double(sbBlocksExecuted) / double(sbEntries)
                         : 0.0;
    }
    double
    sbAvgBlocksInSuperblock() const
    {
        return sbEntries ? double(sbBlocksInSb) / double(sbEntries) : 0.0;
    }
};

/** Interpreter configuration. */
struct InterpOptions
{
    /** Stop the run after this many operations; the truncated result
     *  carries RunResult::stepLimit and a stopProc attribution. */
    uint64_t maxSteps = kDefaultMaxSteps;
    /** Cooperative wall budget, polled every kDeadlineCheckStride
     *  steps; expiry truncates with RunResult::deadlineStop. */
    Deadline deadline;
    /** Code layout; required when an I-cache is attached. */
    const layout::CodeLayout *codeLayout = nullptr;
    /** Instruction cache; optional. */
    icache::ICache *cache = nullptr;
    /** Collect per-(caller,callee) dynamic call counts. */
    bool collectCallCounts = false;
};

/** Executes IR programs.  Stateless across run() calls. */
class Interpreter
{
  public:
    explicit Interpreter(const ir::Program &prog,
                         InterpOptions options = InterpOptions())
        : prog_(prog), opts_(options)
    {}

    /** Register an execution observer (not owned). */
    void addListener(TraceListener *listener)
    {
        listeners_.push_back(listener);
    }

    /** Execute the program on @p input and return the measurements. */
    RunResult run(const ProgramInput &input);

  private:
    const ir::Program &prog_;
    InterpOptions opts_;
    std::vector<TraceListener *> listeners_;
};

} // namespace pathsched::interp

#endif // PATHSCHED_INTERP_INTERPRETER_HPP
