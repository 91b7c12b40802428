/**
 * @file
 * Resource governance: wall-clock deadlines and work budgets.
 *
 * Quarantine makes the pipeline survive *bad* work; a pathological
 * enlargement decision, a hung scheduling loop, or a runaway
 * interpreter run is *unbounded* work, which quarantine alone cannot
 * catch (docs/robustness.md "Resource governance"):
 *
 *  - Deadline: a steady-clock wall budget, checked cooperatively.  An
 *    inactive (default) deadline never expires and costs one branch.
 *  - ResourceBudget: the per-run budget bundle — a deadline plus
 *    per-procedure op caps for formation growth, compaction, and
 *    register allocation, and a per-run interpreter step budget.
 *
 * The pipeline checks the deadline and the op caps at the stage
 * boundaries of each procedure's chain, and the interpreter polls the
 * deadline and its step budget inside a run; the passes themselves
 * know nothing of either.  An unlimited budget makes every check a
 * no-op, so budget-free runs are bit-identical to builds without this
 * layer.
 */

#ifndef PATHSCHED_SUPPORT_BUDGET_HPP
#define PATHSCHED_SUPPORT_BUDGET_HPP

#include <chrono>
#include <cstdint>

namespace pathsched {

/** A steady-clock wall budget.  Default-constructed = never expires. */
class Deadline
{
  public:
    using Clock = std::chrono::steady_clock;

    Deadline() = default;

    /** The inactive deadline (never expires). */
    static Deadline
    never()
    {
        return Deadline();
    }

    /** Expires @p ms milliseconds from now. */
    static Deadline
    afterMs(uint64_t ms)
    {
        Deadline d;
        d.active_ = true;
        d.at_ = Clock::now() + std::chrono::milliseconds(ms);
        return d;
    }

    bool active() const { return active_; }

    /** One clock read when active; constant false when inactive. */
    bool
    expired() const
    {
        return active_ && Clock::now() >= at_;
    }

    /** Milliseconds until expiry, clamped at 0; 0 when inactive. */
    double remainingMs() const;

  private:
    bool active_ = false;
    Clock::time_point at_{};
};

/**
 * Everything bounded about one pipeline run.  A zero op/step field
 * means "unlimited"; the default instance bounds nothing.
 *
 * The op budgets are *per procedure per stage* — exhaustion is a
 * recoverable, attributable failure of that one procedure, which the
 * pipeline degrades to the BB baseline (the quarantine fallback itself
 * always runs budget-free, so a blown budget can never cascade into a
 * panic).  The deadline and the interpreter step budget are global to
 * the run; see docs/robustness.md for how the pipeline reports them.
 */
struct ResourceBudget
{
    /** Wall budget for the whole pipeline run (cooperative). */
    Deadline deadline;
    /** Ops formation may *add* to one procedure (tail duplication plus
     *  enlargement); the paper's unroll/size caps bound one trace, this
     *  bounds the procedure.  0 = unlimited. */
    uint64_t formGrowthOps = 0;
    /** Ops the compact stage may process for one procedure: each of
     *  its two walks charges one per instruction plus one per block, so
     *  the cost is the procedure's instructions plus blocks before the
     *  stage plus the same after it. */
    uint64_t compactOps = 0;
    /** Ops register allocation may process for one procedure: one per
     *  instruction, plus one. */
    uint64_t regallocOps = 0;
    /** Steps one interpreter run may execute (typed, unlike the
     *  InterpOptions::maxSteps runaway guard). */
    uint64_t interpSteps = 0;

    bool
    unlimited() const
    {
        return !deadline.active() && formGrowthOps == 0 &&
               compactOps == 0 && regallocOps == 0 && interpSteps == 0;
    }
};

} // namespace pathsched

#endif // PATHSCHED_SUPPORT_BUDGET_HPP
