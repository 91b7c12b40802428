/**
 * @file
 * Resource governance: a wall-clock deadline and an interpreter step
 * budget.
 *
 * Quarantine makes the pipeline survive *bad* work; a hung pass or a
 * runaway interpreter run is *unbounded* work, which quarantine alone
 * cannot catch (docs/robustness.md "Resource governance"):
 *
 *  - Deadline: a steady-clock wall budget, checked cooperatively.  An
 *    inactive (default) deadline never expires and costs one branch.
 *  - ResourceBudget: the per-run budget bundle — a deadline and an
 *    interpreter step budget.
 *
 * The pipeline polls the deadline at the stage boundaries of each
 * procedure's chain, and the interpreter polls the deadline and its
 * step budget inside a run; the passes themselves know nothing of
 * either.  The paper's own bounds on formation (unroll factor, loop
 * heads, superblock size) are per trace and live in FormConfig.  An
 * unlimited budget makes every check a no-op, so budget-free runs are
 * bit-identical to builds without this layer.
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
 * Everything bounded about one pipeline run.  A zero step budget means
 * "unlimited"; the default instance bounds nothing.
 *
 * Both limits are global to the run; see docs/robustness.md for how
 * the pipeline reports them.  An expired deadline ends the run with a
 * typed DeadlineExceeded status; a measured test run over the step
 * budget degrades the procedure it stopped in to BB.
 */
struct ResourceBudget
{
    /** Wall budget for the whole pipeline run (cooperative). */
    Deadline deadline;
    /** Steps one interpreter run may execute (typed, unlike the
     *  InterpOptions::maxSteps runaway guard). */
    uint64_t interpSteps = 0;

    bool
    unlimited() const
    {
        return !deadline.active() && interpSteps == 0;
    }
};

} // namespace pathsched

#endif // PATHSCHED_SUPPORT_BUDGET_HPP
