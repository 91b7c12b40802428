/**
 * @file
 * Resource governance: a wall-clock deadline.
 *
 * Quarantine makes the pipeline survive *bad* work; a hung pass is
 * *unbounded* work, which quarantine alone cannot catch
 * (docs/robustness.md "Resource governance").  A Deadline is a
 * steady-clock wall budget, checked cooperatively; an inactive
 * (default) deadline never expires and costs one branch.
 *
 * The pipeline polls the deadline at the stage boundaries of each
 * procedure's chain, and the interpreter polls it inside a run, beside
 * its step ceiling (InterpOptions::maxSteps, the run's one step
 * bound); the passes themselves know nothing of either.  The paper's
 * own bounds on formation (unroll factor, loop heads, superblock size)
 * are per trace and live in FormConfig.
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

} // namespace pathsched

#endif // PATHSCHED_SUPPORT_BUDGET_HPP
