/**
 * @file
 * Deterministic, seedable fault-injection harness.
 *
 * Pass code never fails on the curated workloads, so the pipeline's
 * error-recovery paths would go untested without a way to force
 * failures.  A FaultInjector holds a list of armed faults; the
 * pipeline consults it at every stage boundary
 * (`check("compact", proc)`) and treats a hit exactly like a real
 * failure of that stage, exercising the per-procedure BB fallback in
 * CI instead of only on paper.
 *
 * Spec grammar (the CLI's --inject flag): faults are separated by ';',
 * fields within a fault by ','.
 *
 *   stage=form,proc=3,kind=verify,count=1,prob=0.5
 *
 *   stage   (required) form | materialize | compact | regalloc |
 *           verify | output-compare  (any label is accepted; these are
 *           the boundaries runPipeline queries)
 *   proc    procedure id, or '*' for every procedure (default '*')
 *   kind    profile | verify | schedule | output | steplimit |
 *           injected  (default injected)
 *   count   maximum number of times this fault fires (default
 *           unlimited)
 *   prob    probability a matching query fires, drawn from the
 *           injector's seeded RNG (default 1.0 — fully deterministic)
 *
 * With prob omitted the harness is purely deterministic; with prob the
 * draw sequence is reproducible for a fixed seed and query order.
 *
 * Thread safety: all members may be called concurrently; the armed
 * faults, their fire counts and the RNG are mutex-guarded.  Which
 * caller reaches a shared count=/prob= fault first is up to the
 * callers' scheduling, so only proc-targeted deterministic faults give
 * an attribution that does not depend on the thread count.
 */

#ifndef PATHSCHED_SUPPORT_FAULTINJECT_HPP
#define PATHSCHED_SUPPORT_FAULTINJECT_HPP

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "support/rng.hpp"
#include "support/status.hpp"

namespace pathsched {

/** One armed fault. */
struct FaultSpec
{
    /** Matches any procedure id. */
    static constexpr uint32_t kAnyProc = UINT32_MAX;

    std::string stage;
    uint32_t proc = kAnyProc;
    ErrorKind kind = ErrorKind::Injected;
    uint64_t maxFires = UINT64_MAX;
    /** Per-query firing probability; 1.0 = always (deterministic). */
    double prob = 1.0;
};

/** Holds armed faults and answers stage-boundary queries. */
class FaultInjector
{
  public:
    explicit FaultInjector(uint64_t seed = 0) : rng_(seed) {}

    /**
     * Parse @p spec (see the file comment) and arm the faults it
     * describes, in addition to any already armed.
     * @return false with @p error set on a malformed spec.
     */
    bool parse(const std::string &spec, std::string &error);

    /** Arm @p fault directly. */
    void add(FaultSpec fault);

    bool empty() const;
    size_t size() const;

    /**
     * Stage-boundary query: does an armed fault fire for @p stage on
     * procedure @p proc?  Returns its error kind if so.  Matching is
     * in arming order; the first armed fault that matches (and passes
     * its probability draw and fire budget) wins.
     */
    std::optional<ErrorKind> fire(const std::string &stage, uint32_t proc);

    /** fire() as the Status a real failure at @p stage would return:
     *  the armed kind with "injected fault at <stage>", or OK. */
    Status check(const char *stage, uint32_t proc);

    /** Total fires across all armed faults. */
    uint64_t totalFired() const;

  private:
    struct Armed
    {
        FaultSpec spec;
        uint64_t fired = 0;
    };

    mutable std::mutex mu_;
    std::vector<Armed> faults_;
    Rng rng_;
    uint64_t totalFired_ = 0;
};

} // namespace pathsched

#endif // PATHSCHED_SUPPORT_FAULTINJECT_HPP
