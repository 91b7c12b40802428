#include "form/enlarge.hpp"

#include <algorithm>
#include <cmath>

#include "support/logging.hpp"

namespace pathsched::form {

using ir::BlockId;
using ir::kNoBlock;

namespace {

/**
 * Unified path-based enlargement of one trace (Fig. 2's enlarge_trace).
 * Appends most-likely-path successors; stops at non-loop superblock
 * heads, at the (maxLoopHeads+1)-th loop head, at the size cap, or —
 * under the "P4e" policy — at any head when the trace is not a loop.
 */
bool
enlargePath(ProcFormState &state, const FormProfile &profile,
            uint32_t idx)
{
    const FormConfig &cfg = state.config;
    Trace t = state.traces[idx];
    if (profile.completionRatio(t) < cfg.completionThreshold)
        return false;

    const bool orig_is_loop = state.traceIsLoop[idx] != 0;
    uint32_t loop_heads = 0;
    size_t instrs = state.traceInstrs(t);

    while (true) {
        uint64_t freq = 0;
        const BlockId s = profile.mostLikelySuccessor(t, freq);
        if (s == kNoBlock || freq == 0)
            break;
        if (state.isSuperblockHead(s)) {
            if (!state.isSuperblockLoopHead(s))
                break;
            if (cfg.nonLoopStopsAtAnyHead && !orig_is_loop)
                break; // P4e: non-loops use only tail-duplicated code
            if (loop_heads >= cfg.maxLoopHeads)
                break;
            ++loop_heads;
        } else if (state.loops.isLoopHeader(s)) {
            // A natural-loop header swallowed into a trace interior:
            // still bound the number of times enlargement laps it.
            if (loop_heads >= cfg.maxLoopHeads)
                break;
            ++loop_heads;
        }
        const size_t add = state.proc.blocks[s].instrs.size();
        if (instrs + add > cfg.maxInstrs)
            break;
        t.push_back(s);
        instrs += add;
    }

    if (t.size() == state.traces[idx].size())
        return false;
    state.traces[idx] = std::move(t);
    state.traceEnlarged[idx] = 1;
    return true;
}

/**
 * Classical superblock-loop unrolling and peeling (§2.1): the trace is
 * repeated k times, where k is the unroll factor for high-iteration
 * loops and the observed mean iteration count for low-iteration loops
 * (peeling).  In both cases the final back edge still targets the
 * head, which is exactly how the classical transformations connect
 * their copies.
 */
bool
enlargeEdgeLoop(ProcFormState &state, const FormProfile &profile,
                uint32_t idx)
{
    // No completion gate here: an edge profile cannot measure whether
    // the body completes (Fig. 1), so the classical transformation
    // unrolls along the dominant directions regardless — exactly the
    // behaviour Fig. 3(a) illustrates.  The unroll degree still adapts
    // to the observed mean iteration count (peeling).
    const FormConfig &cfg = state.config;
    const Trace &t = state.traces[idx];
    const uint64_t head_freq = profile.blockFreq(t[0]);
    uint64_t back_freq = 0;
    {
        uint64_t freq = 0;
        if (profile.mostLikelySuccessor(t, freq) == t[0])
            back_freq = freq;
    }
    const uint64_t entries =
        head_freq > back_freq ? head_freq - back_freq : 0;
    double avg_iter = cfg.unrollFactor;
    if (entries > 0)
        avg_iter = double(head_freq) / double(entries);

    uint64_t k = uint64_t(std::llround(avg_iter));
    k = std::clamp<uint64_t>(k, 1, cfg.unrollFactor);
    const size_t body = state.traceInstrs(t);
    while (k > 1 && k * body > cfg.maxInstrs)
        --k;
    if (k <= 1)
        return false;

    Trace unrolled;
    unrolled.reserve(t.size() * k);
    for (uint64_t copy = 0; copy < k; ++copy)
        unrolled.insert(unrolled.end(), t.begin(), t.end());
    state.traces[idx] = std::move(unrolled);
    state.traceEnlarged[idx] = 1;
    return true;
}

/** Classical BTE requires the expanded branch to be decisively biased. */
constexpr double kBteLikelihood = 0.70;
/** Classical BTE examines the superblock's last branch, appends the
 *  target, and may repeat once on the new last branch — it is not the
 *  unbounded path walk of the unified mechanism. */
constexpr int kBteMaxExpansions = 2;

/**
 * Classical branch target expansion (§2.1): while the trace's last
 * branch likely jumps to the head of another (non-loop) superblock,
 * append that superblock's selected contents, up to a small bound.
 */
bool
enlargeEdgeTargetExpansion(ProcFormState &state,
                           const FormProfile &profile, uint32_t idx)
{
    const FormConfig &cfg = state.config;
    Trace t = state.traces[idx];
    if (profile.completionRatio(t) < cfg.completionThreshold)
        return false;

    size_t instrs = state.traceInstrs(t);
    bool changed = false;
    for (int round = 0; round < kBteMaxExpansions; ++round) {
        uint64_t freq = 0;
        const BlockId s = profile.mostLikelySuccessor(t, freq);
        if (s == kNoBlock || freq == 0)
            break;
        const uint64_t last_freq = profile.blockFreq(t.back());
        if (last_freq == 0 ||
            double(freq) / double(last_freq) < kBteLikelihood) {
            break; // not "likely" enough to expand
        }
        if (s == t[0])
            break; // never expand into ourselves
        if (!state.isSuperblockHead(s) || state.isSuperblockLoopHead(s))
            break;
        const Trace &target = state.traces[state.traceOf[s]];
        const size_t add = state.traceInstrs(target);
        if (instrs + add > cfg.maxInstrs)
            break;
        t.insert(t.end(), target.begin(), target.end());
        instrs += add;
        changed = true;
    }

    if (!changed)
        return false;
    state.traces[idx] = std::move(t);
    state.traceEnlarged[idx] = 1;
    return true;
}

} // namespace

void
enlargeTraces(ProcFormState &state, const FormProfile &profile,
              FormStats &stats)
{
    // Hottest superblocks first.
    std::vector<uint32_t> order(state.traces.size());
    for (uint32_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        const uint64_t fa = profile.blockFreq(state.traces[a][0]);
        const uint64_t fb = profile.blockFreq(state.traces[b][0]);
        return fa != fb ? fa > fb : a < b;
    });

    for (uint32_t idx : order) {
        bool enlarged = false;
        if (state.config.mode == ProfileMode::Path) {
            enlarged = enlargePath(state, profile, idx);
        } else if (state.traceIsLoop[idx]) {
            enlarged = enlargeEdgeLoop(state, profile, idx);
        } else {
            enlarged = enlargeEdgeTargetExpansion(state, profile, idx);
        }
        if (enlarged)
            ++stats.enlargedSuperblocks;
    }
}

} // namespace pathsched::form
