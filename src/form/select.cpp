#include "form/select.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace pathsched::form {

using ir::BlockId;
using ir::kNoBlock;

namespace {

/**
 * The candidate with the highest nonzero @p freqOf, that frequency in
 * @p freq; ties go to the lower block.  ir::kNoBlock (and 0) when no
 * candidate has a nonzero frequency.
 */
template <class FreqOf>
BlockId
mostFrequent(std::span<const BlockId> candidates, FreqOf freqOf,
             uint64_t &freq)
{
    BlockId best = kNoBlock;
    freq = 0;
    for (BlockId c : candidates) {
        const uint64_t f = freqOf(c);
        if (f > freq || (f > 0 && f == freq && c < best)) {
            best = c;
            freq = f;
        }
    }
    return best;
}

/** Edge-profile adapter: heuristics over independent point statistics. */
class EdgeFormProfile : public FormProfile
{
  public:
    EdgeFormProfile(const ir::Procedure &proc, const ir::Cfg &cfg,
                    const profile::EdgeProfiler &ep)
        : proc_(proc), cfg_(cfg), ep_(ep)
    {}

    uint64_t
    blockFreq(BlockId b) const override
    {
        return ep_.blockFreq(proc_.id, b);
    }

    BlockId
    mostLikelySuccessor(const Trace &t, uint64_t &freq) const override
    {
        const BlockId last = t.back();
        return mostFrequent(
            cfg_.succs(last),
            [&](BlockId s) { return ep_.edgeFreq(proc_.id, last, s); },
            freq);
    }

    double
    completionRatio(const Trace &t) const override
    {
        // Edge profiles cannot measure trace completion; the classical
        // estimate multiplies independent branch probabilities (and is
        // exactly the approximation Fig. 1 shows can be wrong).
        double p = 1.0;
        for (size_t i = 0; i + 1 < t.size(); ++i) {
            const uint64_t bf = ep_.blockFreq(proc_.id, t[i]);
            if (bf == 0)
                return 0.0;
            p *= double(ep_.edgeFreq(proc_.id, t[i], t[i + 1])) /
                 double(bf);
        }
        return p;
    }

    bool requiresMutual() const override { return true; }

    BlockId
    mostLikelyPred(BlockId b) const override
    {
        uint64_t freq = 0;
        return mostPred(b, freq);
    }

    BlockId
    mostLikelyPredecessor(const Trace &t, uint64_t &freq) const override
    {
        return mostPred(t.front(), freq);
    }

  private:
    BlockId
    mostPred(BlockId b, uint64_t &freq) const
    {
        return mostFrequent(
            cfg_.preds(b),
            [&](BlockId p) { return ep_.edgeFreq(proc_.id, p, b); }, freq);
    }

    const ir::Procedure &proc_;
    const ir::Cfg &cfg_;
    const profile::EdgeProfiler &ep_;
};

/** Path-profile adapter: exact trace frequencies (Fig. 2). */
class PathFormProfile : public FormProfile
{
  public:
    PathFormProfile(const ir::Procedure &proc, const ir::Cfg &cfg,
                    const profile::PathProfiler &pp)
        : proc_(proc), cfg_(cfg), pp_(pp)
    {}

    uint64_t
    blockFreq(BlockId b) const override
    {
        return pp_.blockFreq(proc_.id, b);
    }

    BlockId
    mostLikelySuccessor(const Trace &t, uint64_t &freq) const override
    {
        // Only the trailing window can matter for the query; clip long
        // traces so candidate windows stay within the profiling depth.
        const size_t keep =
            std::min<size_t>(t.size(), pp_.params().maxBlocks);
        window_.assign(t.end() - ptrdiff_t(keep), t.end());
        window_.push_back(kNoBlock); // placeholder for the candidate
        return mostFrequent(
            cfg_.succs(t.back()),
            [&](BlockId s) {
                window_.back() = s;
                return pp_.pathFreq(proc_.id, window_);
            },
            freq);
    }

    double
    completionRatio(const Trace &t) const override
    {
        const uint64_t head = pp_.blockFreq(proc_.id, t[0]);
        if (head == 0)
            return 0.0;
        const uint64_t whole = pp_.pathFreq(proc_.id, t);
        return std::min(1.0, double(whole) / double(head));
    }

    bool requiresMutual() const override { return false; }

    BlockId mostLikelyPred(BlockId) const override { return kNoBlock; }

    BlockId
    mostLikelyPredecessor(const Trace &t, uint64_t &freq) const override
    {
        freq = 0;
        // A prefix extension is only measurable while the whole trace
        // still fits inside one profiled window.
        if (t.size() + 1 > pp_.params().maxBlocks)
            return kNoBlock;

        window_.assign(1, kNoBlock); // candidate slot
        window_.insert(window_.end(), t.begin(), t.end());
        return mostFrequent(
            cfg_.preds(t.front()),
            [&](BlockId p) {
                window_.front() = p;
                return pp_.pathFreq(proc_.id, window_);
            },
            freq);
    }

  private:
    const ir::Procedure &proc_;
    const ir::Cfg &cfg_;
    const profile::PathProfiler &pp_;
    /** The candidate window, reused by every query. */
    mutable std::vector<BlockId> window_;
};

} // namespace

std::unique_ptr<FormProfile>
makeEdgeFormProfile(const ir::Procedure &proc, const ir::Cfg &cfg,
                    const profile::EdgeProfiler &ep)
{
    return std::make_unique<EdgeFormProfile>(proc, cfg, ep);
}

std::unique_ptr<FormProfile>
makePathFormProfile(const ir::Procedure &proc, const ir::Cfg &cfg,
                    const profile::PathProfiler &pp)
{
    return std::make_unique<PathFormProfile>(proc, cfg, pp);
}

void
selectTraces(ProcFormState &state, const FormProfile &profile)
{
    const size_t n = state.proc.blocks.size();

    // Seeds in decreasing node-frequency order (§2.2), skipping blocks
    // that never executed.
    std::vector<BlockId> seeds;
    for (BlockId b = 0; b < n; ++b) {
        if (profile.blockFreq(b) > 0)
            seeds.push_back(b);
    }
    std::sort(seeds.begin(), seeds.end(), [&](BlockId a, BlockId b) {
        const uint64_t fa = profile.blockFreq(a);
        const uint64_t fb = profile.blockFreq(b);
        return fa != fb ? fa > fb : a < b;
    });

    for (BlockId seed : seeds) {
        if (state.assigned(seed))
            continue;
        const uint32_t idx = uint32_t(state.traces.size());
        Trace trace{seed};
        state.traceOf[seed] = idx;

        while (true) {
            uint64_t freq = 0;
            const BlockId s = profile.mostLikelySuccessor(trace, freq);
            if (s == kNoBlock || freq == 0)
                break;
            if (state.assigned(s))
                break;
            if (state.loops.isBackEdge(trace.back(), s))
                break;
            if (profile.requiresMutual() &&
                profile.mostLikelyPred(s) != trace.back()) {
                break;
            }
            state.traceOf[s] = idx;
            trace.push_back(s);
        }

        if (state.config.growUpward) {
            while (true) {
                uint64_t freq = 0;
                const BlockId p =
                    profile.mostLikelyPredecessor(trace, freq);
                if (p == kNoBlock || freq == 0)
                    break;
                if (state.assigned(p))
                    break;
                if (state.loops.isBackEdge(p, trace.front()))
                    break;
                if (profile.requiresMutual()) {
                    // Mutual-most-likely, upward flavour: p's most
                    // likely successor must be the current head.
                    Trace probe{p};
                    uint64_t succ_freq = 0;
                    if (profile.mostLikelySuccessor(probe, succ_freq) !=
                        trace.front()) {
                        break;
                    }
                }
                state.traceOf[p] = idx;
                trace.insert(trace.begin(), p);
            }
        }
        state.traces.push_back(std::move(trace));
    }

    // Initial loop-ness: the trace's most likely continuation returns
    // to its own head ("superblocks whose last blocks are likely to
    // jump to their first blocks", §2.1).
    state.traceIsLoop.assign(state.traces.size(), 0);
    state.traceEnlarged.assign(state.traces.size(), 0);
    for (size_t i = 0; i < state.traces.size(); ++i) {
        uint64_t freq = 0;
        const BlockId s =
            profile.mostLikelySuccessor(state.traces[i], freq);
        if (s == state.traces[i][0] && freq > 0)
            state.traceIsLoop[i] = 1;
    }
}

} // namespace pathsched::form
