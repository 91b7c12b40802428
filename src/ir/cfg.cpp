#include "ir/cfg.hpp"

namespace pathsched::ir {

Cfg::Cfg(const Procedure &proc)
{
    const size_t n = proc.blocks.size();
    succStart_.reserve(n + 1);
    succStart_.push_back(0);
    succ_.reserve(2 * n);
    std::vector<BlockId> succs;
    for (const BasicBlock &bb : proc.blocks) {
        successorsOf(bb, succs);
        succ_.insert(succ_.end(), succs.begin(), succs.end());
        succStart_.push_back(uint32_t(succ_.size()));
    }

    // Counting sort of the edges by target.  Sources are visited in
    // increasing order, so each predecessor list comes out sorted.
    predStart_.assign(n + 1, 0);
    for (BlockId s : succ_)
        ++predStart_[s + 1];
    for (size_t b = 0; b < n; ++b)
        predStart_[b + 1] += predStart_[b];
    pred_.resize(succ_.size());
    for (BlockId b = 0; b < n; ++b) {
        for (BlockId s : this->succs(b))
            pred_[predStart_[s]++] = b;
    }
    // Each start now holds the next block's start; shift them back.
    for (size_t b = n; b > 0; --b)
        predStart_[b] = predStart_[b - 1];
    predStart_[0] = 0;
}

} // namespace pathsched::ir
