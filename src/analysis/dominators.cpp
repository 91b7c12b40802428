#include "analysis/dominators.hpp"

#include <algorithm>

namespace pathsched::analysis {

using ir::BlockId;
using ir::kNoBlock;

Dominators::Dominators(const ir::Cfg &cfg)
{
    const size_t n = cfg.numBlocks();
    idom_.assign(n, kNoBlock);
    tree_.assign(n, Interval());

    // Iterative postorder DFS from the entry; `order` marks visited
    // blocks and then holds each block's reverse-postorder index.
    constexpr uint32_t kUnvisited = UINT32_MAX;
    std::vector<uint32_t> order(n, kUnvisited);
    rpo_.reserve(n);
    std::vector<std::pair<BlockId, uint32_t>> stack;
    stack.push_back({0, 0});
    order[0] = 0;
    while (!stack.empty()) {
        auto &[b, idx] = stack.back();
        const auto succs = cfg.succs(b);
        if (idx < succs.size()) {
            const BlockId s = succs[idx++];
            if (order[s] == kUnvisited) {
                order[s] = 0;
                stack.push_back({s, 0});
            }
        } else {
            rpo_.push_back(b);
            stack.pop_back();
        }
    }
    std::reverse(rpo_.begin(), rpo_.end());
    for (uint32_t i = 0; i < rpo_.size(); ++i)
        order[rpo_[i]] = i;

    // Cooper-Harvey-Kennedy: iterate to a fixed point over RPO.
    auto intersect = [&](BlockId a, BlockId c) {
        while (a != c) {
            while (order[a] > order[c])
                a = idom_[a];
            while (order[c] > order[a])
                c = idom_[c];
        }
        return a;
    };

    idom_[0] = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        for (BlockId b : rpo_) {
            if (b == 0)
                continue;
            BlockId new_idom = kNoBlock;
            for (BlockId p : cfg.preds(b)) {
                if (idom_[p] == kNoBlock)
                    continue; // unreachable or not yet processed
                new_idom = new_idom == kNoBlock ? p
                                                : intersect(p, new_idom);
            }
            if (new_idom != kNoBlock && idom_[b] != new_idom) {
                idom_[b] = new_idom;
                changed = true;
            }
        }
    }

    // Number the dominator tree in preorder without building it: a
    // dominator precedes its dominatees in RPO, so subtree sizes sum
    // up in reverse RPO, and each block then takes the next free
    // range of its parent's interval.  `tree_[b].end` holds the size
    // until the block is placed; `order` becomes the parent's cursor.
    for (BlockId b : rpo_)
        tree_[b].end = 1;
    for (size_t i = rpo_.size(); i-- > 1;)
        tree_[idom_[rpo_[i]]].end += tree_[rpo_[i]].end;
    for (BlockId b : rpo_) {
        const uint32_t pre = b == 0 ? 0 : order[idom_[b]];
        if (b != 0)
            order[idom_[b]] += tree_[b].end;
        order[b] = pre + 1;
        tree_[b] = {pre, pre + tree_[b].end};
    }
}

} // namespace pathsched::analysis
