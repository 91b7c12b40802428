#include "analysis/loops.hpp"

namespace pathsched::analysis {

using ir::BlockId;

LoopInfo::LoopInfo(const ir::Cfg &cfg, const Dominators &doms)
{
    const size_t n = cfg.numBlocks();
    header_.assign(n, 0);
    // An unreachable source dominates nothing and is dominated by
    // nothing, so its edges are never back edges.
    for (BlockId b = 0; b < n; ++b) {
        for (BlockId s : cfg.succs(b)) {
            if (doms.dominates(s, b)) {
                backEdges_.push_back(edgeKey(b, s));
                header_[s] = 1;
            }
        }
    }
    std::sort(backEdges_.begin(), backEdges_.end());
}

} // namespace pathsched::analysis
