/**
 * @file
 * Dominator-tree computation (Cooper-Harvey-Kennedy iterative algorithm).
 */

#ifndef PATHSCHED_ANALYSIS_DOMINATORS_HPP
#define PATHSCHED_ANALYSIS_DOMINATORS_HPP

#include <cstdint>
#include <vector>

#include "ir/cfg.hpp"

namespace pathsched::analysis {

/** Immediate-dominator table for one procedure. */
class Dominators
{
  public:
    /** Build dominators for the procedure of @p cfg (entry block 0). */
    explicit Dominators(const ir::Cfg &cfg);

    /**
     * Immediate dominator of @p b; the entry dominates itself.
     * Unreachable blocks report ir::kNoBlock.
     */
    ir::BlockId idom(ir::BlockId b) const { return idom_[b]; }

    /**
     * True when @p a dominates @p b (reflexive); false when either is
     * unreachable.  O(1): @p b lies in @p a's dominator-tree interval.
     */
    bool
    dominates(ir::BlockId a, ir::BlockId b) const
    {
        return tree_[a].pre <= tree_[b].pre && tree_[b].pre < tree_[a].end;
    }

    /** True when @p b is reachable from the entry. */
    bool
    reachable(ir::BlockId b) const
    {
        return idom_[b] != ir::kNoBlock;
    }

    /** Blocks in reverse postorder (reachable blocks only). */
    const std::vector<ir::BlockId> &rpo() const { return rpo_; }

  private:
    /**
     * A block's preorder number in the dominator tree and the end of
     * its subtree's range: b's dominatees are the blocks numbered in
     * [pre, end).  An unreachable block has pre = UINT32_MAX, end = 0.
     */
    struct Interval
    {
        uint32_t pre = UINT32_MAX;
        uint32_t end = 0;
    };

    std::vector<ir::BlockId> idom_;
    std::vector<ir::BlockId> rpo_;
    std::vector<Interval> tree_;
};

} // namespace pathsched::analysis

#endif // PATHSCHED_ANALYSIS_DOMINATORS_HPP
