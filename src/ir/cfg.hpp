/**
 * @file
 * The flat control-flow graph of one procedure: its successor and
 * predecessor lists, each stored as one compressed (CSR) array.
 */

#ifndef PATHSCHED_IR_CFG_HPP
#define PATHSCHED_IR_CFG_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "ir/procedure.hpp"

namespace pathsched::ir {

/**
 * CFG edges of one procedure.  succs(b) lists b's successors in
 * successorsOf() order; preds(b) lists its predecessors in increasing
 * block order.  Each list names a block at most once.  The graph is a
 * snapshot: it does not follow later edits of the procedure.
 */
class Cfg
{
  public:
    explicit Cfg(const Procedure &proc);

    size_t numBlocks() const { return predStart_.size() - 1; }

    std::span<const BlockId>
    succs(BlockId b) const
    {
        return {succ_.data() + succStart_[b],
                succ_.data() + succStart_[b + 1]};
    }

    std::span<const BlockId>
    preds(BlockId b) const
    {
        return {pred_.data() + predStart_[b],
                pred_.data() + predStart_[b + 1]};
    }

  private:
    /** Offsets of block b's lists: [start[b], start[b + 1]). */
    std::vector<uint32_t> succStart_;
    std::vector<BlockId> succ_;
    std::vector<uint32_t> predStart_;
    std::vector<BlockId> pred_;
};

} // namespace pathsched::ir

#endif // PATHSCHED_IR_CFG_HPP
