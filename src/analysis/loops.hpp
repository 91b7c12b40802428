/**
 * @file
 * Back-edge and loop-header identification.
 *
 * Trace selection must never grow a trace across a back edge (§2.1 of
 * the paper), so the form pass queries this analysis for every candidate
 * extension edge.
 */

#ifndef PATHSCHED_ANALYSIS_LOOPS_HPP
#define PATHSCHED_ANALYSIS_LOOPS_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/dominators.hpp"
#include "ir/cfg.hpp"

namespace pathsched::analysis {

/**
 * Back edges (edges whose target dominates their source) and loop
 * headers (targets of a back edge) of one procedure.
 */
class LoopInfo
{
  public:
    /** Analyse the procedure of @p cfg using its dominator tree. */
    LoopInfo(const ir::Cfg &cfg, const Dominators &doms);

    /** True when the CFG edge @p from -> @p to is a back edge. */
    bool
    isBackEdge(ir::BlockId from, ir::BlockId to) const
    {
        return std::binary_search(backEdges_.begin(), backEdges_.end(),
                                  edgeKey(from, to));
    }

    /** True when @p b is the header of some natural loop. */
    bool isLoopHeader(ir::BlockId b) const { return header_[b] != 0; }

  private:
    static uint64_t
    edgeKey(ir::BlockId from, ir::BlockId to)
    {
        return (uint64_t(from) << 32) | to;
    }

    /** edgeKey() of every back edge, sorted. */
    std::vector<uint64_t> backEdges_;
    /** 1 for a loop header, per block. */
    std::vector<uint8_t> header_;
};

} // namespace pathsched::analysis

#endif // PATHSCHED_ANALYSIS_LOOPS_HPP
