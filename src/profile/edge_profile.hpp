/**
 * @file
 * Edge (point) profiler.
 *
 * Aggregates independent frequencies per CFG edge and per block — the
 * "point profile" baseline of the paper (§1, §2.1).  The mutual-most-
 * likely trace selector is built on the successor/predecessor queries
 * exposed here.
 */

#ifndef PATHSCHED_PROFILE_EDGE_PROFILE_HPP
#define PATHSCHED_PROFILE_EDGE_PROFILE_HPP

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "interp/listener.hpp"
#include "ir/procedure.hpp"

namespace pathsched::profile {

/** Collects and serves edge and block execution frequencies. */
class EdgeProfiler : public interp::TraceListener
{
  public:
    explicit EdgeProfiler(const ir::Program &prog);

    void onProcEnter(ir::ProcId proc) override;
    void onEdge(ir::ProcId proc, ir::BlockId from, ir::BlockId to) override;

    /** Dynamic traversals of edge @p from -> @p to in @p proc. */
    uint64_t edgeFreq(ir::ProcId proc, ir::BlockId from,
                      ir::BlockId to) const;

    /** Dynamic entries into block @p b of @p proc. */
    uint64_t blockFreq(ir::ProcId proc, ir::BlockId b) const;

    /** @name Bulk access (profile persistence and merging)
     *  @{
     */
    void forEachBlock(
        const std::function<void(ir::ProcId, ir::BlockId, uint64_t)> &cb)
        const;
    void forEachEdge(
        const std::function<void(ir::ProcId, ir::BlockId, ir::BlockId,
                                 uint64_t)> &cb) const;
    /** Add @p count to a block/edge counter.  Returns false (and
     *  records nothing) when @p proc or a block id is out of range for
     *  the profiled program — untrusted serialized profiles go through
     *  these, so they must reject rather than abort. */
    bool addBlockCount(ir::ProcId proc, ir::BlockId b, uint64_t count);
    bool addEdgeCount(ir::ProcId proc, ir::BlockId from, ir::BlockId to,
                      uint64_t count);
    /** @} */

  private:
    static uint64_t key(ir::BlockId from, ir::BlockId to)
    {
        return (uint64_t(from) << 32) | to;
    }

    std::vector<std::unordered_map<uint64_t, uint64_t>> edges_;
    std::vector<std::vector<uint64_t>> blocks_;
};

} // namespace pathsched::profile

#endif // PATHSCHED_PROFILE_EDGE_PROFILE_HPP
