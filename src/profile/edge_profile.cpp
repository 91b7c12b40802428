#include "profile/edge_profile.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace pathsched::profile {

using ir::BlockId;
using ir::kNoBlock;
using ir::ProcId;

EdgeProfiler::EdgeProfiler(const ir::Program &prog)
{
    edges_.resize(prog.procs.size());
    blocks_.resize(prog.procs.size());
    for (const auto &p : prog.procs)
        blocks_[p.id].assign(p.blocks.size(), 0);
}

void
EdgeProfiler::onProcEnter(ProcId proc)
{
    ++blocks_[proc][0];
}

void
EdgeProfiler::onEdge(ProcId proc, BlockId from, BlockId to)
{
    ++edges_[proc][key(from, to)];
    ++blocks_[proc][to];
}

uint64_t
EdgeProfiler::edgeFreq(ProcId proc, BlockId from, BlockId to) const
{
    const auto &m = edges_[proc];
    auto it = m.find(key(from, to));
    return it == m.end() ? 0 : it->second;
}

uint64_t
EdgeProfiler::blockFreq(ProcId proc, BlockId b) const
{
    return blocks_[proc][b];
}

void
EdgeProfiler::forEachBlock(
    const std::function<void(ProcId, BlockId, uint64_t)> &cb) const
{
    for (ProcId p = 0; p < blocks_.size(); ++p) {
        for (BlockId b = 0; b < blocks_[p].size(); ++b) {
            if (blocks_[p][b])
                cb(p, b, blocks_[p][b]);
        }
    }
}

void
EdgeProfiler::forEachEdge(
    const std::function<void(ProcId, BlockId, BlockId, uint64_t)> &cb)
    const
{
    for (ProcId p = 0; p < edges_.size(); ++p) {
        // Deterministic order for serialization: sort the keys.
        std::vector<uint64_t> keys;
        keys.reserve(edges_[p].size());
        for (const auto &[k, n] : edges_[p]) {
            if (n)
                keys.push_back(k);
        }
        std::sort(keys.begin(), keys.end());
        for (uint64_t k : keys) {
            cb(p, BlockId(k >> 32), BlockId(k & 0xffffffffu),
               edges_[p].at(k));
        }
    }
}

bool
EdgeProfiler::addBlockCount(ProcId proc, BlockId b, uint64_t count)
{
    if (proc >= blocks_.size() || b >= blocks_[proc].size())
        return false;
    blocks_[proc][b] += count;
    return true;
}

bool
EdgeProfiler::addEdgeCount(ProcId proc, BlockId from, BlockId to,
                           uint64_t count)
{
    if (proc >= edges_.size() || from >= blocks_[proc].size() ||
        to >= blocks_[proc].size())
        return false;
    edges_[proc][key(from, to)] += count;
    return true;
}

} // namespace pathsched::profile
