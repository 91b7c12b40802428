#include "profile/path_profile.hpp"

#include <algorithm>

#include "analysis/dominators.hpp"
#include "analysis/loops.hpp"
#include "support/logging.hpp"

namespace pathsched::profile {

using ir::BlockId;
using ir::kNoBlock;
using ir::ProcId;

PathProfiler::PathProfiler(const ir::Program &prog,
                           PathProfileParams params)
    : params_(params)
{
    ps_assert(params_.maxBlocks >= 2);
    tries_.resize(prog.procs.size());
    condBlock_.resize(prog.procs.size());
    backEdges_.resize(prog.procs.size());
    for (const auto &p : prog.procs) {
        tries_[p.id].nodes.emplace_back(); // root = empty window
        auto &cond = condBlock_[p.id];
        cond.assign(p.blocks.size(), 0);
        for (BlockId b = 0; b < p.blocks.size(); ++b) {
            if (!p.blocks[b].empty() && p.blocks[b].terminator().isBranch())
                cond[b] = 1;
        }
        if (params_.forwardPathsOnly) {
            analysis::Dominators doms(p);
            analysis::LoopInfo loops(p, doms);
            std::vector<BlockId> succs;
            for (BlockId b = 0; b < p.blocks.size(); ++b) {
                ir::successorsOf(p.blocks[b], succs);
                for (BlockId s : succs) {
                    if (loops.isBackEdge(b, s))
                        backEdges_[p.id].insert((uint64_t(b) << 32) | s);
                }
            }
        }
    }
}

uint32_t
PathProfiler::findChild(const Trie &t, uint32_t node, BlockId label) const
{
    for (const auto &[l, c] : t.nodes[node].children) {
        if (l == label)
            return c;
    }
    return 0; // the root is never a child, so 0 means "absent"
}

uint32_t
PathProfiler::childOf(ProcId proc, uint32_t node, BlockId label)
{
    Trie &t = tries_[proc];
    if (uint32_t c = findChild(t, node, label))
        return c;
    Node child;
    child.label = label;
    child.parent = node;
    const uint32_t idx = uint32_t(t.nodes.size());
    t.nodes.push_back(std::move(child));
    t.nodes[node].children.emplace_back(label, idx);
    return idx;
}

/** The budget rule of every walk from a window's newest block (the
 *  start: branches = 0, length = 1) backwards: an older block @p label
 *  spends one branch when its terminator is a conditional branch.
 *  Extends the window by @p label when it still fits. */
bool
PathProfiler::extendOlder(ProcId proc, BlockId label, uint32_t &branches,
                          uint32_t &length) const
{
    const uint32_t cost = condBlock_[proc][label] ? 1 : 0;
    if (branches + cost > params_.maxBranches ||
        length + 1 > params_.maxBlocks)
        return false;
    branches += cost;
    ++length;
    return true;
}

uint32_t
PathProfiler::transition(ProcId proc, uint32_t node, BlockId to)
{
    Trie &t = tries_[proc];
    for (const auto &[l, s] : t.nodes[node].succ) {
        if (l == to)
            return s;
    }

    // First time this window meets `to`: construct the successor window
    // "to, then as much of this window (newest first) as fits".
    std::vector<BlockId> newest_first;
    for (uint32_t cur = node; cur != 0; cur = t.nodes[cur].parent)
        newest_first.push_back(t.nodes[cur].label); // oldest first here
    std::reverse(newest_first.begin(), newest_first.end());

    uint32_t result = childOf(proc, 0, to);
    uint32_t branches = 0;
    uint32_t length = 1;
    for (BlockId label : newest_first) {
        if (!extendOlder(proc, label, branches, length))
            break;
        result = childOf(proc, result, label);
    }

    t.nodes[node].succ.emplace_back(to, result);
    return result;
}

void
PathProfiler::step(ProcId proc, BlockId to)
{
    auto &[p, node] = windowStack_.back();
    ps_assert(p == proc);
    node = transition(proc, node, to);
    ++tries_[proc].nodes[node].count;
    ++steps_;
}

void
PathProfiler::onProcEnter(ProcId proc)
{
    windowStack_.push_back({proc, 0});
    step(proc, 0);
}

void
PathProfiler::onProcExit(ProcId proc)
{
    ps_assert(!windowStack_.empty() &&
              windowStack_.back().first == proc);
    windowStack_.pop_back();
}

void
PathProfiler::onEdge(ProcId proc, BlockId from, BlockId to)
{
    if (params_.forwardPathsOnly &&
        backEdges_[proc].count((uint64_t(from) << 32) | to)) {
        windowStack_.back().second = 0; // chop the window at back edges
    }
    step(proc, to);
}

void
PathProfiler::finalize()
{
    ps_assert_msg(!finalized_, "finalize() called twice");
    for (auto &t : tries_) {
        for (auto &n : t.nodes)
            n.subtree = n.count;
        // Children always have larger indices than their parent, so one
        // reverse sweep accumulates complete subtree sums.
        for (size_t i = t.nodes.size(); i-- > 1;)
            t.nodes[t.nodes[i].parent].subtree += t.nodes[i].subtree;
    }
    finalized_ = true;
}

uint64_t
PathProfiler::pathFreq(ProcId proc, const std::vector<BlockId> &seq) const
{
    ps_assert_msg(finalized_, "pathFreq before finalize()");
    ps_assert(!seq.empty());
    const Trie &t = tries_[proc];

    uint32_t node = findChild(t, 0, seq.back());
    if (node == 0)
        return 0;
    uint32_t branches = 0;
    uint32_t length = 1;
    for (size_t k = seq.size() - 1; k-- > 0;) {
        if (!extendOlder(proc, seq[k], branches, length))
            break; // profiling depth reached: longest-suffix frequency
        const uint32_t child = findChild(t, node, seq[k]);
        if (child == 0)
            return 0; // this suffix never executed
        node = child;
    }
    return t.nodes[node].subtree;
}

uint64_t
PathProfiler::blockFreq(ProcId proc, BlockId b) const
{
    ps_assert_msg(finalized_, "blockFreq before finalize()");
    const uint32_t node = findChild(tries_[proc], 0, b);
    return node == 0 ? 0 : tries_[proc].nodes[node].subtree;
}

void
PathProfiler::forEachPath(
    const std::function<void(ProcId, const std::vector<BlockId> &,
                             uint64_t)> &cb) const
{
    std::vector<BlockId> seq;
    for (ProcId p = 0; p < tries_.size(); ++p) {
        const Trie &t = tries_[p];
        for (uint32_t n = 1; n < t.nodes.size(); ++n) {
            if (t.nodes[n].count == 0)
                continue;
            // Parent chain yields labels oldest-first already.
            seq.clear();
            for (uint32_t cur = n; cur != 0; cur = t.nodes[cur].parent)
                seq.push_back(t.nodes[cur].label);
            cb(p, seq, t.nodes[n].count);
        }
    }
}

bool
PathProfiler::addPathCount(ProcId proc,
                           const std::vector<BlockId> &seq,
                           uint64_t count)
{
    ps_assert_msg(!finalized_, "addPathCount after finalize()");
    // Out-of-range ids and empty sequences come from untrusted
    // serialized profiles: reject, don't abort.
    if (proc >= tries_.size() || seq.empty())
        return false;
    for (BlockId b : seq) {
        if (b >= condBlock_[proc].size())
            return false;
    }

    uint32_t node = childOf(proc, 0, seq.back());
    uint32_t branches = 0;
    uint32_t length = 1;
    for (size_t k = seq.size() - 1; k-- > 0;) {
        if (!extendOlder(proc, seq[k], branches, length))
            return false; // over budget: not a recordable window
        node = childOf(proc, node, seq[k]);
    }
    tries_[proc].nodes[node].count += count;
    return true;
}

size_t
PathProfiler::numPaths() const
{
    size_t n = 0;
    for (const auto &t : tries_)
        n += t.nodes.size() - 1;
    return n;
}

} // namespace pathsched::profile
