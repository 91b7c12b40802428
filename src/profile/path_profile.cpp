#include "profile/path_profile.hpp"

#include <cstddef>

#include "analysis/dominators.hpp"
#include "analysis/loops.hpp"
#include "support/logging.hpp"

namespace pathsched::profile {

using ir::BlockId;
using ir::kNoBlock;
using ir::ProcId;

namespace {

/** Overflow-table key kinds: a node's later children and its later
 *  memoised successors share one table. */
constexpr uint64_t kChildKey = 0;
constexpr uint64_t kSuccKey = 1;

/** Pack (node, kind, label); labels are below 2^31 (checked at
 *  construction), so the key is never Overflow::kEmpty. */
uint64_t
overflowKey(uint32_t node, uint64_t kind, BlockId label)
{
    return (uint64_t(node) << 32) | (uint64_t(label) << 1) | kind;
}

/** Multiplicative (Fibonacci) hash onto a power-of-two @p size. */
size_t
slotOf(uint64_t key, size_t size)
{
    return size_t((key * 0x9E3779B97F4A7C15ull) >> 32) & (size - 1);
}

} // namespace

uint32_t
PathProfiler::Overflow::find(uint64_t key) const
{
    if (slots.empty())
        return 0;
    const size_t mask = slots.size() - 1;
    for (size_t i = slotOf(key, slots.size());; i = (i + 1) & mask) {
        if (slots[i].key == key)
            return slots[i].value;
        if (slots[i].key == kEmpty)
            return 0;
    }
}

void
PathProfiler::Overflow::insert(uint64_t key, uint32_t value)
{
    // Keep the load factor at or below 1/2 so probes stay short.
    if (2 * (used + 1) > slots.size()) {
        std::vector<Slot> old(slots.empty() ? 16 : 2 * slots.size());
        old.swap(slots);
        used = 0;
        for (const Slot &s : old) {
            if (s.key != kEmpty)
                insert(s.key, s.value);
        }
    }
    const size_t mask = slots.size() - 1;
    size_t i = slotOf(key, slots.size());
    while (slots[i].key != kEmpty)
        i = (i + 1) & mask;
    slots[i] = Slot{key, value};
    ++used;
}

PathProfiler::PathProfiler(const ir::Program &prog,
                           PathProfileParams params)
    : params_(params)
{
    ps_assert(params_.maxBlocks >= 2);
    tries_.resize(prog.procs.size());
    condBlock_.resize(prog.procs.size());
    backEdges_.resize(prog.procs.size());
    for (const auto &p : prog.procs) {
        ps_assert(p.blocks.size() < (size_t(1) << 31));
        Trie &t = tries_[p.id];
        t.nodes.emplace_back(); // root = empty window
        t.rootChild.assign(p.blocks.size(), 0);
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
PathProfiler::findChild(const Trie &t, uint32_t node, BlockId label)
{
    // Formation queries blocks that tail duplication created after the
    // profiled run; no node can carry such a label.
    if (label >= t.rootChild.size())
        return 0;
    if (node == 0)
        return t.rootChild[label];
    const Node &n = t.nodes[node];
    if (n.childLabel == label)
        return n.child;
    if (!n.moreChildren)
        return 0;
    return t.overflow.find(overflowKey(node, kChildKey, label));
}

uint32_t
PathProfiler::childOf(ProcId proc, uint32_t node, BlockId label)
{
    Trie &t = tries_[proc];
    if (uint32_t c = findChild(t, node, label))
        return c;
    ps_assert(label < t.rootChild.size());
    const uint32_t idx = uint32_t(t.nodes.size());
    Node child;
    child.label = label;
    child.parent = node;
    child.depth = t.nodes[node].depth + 1;
    t.nodes.push_back(child);
    if (node == 0) {
        t.rootChild[label] = idx;
        return idx;
    }
    Node &n = t.nodes[node];
    if (n.child == 0) {
        n.childLabel = label;
        n.child = idx;
    } else {
        t.overflow.insert(overflowKey(node, kChildKey, label), idx);
        n.moreChildren = true;
    }
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
    // A block the profiled procedure never had is no known branch.
    const auto &cond = condBlock_[proc];
    const uint32_t cost = label < cond.size() && cond[label] ? 1 : 0;
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
    // From the empty window the successor is the root's child `to`.
    if (node == 0)
        return childOf(proc, 0, to);
    Trie &t = tries_[proc];
    {
        const Node &n = t.nodes[node];
        if (n.succLabel == to)
            return n.succ;
        if (n.moreSucc) {
            if (uint32_t s = t.overflow.find(overflowKey(node, kSuccKey, to)))
                return s;
        }
    }

    // First time this window meets `to`: construct the successor window
    // "to, then as much of this window (newest first) as fits".  The
    // window is the activation's last `depth` blocks.
    const BlockId *newest = history_.data() + history_.size();
    const uint32_t depth = t.nodes[node].depth;
    uint32_t result = childOf(proc, 0, to);
    uint32_t branches = 0;
    uint32_t length = 1;
    for (uint32_t k = 1; k <= depth; ++k) {
        const BlockId label = newest[-std::ptrdiff_t(k)];
        if (!extendOlder(proc, label, branches, length))
            break;
        result = childOf(proc, result, label);
    }

    Node &n = t.nodes[node];
    if (n.succ == 0) {
        n.succLabel = to;
        n.succ = result;
    } else {
        t.overflow.insert(overflowKey(node, kSuccKey, to), result);
        n.moreSucc = true;
    }
    return result;
}

void
PathProfiler::step(ProcId proc, BlockId to)
{
    Activation &a = windowStack_.back();
    ps_assert(a.proc == proc);
    a.node = transition(proc, a.node, to);
    ++tries_[proc].nodes[a.node].count;
    ++steps_;
    // Keep the activation's last maxBlocks blocks (at least), trimming
    // in batches so the cost per step stays O(1).
    history_.push_back(to);
    if (history_.size() - a.base > 2 * size_t(params_.maxBlocks)) {
        history_.erase(history_.begin() + std::ptrdiff_t(a.base),
                       history_.end() - std::ptrdiff_t(params_.maxBlocks));
    }
}

void
PathProfiler::onProcEnter(ProcId proc)
{
    windowStack_.push_back({proc, 0, history_.size()});
    step(proc, 0);
}

void
PathProfiler::onProcExit(ProcId proc)
{
    ps_assert(!windowStack_.empty() && windowStack_.back().proc == proc);
    history_.resize(windowStack_.back().base);
    windowStack_.pop_back();
}

void
PathProfiler::onEdge(ProcId proc, BlockId from, BlockId to)
{
    if (params_.forwardPathsOnly &&
        backEdges_[proc].count((uint64_t(from) << 32) | to)) {
        windowStack_.back().node = 0; // chop the window at back edges
    }
    step(proc, to);
}

void
PathProfiler::finalize()
{
    ps_assert_msg(!finalized_, "finalize() called twice");
    for (auto &t : tries_) {
        t.subtree.resize(t.nodes.size());
        for (size_t i = 0; i < t.nodes.size(); ++i)
            t.subtree[i] = t.nodes[i].count;
        // Children always have larger indices than their parent, so one
        // reverse sweep accumulates complete subtree sums.
        for (size_t i = t.nodes.size(); i-- > 1;)
            t.subtree[t.nodes[i].parent] += t.subtree[i];
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
    return t.subtree[node];
}

uint64_t
PathProfiler::blockFreq(ProcId proc, BlockId b) const
{
    ps_assert_msg(finalized_, "blockFreq before finalize()");
    const uint32_t node = findChild(tries_[proc], 0, b);
    return node == 0 ? 0 : tries_[proc].subtree[node];
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

size_t
PathProfiler::trieBytes() const
{
    size_t bytes = 0;
    for (const auto &t : tries_) {
        bytes += t.nodes.capacity() * sizeof(Node) +
                 t.rootChild.capacity() * sizeof(uint32_t) +
                 t.overflow.slots.capacity() * sizeof(Overflow::Slot) +
                 t.subtree.capacity() * sizeof(uint64_t);
    }
    return bytes;
}

} // namespace pathsched::profile
