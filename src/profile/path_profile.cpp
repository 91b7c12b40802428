#include "profile/path_profile.hpp"

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>

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

PathProfiler::Node *
PathProfiler::NodeStore::allocate(size_t n)
{
    void *p = std::malloc(n * sizeof(Node));
    if (p == nullptr)
        throw std::bad_alloc();
    return static_cast<Node *>(p);
}

// Delegating to the default constructor makes the destructor free
// whatever was allocated when a later allocation throws.
PathProfiler::NodeStore::NodeStore(const NodeStore &other) : NodeStore()
{
    size_ = other.size_;
    if (size_ == 0)
        return;
    headCapacity_ = std::min(size_, kSegmentNodes);
    head_ = allocate(headCapacity_);
    std::memcpy(head_, other.head_, headCapacity_ * sizeof(Node));
    tail_.reserve(other.tail_.size());
    for (size_t k = 1; k < other.segments(); ++k) {
        tail_.push_back(allocate(kSegmentNodes));
        std::memcpy(tail_.back(), other.tail_[k - 1],
                    other.segmentSize(k) * sizeof(Node));
    }
}

PathProfiler::NodeStore::NodeStore(NodeStore &&other) noexcept
    : head_(other.head_), size_(other.size_),
      headCapacity_(other.headCapacity_), tail_(std::move(other.tail_))
{
    other.head_ = nullptr;
    other.size_ = other.headCapacity_ = 0;
    other.tail_.clear();
}

PathProfiler::NodeStore &
PathProfiler::NodeStore::operator=(NodeStore other) noexcept
{
    std::swap(head_, other.head_);
    std::swap(size_, other.size_);
    std::swap(headCapacity_, other.headCapacity_);
    tail_.swap(other.tail_);
    return *this;
}

PathProfiler::NodeStore::~NodeStore()
{
    std::free(head_);
    for (Node *seg : tail_)
        std::free(seg);
}

uint32_t
PathProfiler::NodeStore::push_back(const Node &n)
{
    const uint32_t idx = size_;
    if (idx < kSegmentNodes) {
        if (idx == headCapacity_) {
            const uint32_t cap =
                idx == 0 ? 1 : std::min(2 * idx, kSegmentNodes);
            void *grown = std::realloc(head_, cap * sizeof(Node));
            if (grown == nullptr)
                throw std::bad_alloc();
            head_ = static_cast<Node *>(grown);
            headCapacity_ = cap;
        }
        head_[idx] = n;
    } else {
        if ((idx & kSegmentMask) == 0) {
            // Reserve first, so that push_back cannot throw and leak
            // the new segment.
            tail_.reserve(tail_.size() + 1);
            tail_.push_back(allocate(kSegmentNodes));
        }
        tail_.back()[idx & kSegmentMask] = n;
    }
    ++size_;
    return idx;
}

PathProfiler::PathProfiler(const ir::Program &prog,
                           PathProfileParams params)
    : params_(params)
{
    ps_assert(params_.maxBlocks >= 2);
    tries_.resize(prog.procs.size());
    condBlock_.resize(prog.procs.size());
    for (const auto &p : prog.procs) {
        ps_assert(p.blocks.size() < (size_t(1) << 31));
        Trie &t = tries_[p.id];
        t.nodes.push_back(Node()); // root = empty window
        t.rootChild.assign(p.blocks.size(), 0);
        auto &cond = condBlock_[p.id];
        cond.assign(p.blocks.size(), 0);
        for (BlockId b = 0; b < p.blocks.size(); ++b) {
            if (!p.blocks[b].empty() && p.blocks[b].terminator().isBranch())
                cond[b] = 1;
        }
        if (params_.forwardPathsOnly) {
            ps_assert(p.id == loops_.size());
            const ir::Cfg cfg(p);
            loops_.emplace_back(cfg, analysis::Dominators(cfg));
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
    // A (parent, label) pair names at most one node, so a next node
    // with this parent and label is the child.
    if (node + 1 < t.nodes.size()) {
        const Node &next = t.nodes[node + 1];
        if (next.parent == node && next.label() == label)
            return node + 1;
    }
    if (!(t.nodes[node].word & kMore))
        return 0;
    return t.overflow.find(overflowKey(node, kChildKey, label));
}

uint32_t
PathProfiler::addChild(Trie &t, uint32_t node, BlockId label)
{
    Node child;
    child.word = label;
    child.parent = node;
    const uint32_t idx = t.nodes.push_back(child);
    if (node == 0) {
        t.rootChild[label] = idx;
    } else if (idx != node + 1) {
        t.overflow.insert(overflowKey(node, kChildKey, label), idx);
        t.nodes[node].word |= kMore;
    }
    return idx;
}

uint32_t
PathProfiler::childOf(ProcId proc, uint32_t node, BlockId label)
{
    Trie &t = tries_[proc];
    if (uint32_t c = findChild(t, node, label))
        return c;
    ps_assert(label < t.rootChild.size());
    return addChild(t, node, label);
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
        const Node::Slot &m = t.nodes[node].succ;
        if ((m.word & ~kMore) == to)
            return m.node;
        if (m.word & kMore) {
            if (uint32_t s = t.overflow.find(overflowKey(node, kSuccKey, to)))
                return s;
        }
    }

    // First time this window meets `to`: construct the successor window
    // "to, then as much of this window (newest first) as fits".  The
    // window is the longest in-budget suffix of the activation's
    // blocks, so walking them back from the newest stops, at the
    // latest, at the window's oldest block.  The walk descends while
    // the window's nodes exist; below the first missing level none
    // exists, so it appends the rest as a chain with no lookup, each
    // node the child of the one before it, i.e. its next node.
    ++memoMisses_;
    const BlockId *oldest = history_.data() + windowStack_.back().base;
    const BlockId *p = history_.data() + history_.size();
    uint32_t branches = 0;
    uint32_t length = 1;
    ps_assert(to < t.rootChild.size());
    uint32_t result = t.rootChild[to];
    bool descending = result != 0;
    if (!descending)
        result = addChild(t, 0, to);
    while (p != oldest && extendOlder(proc, p[-1], branches, length)) {
        const BlockId label = *--p;
        const uint32_t child = descending ? findChild(t, result, label) : 0;
        descending = child != 0;
        result = descending ? child : addChild(t, result, label);
    }

    Node::Slot &m = t.nodes[node].succ;
    if (m.node == 0) {
        m = {to, result};
    } else {
        t.overflow.insert(overflowKey(node, kSuccKey, to), result);
        m.word |= kMore;
    }
    return result;
}

void
PathProfiler::step(ProcId proc, BlockId to)
{
    ps_assert_msg(!finalized_, "step after finalize()");
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
    if (params_.forwardPathsOnly && loops_[proc].isBackEdge(from, to)) {
        // Chop the window at back edges, and the history it is read from.
        Activation &a = windowStack_.back();
        a.node = 0;
        history_.resize(a.base);
    }
    step(proc, to);
}

void
PathProfiler::finalize()
{
    ps_assert_msg(!finalized_, "finalize() called twice");
    for (auto &t : tries_) {
        NodeStore &nodes = t.nodes;
        // The successor memo is dead once the run is over; its word
        // holds the subtree sum from here on.
        for (size_t k = 0; k < nodes.segments(); ++k) {
            Node *seg = nodes.segment(k);
            for (uint32_t i = 0; i < nodes.segmentSize(k); ++i)
                seg[i].subtree = seg[i].count;
        }
        // Children always have larger indices than their parent, so one
        // reverse sweep (the root excluded) accumulates complete
        // subtree sums.
        for (size_t k = nodes.segments(); k-- > 0;) {
            const Node *seg = nodes.segment(k);
            for (uint32_t i = nodes.segmentSize(k); i-- > (k == 0 ? 1 : 0);)
                nodes[seg[i].parent].subtree += seg[i].subtree;
        }
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
        const NodeStore &nodes = tries_[p].nodes;
        for (size_t k = 0; k < nodes.segments(); ++k) {
            const Node *seg = nodes.segment(k);
            for (uint32_t i = k == 0 ? 1 : 0; i < nodes.segmentSize(k); ++i) {
                if (seg[i].count == 0)
                    continue;
                // Parent chain yields labels oldest-first already.
                seq.clear();
                seq.push_back(seg[i].label());
                for (uint32_t cur = seg[i].parent; cur != 0;
                     cur = nodes[cur].parent)
                    seq.push_back(nodes[cur].label());
                cb(p, seq, seg[i].count);
            }
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
                 t.overflow.slots.capacity() * sizeof(Overflow::Slot);
    }
    return bytes;
}

size_t
PathProfiler::nodeCapacity() const
{
    size_t n = 0;
    for (const auto &t : tries_)
        n += t.nodes.capacity();
    return n;
}

} // namespace pathsched::profile
