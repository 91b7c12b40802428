/**
 * @file
 * General path profiler (Young, 1998; §2.2 and §3.1 of the paper).
 *
 * A *general path* is any contiguous block sequence containing at most
 * `maxBranches` conditional branches; profiling observes a sliding
 * window of the dynamic block trace, per procedure activation.
 *
 * Implementation: each distinct window is a node of a lazily built
 * *reversed trie* (root-to-node labels spell the window newest block
 * first).  Stepping to block x maps the current node W to the node for
 * "x followed by as much of W as the branch budget allows"; the result
 * is memoised per (node, x), so after its first O(depth) construction
 * every transition costs O(1) — the paper's O(npaths + nedges) bound.
 * Each step increments the current (deepest) node's counter; finalize()
 * folds counters into subtree sums, after which the frequency of any
 * block sequence t is the subtree sum at the node reached by walking
 * reversed(t).  When t exceeds the profiling depth, the walk stops at
 * the budget and thereby returns the frequency of t's *longest suffix
 * with exact frequencies* — precisely the fallback rule of §2.2.
 *
 * Storage (per procedure) is flat, because a memo miss rebuilds a
 * whole window level by level and every level is a dependent load:
 *  - nodes are 40-byte PODs in one vector: label, parent, count, depth,
 *    plus the *first* child and the *first* memoised successor inline as
 *    (label, index) pairs, and a "more" flag for each.  Most nodes have
 *    at most one child, so the common level touches one cache line;
 *  - the root's children are a vector indexed by block id (a lookup
 *    past its end — a block the profiled procedure never had — is 0);
 *  - second and later children and successors go to one
 *    open-addressing overflow table keyed by (node, kind, label);
 *  - subtree sums are a separate vector that finalize() fills;
 *  - a memo miss reads the current window from the activation's last
 *    `depth` executed blocks (kept in history_), not from the node's
 *    parent chain, and allocates nothing.
 * Nodes are numbered in creation order, which the layout does not
 * change, so forEachPath() order and serialized bytes do not depend
 * on it.
 *
 * A forward-path mode (Ball-Larus-style) is provided for comparison: the
 * window additionally resets when a back edge is traversed.
 */

#ifndef PATHSCHED_PROFILE_PATH_PROFILE_HPP
#define PATHSCHED_PROFILE_PATH_PROFILE_HPP

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "interp/listener.hpp"
#include "ir/procedure.hpp"

namespace pathsched::profile {

/** Path-profiler configuration. */
struct PathProfileParams
{
    /** Maximum conditional branches inside one path (paper: 15). */
    uint32_t maxBranches = 15;
    /** Hard cap on blocks per path (guards jump-only chains). */
    uint32_t maxBlocks = 64;
    /** Chop windows at back edges (forward paths) instead of sliding. */
    bool forwardPathsOnly = false;

    bool operator==(const PathProfileParams &) const = default;
};

/** Collects general (or forward) path profiles for a whole program. */
class PathProfiler : public interp::TraceListener
{
  public:
    PathProfiler(const ir::Program &prog,
                 PathProfileParams params = PathProfileParams());

    void onProcEnter(ir::ProcId proc) override;
    void onProcExit(ir::ProcId proc) override;
    void onEdge(ir::ProcId proc, ir::BlockId from, ir::BlockId to) override;

    /** Compute subtree sums.  Must be called once, after the train run. */
    void finalize();

    /** True once finalize() has run.  Loaders must check this before
     *  addPathCount(), which asserts on a finalized profiler. */
    bool finalized() const { return finalized_; }

    /**
     * Frequency with which the block sequence @p seq (oldest block
     * first) was executed contiguously in @p proc.  Exact when @p seq
     * fits the profiling depth; otherwise the frequency of the longest
     * suffix that does.  Requires finalize().
     */
    uint64_t pathFreq(ir::ProcId proc,
                      const std::vector<ir::BlockId> &seq) const;

    /** Frequency of a single block (sum of all paths ending there). */
    uint64_t blockFreq(ir::ProcId proc, ir::BlockId b) const;

    /** Total distinct paths (trie nodes) recorded program-wide. */
    size_t numPaths() const;

    /** Bytes the tries hold, counted from container capacities (not
     *  the allocator), so the figure is deterministic. */
    size_t trieBytes() const;

    /** Total dynamic steps (edges + entries) processed. */
    uint64_t numSteps() const { return steps_; }

    const PathProfileParams &params() const { return params_; }

    /** @name Bulk access (profile persistence and merging)
     *  @{
     */
    /** Visit every recorded window with a nonzero raw count, as an
     *  oldest-block-first sequence. */
    void forEachPath(
        const std::function<void(ir::ProcId,
                                 const std::vector<ir::BlockId> &,
                                 uint64_t)> &cb) const;
    /**
     * Add @p count occurrences of window @p seq (oldest first).  Must
     * be called before finalize(); fails (returns false) when the
     * sequence exceeds the profiling budget, is empty, or names an
     * out-of-range procedure or block — untrusted serialized profiles
     * go through here, so such input rejects rather than aborts.
     */
    bool addPathCount(ir::ProcId proc,
                      const std::vector<ir::BlockId> &seq,
                      uint64_t count);
    /** @} */

  private:
    /** One trie node.  Index 0 of a child or successor slot means
     *  "none": the root is never a child or a successor. */
    struct Node
    {
        ir::BlockId label = ir::kNoBlock;
        uint32_t parent = 0;
        uint64_t count = 0;
        /** First child (extension backward in time). */
        ir::BlockId childLabel = ir::kNoBlock;
        uint32_t child = 0;
        /** First memoised successor window (next-executed block). */
        ir::BlockId succLabel = ir::kNoBlock;
        uint32_t succ = 0;
        /** Window length in blocks (the root's is 0). */
        uint32_t depth = 0;
        /** Later children / successors are in Trie::overflow. */
        bool moreChildren = false;
        bool moreSucc = false;
    };
    static_assert(sizeof(Node) == 40, "Node must stay one 40-byte POD");

    /** Open-addressing (linear probing) map from a packed
     *  (node, kind, label) key to a node index.  Entries are never
     *  erased. */
    struct Overflow
    {
        static constexpr uint64_t kEmpty = ~uint64_t(0);
        struct Slot
        {
            uint64_t key = kEmpty;
            uint32_t value = 0;
        };

        std::vector<Slot> slots; ///< empty, or a power-of-two size
        size_t used = 0;

        /** The value stored under @p key, or 0 when absent. */
        uint32_t find(uint64_t key) const;
        /** Store @p value under @p key, which must be absent. */
        void insert(uint64_t key, uint32_t value);
    };

    /** Per-procedure trie; node 0 is the root (empty window). */
    struct Trie
    {
        std::vector<Node> nodes;
        /** The root's child per block id (0 = none). */
        std::vector<uint32_t> rootChild;
        Overflow overflow;
        /** Subtree sum per node; filled by finalize(). */
        std::vector<uint64_t> subtree;
    };

    uint32_t childOf(ir::ProcId proc, uint32_t node, ir::BlockId label);
    static uint32_t findChild(const Trie &t, uint32_t node,
                              ir::BlockId label);
    bool extendOlder(ir::ProcId proc, ir::BlockId label,
                     uint32_t &branches, uint32_t &length) const;
    uint32_t transition(ir::ProcId proc, uint32_t node, ir::BlockId to);
    void step(ir::ProcId proc, ir::BlockId to);

    PathProfileParams params_;
    std::vector<Trie> tries_;
    /** blocks whose terminator is a conditional branch, per proc. */
    std::vector<std::vector<uint8_t>> condBlock_;
    /** back-edge keys ((from<<32)|to), per proc; forward mode only. */
    std::vector<std::unordered_set<uint64_t>> backEdges_;
    /** One live procedure activation. */
    struct Activation
    {
        ir::ProcId proc = 0;
        /** Current window. */
        uint32_t node = 0;
        /** Where this activation's blocks start in history_. */
        size_t base = 0;
    };
    std::vector<Activation> windowStack_;
    /** Blocks the live activations executed, innermost last; each keeps
     *  at least its last maxBlocks.  The current window is the last
     *  `depth` of them, so a memo miss reads it here instead of walking
     *  the node's parent chain. */
    std::vector<ir::BlockId> history_;
    uint64_t steps_ = 0;
    bool finalized_ = false;
};

} // namespace pathsched::profile

#endif // PATHSCHED_PROFILE_PATH_PROFILE_HPP
