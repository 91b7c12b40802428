#include "analysis/liveness.hpp"

#include <algorithm>

namespace pathsched::analysis {

using ir::BlockId;
using ir::kNoReg;
using ir::RegId;

namespace {

/**
 * One way control leaves a block to other blocks: the targets of a
 * (possibly mid-block) branch or a jmp, with the registers defined in
 * the block strictly before that point (a flat word range of the
 * solver's defs-before pool).  A Ret leaves to nothing and has no term.
 *
 * With superblocks a block can be left part-way through, so the classic
 * summary `liveIn = use ∪ (liveOut − def)` is wrong: a register defined
 * only *after* a side exit does not shadow the in-flight value that the
 * exit path still reads (the def never executes on that path).  Each
 * exit therefore contributes its targets' live-in minus only the defs
 * that precede it.
 */
struct ExitTerm
{
    BlockId target0;
    BlockId target1; ///< target0 again unless a two-target branch
};

/**
 * Per-thread solver scratch, reused by every solve on the thread:
 * use[b] is words [b*nw, (b+1)*nw), exit k's defs-before set is words
 * [k*nw, (k+1)*nw), block b's exits are [first[b], first[b+1]), and
 * block b's predecessors (one entry per exit target, so a block may
 * repeat) are preds[predFirst[b], predFirst[b+1]).  The worklist is a
 * FIFO ring of n slots: a block is in it at most once (queued[b]).
 */
struct Scratch
{
    std::vector<uint64_t> use, defsBefore, defs;
    std::vector<ExitTerm> exits;
    std::vector<uint32_t> first, predFirst, preds, ring;
    std::vector<uint8_t> queued;

    size_t
    bytes(bool capacity) const
    {
        auto sz = [capacity](const auto &v) {
            return (capacity ? v.capacity() : v.size()) *
                   sizeof(v.front());
        };
        return sz(use) + sz(defsBefore) + sz(defs) + sz(exits) +
               sz(first) + sz(predFirst) + sz(preds) + sz(ring) +
               sz(queued);
    }
};

inline void
setBit(uint64_t *words, RegId r)
{
    words[r >> 6] |= uint64_t(1) << (r & 63);
}

inline bool
testBit(const uint64_t *words, RegId r)
{
    return (words[r >> 6] >> (r & 63)) & 1;
}

} // namespace

Liveness::Liveness(const ir::Procedure &proc)
    : numBlocks_(proc.blocks.size()), numRegs_(proc.numRegs),
      numWords_((numRegs_ + 63) / 64),
      table_(2 * numBlocks_ * numWords_, 0)
{
    const size_t n = numBlocks_;
    const size_t nw = numWords_;
    thread_local Scratch scratch;
    Scratch &s = scratch;

    // use[b]: registers read before any write in b (branch conditions
    // and ret operands are plain reads and land here too).
    s.use.assign(n * nw, 0);
    s.defsBefore.clear();
    s.exits.clear();
    s.first.resize(n + 1);
    s.defs.resize(nw);
    s.predFirst.assign(n + 1, 0);
    for (BlockId b = 0; b < n; ++b) {
        s.first[b] = uint32_t(s.exits.size());
        uint64_t *use_b = s.use.data() + b * nw;
        uint64_t *defs = s.defs.data();
        std::fill(s.defs.begin(), s.defs.end(), 0);
        for (const auto &ins : proc.blocks[b].instrs) {
            ins.forEachSource([&](RegId r) {
                ps_assert(r < numRegs_);
                if (!testBit(defs, r))
                    setBit(use_b, r);
            });
            if (ins.isBranch() || ins.op == ir::Opcode::Jmp) {
                const BlockId t1 = ins.isBranch() &&
                                           ins.target1 != ir::kNoBlock
                                       ? ins.target1
                                       : ins.target0;
                s.exits.push_back({ins.target0, t1});
                s.defsBefore.insert(s.defsBefore.end(), s.defs.begin(),
                                    s.defs.end());
                ++s.predFirst[ins.target0 + 1];
                if (t1 != ins.target0)
                    ++s.predFirst[t1 + 1];
            }
            if (ins.dst != kNoReg) {
                ps_assert(ins.dst < numRegs_);
                setBit(defs, ins.dst);
            }
        }
    }
    s.first[n] = uint32_t(s.exits.size());

    // Predecessor lists (CSR), in block order.
    for (size_t b = 0; b < n; ++b)
        s.predFirst[b + 1] += s.predFirst[b];
    s.preds.resize(s.predFirst[n]);
    for (BlockId b = 0; b < n; ++b) {
        for (uint32_t k = s.first[b]; k < s.first[b + 1]; ++k) {
            const ExitTerm &e = s.exits[k];
            s.preds[s.predFirst[e.target0]++] = b;
            if (e.target1 != e.target0)
                s.preds[s.predFirst[e.target1]++] = b;
        }
    }
    // Placing advanced each predFirst[b] to the start of b+1; shift back.
    for (size_t b = n; b > 0; --b)
        s.predFirst[b] = s.predFirst[b - 1];
    s.predFirst[0] = 0;

    // Every block starts queued, last block first: blocks are mostly
    // numbered in flow order, and a backward problem converges fastest
    // when a block's successors are visited before it.
    s.ring.resize(n);
    s.queued.assign(n, 1);
    for (size_t i = 0; i < n; ++i)
        s.ring[i] = uint32_t(n - 1 - i);
    size_t head = 0, count = n;

    uint64_t *const in_rows = table_.data();
    uint64_t *const out_rows = in_rows + n * nw;
    while (count > 0) {
        const BlockId b = s.ring[head];
        head = head + 1 == n ? 0 : head + 1;
        --count;
        s.queued[b] = 0;
        ++visits_;

        // Every path out of b goes through some exit, so live-in is the
        // plain upward-exposed reads plus, per exit, whatever the
        // exit's targets need that b has not yet redefined at that
        // point.  Word by word, so a self-loop reads its own old word
        // before overwriting it.
        const uint64_t *use_b = s.use.data() + b * nw;
        uint64_t *in_b = in_rows + b * nw;
        uint64_t *out_b = out_rows + b * nw;
        bool grew = false;
        for (size_t w = 0; w < nw; ++w) {
            uint64_t out = 0;
            uint64_t in = use_b[w];
            for (uint32_t k = s.first[b]; k < s.first[b + 1]; ++k) {
                const ExitTerm &e = s.exits[k];
                const uint64_t flow = in_rows[e.target0 * nw + w] |
                                      in_rows[e.target1 * nw + w];
                out |= flow;
                in |= flow & ~s.defsBefore[k * nw + w];
            }
            out_b[w] = out;
            grew |= in != in_b[w];
            in_b[w] = in;
        }
        if (!grew)
            continue;
        for (uint32_t j = s.predFirst[b]; j < s.predFirst[b + 1]; ++j) {
            const uint32_t p = s.preds[j];
            if (s.queued[p])
                continue;
            s.queued[p] = 1;
            // head < n and count < n, so one subtraction wraps the tail.
            const size_t tail = head + count;
            s.ring[tail < n ? tail : tail - n] = p;
            ++count;
        }
    }

    // Keep the scratch for the next solve: procedures solved again and
    // again would otherwise map and fault in fresh pages every time.
    // One huge procedure must still not pin its scratch for the
    // thread's lifetime, so a holding above 1 MiB is returned once a
    // solve needs less than a quarter of it.
    constexpr size_t kKeepBytes = size_t(1) << 20;
    const size_t held = s.bytes(true);
    if (held > kKeepBytes && 4 * s.bytes(false) < held)
        s = Scratch();
}

} // namespace pathsched::analysis
