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
    BlockId target1; ///< kNoBlock unless a two-target branch
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
{
    const size_t n = proc.blocks.size();
    const size_t nregs = proc.numRegs;
    liveIn_.assign(n, BitVec(nregs));
    liveOut_.assign(n, BitVec(nregs));
    const size_t nw = liveIn_.empty() ? 0 : liveIn_[0].numWords();

    // Per-thread flat scratch, reused by every solve on the thread:
    // use[b] is words [b*nw, (b+1)*nw), exit k's defs-before set is
    // words [k*nw, (k+1)*nw), block b's exits are [first[b], first[b+1]).
    thread_local std::vector<uint64_t> use, defs_before, defs, out, in;
    thread_local std::vector<ExitTerm> exits;
    thread_local std::vector<uint32_t> first;
    thread_local std::vector<RegId> srcs;

    // use[b]: registers read before any write in b (branch conditions
    // and ret operands are plain reads and land here too).
    use.assign(n * nw, 0);
    defs_before.clear();
    exits.clear();
    first.resize(n + 1);
    defs.resize(nw);
    for (BlockId b = 0; b < n; ++b) {
        first[b] = uint32_t(exits.size());
        uint64_t *use_b = use.data() + b * nw;
        std::fill(defs.begin(), defs.end(), 0);
        for (const auto &ins : proc.blocks[b].instrs) {
            ins.sources(srcs);
            for (RegId r : srcs) {
                ps_assert(r < nregs);
                if (!testBit(defs.data(), r))
                    setBit(use_b, r);
            }
            if (ins.isBranch() || ins.op == ir::Opcode::Jmp) {
                exits.push_back({ins.target0, ins.isBranch()
                                                  ? ins.target1
                                                  : ir::kNoBlock});
                defs_before.insert(defs_before.end(), defs.begin(),
                                   defs.end());
            }
            if (ins.dst != kNoReg) {
                ps_assert(ins.dst < nregs);
                setBit(defs.data(), ins.dst);
            }
        }
    }
    first[n] = uint32_t(exits.size());

    out.resize(nw);
    in.resize(nw);
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t i = n; i-- > 0;) {
            const BlockId b = BlockId(i);
            // Every path out of b goes through some exit, so live-in is
            // the plain upward-exposed reads plus, per exit, whatever
            // the exit's targets need that b has not yet redefined at
            // that point.
            std::fill(out.begin(), out.end(), 0);
            std::copy_n(use.data() + b * nw, nw, in.data());
            for (uint32_t k = first[b]; k < first[b + 1]; ++k) {
                const ExitTerm &e = exits[k];
                const uint64_t *t0 = liveIn_[e.target0].words();
                const uint64_t *t1 = e.target1 != ir::kNoBlock
                                         ? liveIn_[e.target1].words()
                                         : t0;
                const uint64_t *d = defs_before.data() + size_t(k) * nw;
                for (size_t w = 0; w < nw; ++w) {
                    const uint64_t flow = t0[w] | t1[w];
                    out[w] |= flow;
                    in[w] |= flow & ~d[w];
                }
            }
            uint64_t *old_out = liveOut_[b].words();
            if (!std::equal(out.begin(), out.end(), old_out)) {
                std::copy(out.begin(), out.end(), old_out);
                changed = true;
            }
            uint64_t *old_in = liveIn_[b].words();
            if (!std::equal(in.begin(), in.end(), old_in)) {
                std::copy(in.begin(), in.end(), old_in);
                changed = true;
            }
        }
    }

    // One huge procedure must not pin its scratch for the thread's
    // lifetime: return it unless it is small enough to keep reusing.
    constexpr size_t kKeepWords = size_t(1) << 17; // 1 MiB
    if (use.capacity() + defs_before.capacity() > kKeepWords) {
        std::vector<uint64_t>().swap(use);
        std::vector<uint64_t>().swap(defs_before);
    }
}

} // namespace pathsched::analysis
