/**
 * @file
 * Per-block virtual-register liveness.
 *
 * The compactor uses live-in sets of superblock exit targets to decide
 * whether an instruction's destination may be hoisted above an exit and
 * whether live-off-trace renaming is required.
 *
 * Storage is one flat table of 64-bit words per solve: the live-in set
 * of block b is row b and its live-out set row n + b (n blocks), each
 * row ceil(numRegs / 64) words wide.  liveIn()/liveOut() hand out
 * read-only row views into that table.  A view stays valid for as long
 * as the table it points into: the Liveness it came from, or the one
 * that Liveness was moved into (a move keeps the table's storage).
 * Copying or assigning over a Liveness does not carry views along.
 */

#ifndef PATHSCHED_ANALYSIS_LIVENESS_HPP
#define PATHSCHED_ANALYSIS_LIVENESS_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ir/procedure.hpp"
#include "support/logging.hpp"

namespace pathsched::analysis {

/** Backward may-liveness over the virtual registers of one procedure. */
class Liveness
{
  public:
    /** A read-only view of one register set (one row of the table). */
    class Row
    {
      public:
        Row(const uint64_t *words, size_t nbits)
            : words_(words), nbits_(nbits)
        {}

        size_t size() const { return nbits_; }
        size_t numWords() const { return (nbits_ + 63) / 64; }
        /** Raw words, bit i in word i / 64. */
        const uint64_t *words() const { return words_; }

        bool
        test(size_t i) const
        {
            ps_assert(i < nbits_);
            return (words_[i >> 6] >> (i & 63)) & 1;
        }

        /** Call @p fn(i) for every set bit i, in ascending order. */
        template <typename Fn>
        void
        forEachSet(Fn &&fn) const
        {
            for (size_t w = 0; w < numWords(); ++w) {
                for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1)
                    fn(w * 64 + size_t(__builtin_ctzll(bits)));
            }
        }

        /** Same universe and same members. */
        bool
        operator==(const Row &o) const
        {
            return nbits_ == o.nbits_ &&
                   std::equal(words_, words_ + numWords(), o.words_);
        }

      private:
        const uint64_t *words_;
        size_t nbits_;
    };

    /**
     * Solve liveness for @p proc to its least fixed point.  A worklist
     * starts with every block queued in reverse index order and
     * re-queues a block's predecessors only when its live-in grows.
     * The per-block summaries, predecessor lists and worklist live in
     * flat per-thread scratch, so a solve allocates only its table.
     */
    explicit Liveness(const ir::Procedure &proc);

    /** Registers live on entry to block @p b. */
    Row
    liveIn(ir::BlockId b) const
    {
        ps_assert(b < numBlocks_);
        return Row(table_.data() + size_t(b) * numWords_, numRegs_);
    }

    /** Registers live on exit from block @p b. */
    Row
    liveOut(ir::BlockId b) const
    {
        ps_assert(b < numBlocks_);
        return Row(table_.data() + (numBlocks_ + b) * numWords_,
                   numRegs_);
    }

    /**
     * The register universe this instance was solved over.  The
     * procedure may have grown fresh registers since (renaming); fresh
     * registers are never live across pre-existing block boundaries,
     * so consumers size their scratch sets with this.
     */
    size_t numRegs() const { return numRegs_; }

    /** Blocks the worklist took off its queue: at least one per block,
     *  one more per re-queue after a successor's live-in grew. */
    uint64_t visits() const { return visits_; }

  private:
    size_t numBlocks_;
    size_t numRegs_;
    size_t numWords_; ///< words per row
    /** Live-in rows [0, numBlocks_), then live-out rows. */
    std::vector<uint64_t> table_;
    uint64_t visits_ = 0;
};

} // namespace pathsched::analysis

#endif // PATHSCHED_ANALYSIS_LIVENESS_HPP
