/**
 * @file
 * Per-exit liveness view of a block.
 *
 * Compaction decides speculation legality per side exit: an instruction
 * may move above an exit only if its destination is not live at the
 * exit's target.  This helper lists, for every exit of a block, a view
 * of the registers live at its destination: pointers to the rows of
 * the Liveness table that hold its targets' live-in sets, never a
 * copy.
 */

#ifndef PATHSCHED_SCHED_EXIT_LIVE_HPP
#define PATHSCHED_SCHED_EXIT_LIVE_HPP

#include <vector>

#include "analysis/liveness.hpp"
#include "ir/procedure.hpp"
#include "support/bitvec.hpp"

namespace pathsched::sched {

/**
 * One exit of a block with a view of the live-at-target register set:
 * the union of live0 and live1, where either may be null (both are for
 * a Ret).  Each points at a Liveness table row of numRegs bits, so the
 * view is valid while that table lives.
 */
struct ExitInfo
{
    /** Instruction index of the exiting branch/jump/return. */
    uint32_t instrIdx;
    /** True for the block's final instruction. */
    bool isTerminator;
    /** Size of the liveness universe the rows were solved over. */
    uint32_t numRegs = 0;
    /** Live-in words of the first target (null for Ret). */
    const uint64_t *live0 = nullptr;
    /** Live-in words of a two-target terminator's second target, else
     *  null. */
    const uint64_t *live1 = nullptr;

    /** True when register @p r is live at the exit's destination.
     *  Registers outside the liveness universe are never live. */
    bool
    liveAt(ir::RegId r) const
    {
        if (r >= numRegs)
            return false;
        const uint64_t bit = uint64_t(1) << (r & 63);
        return (live0 != nullptr && (live0[r >> 6] & bit) != 0) ||
               (live1 != nullptr && (live1[r >> 6] & bit) != 0);
    }

    /** @p bv |= the live-at-target set (@p bv has the universe's size). */
    void
    unionInto(BitVec &bv) const
    {
        ps_assert(bv.size() == numRegs);
        uint64_t *words = bv.words();
        for (size_t w = 0; w < bv.numWords(); ++w) {
            if (live0 != nullptr)
                words[w] |= live0[w];
            if (live1 != nullptr)
                words[w] |= live1[w];
        }
    }
};

/**
 * Fill @p out (cleared first) with the exits of block @p b of @p proc,
 * in instruction order.  A terminator branch contributes a single
 * ExitInfo whose live set is the union over both targets; a Ret
 * contributes an empty live set (its operand read is a normal data
 * dependence).
 */
void collectExits(const ir::Procedure &proc, ir::BlockId b,
                  const analysis::Liveness &live,
                  std::vector<ExitInfo> &out);

} // namespace pathsched::sched

#endif // PATHSCHED_SCHED_EXIT_LIVE_HPP
