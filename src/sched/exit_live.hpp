/**
 * @file
 * Per-exit liveness view of a block.
 *
 * Compaction decides speculation legality per side exit: an instruction
 * may move above an exit only if its destination is not live at the
 * exit's target.  This helper lists, for every exit of a block, a view
 * of the registers live at its destination: pointers to the Liveness
 * live-in sets of the exit's targets, never a copy.
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
 * a Ret).  The view is valid while the Liveness it points into lives.
 */
struct ExitInfo
{
    /** Instruction index of the exiting branch/jump/return. */
    uint32_t instrIdx;
    /** True for the block's final instruction. */
    bool isTerminator;
    /** Live-in of the first target (null for Ret). */
    const BitVec *live0 = nullptr;
    /** Live-in of a two-target terminator's second target, else null. */
    const BitVec *live1 = nullptr;

    /** True when register @p r is live at the exit's destination.
     *  Registers outside the liveness universe are never live. */
    bool
    liveAt(ir::RegId r) const
    {
        return (live0 != nullptr && r < live0->size() && live0->test(r)) ||
               (live1 != nullptr && r < live1->size() && live1->test(r));
    }

    /** @p bv |= the live-at-target set (@p bv has the universe's size). */
    void
    unionInto(BitVec &bv) const
    {
        if (live0 != nullptr)
            bv.unionWith(*live0);
        if (live1 != nullptr)
            bv.unionWith(*live1);
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
