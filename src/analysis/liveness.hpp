/**
 * @file
 * Per-block virtual-register liveness.
 *
 * The compactor uses live-in sets of superblock exit targets to decide
 * whether an instruction's destination may be hoisted above an exit and
 * whether live-off-trace renaming is required.
 */

#ifndef PATHSCHED_ANALYSIS_LIVENESS_HPP
#define PATHSCHED_ANALYSIS_LIVENESS_HPP

#include <vector>

#include "ir/procedure.hpp"
#include "support/bitvec.hpp"

namespace pathsched::analysis {

/** Backward may-liveness over the virtual registers of one procedure. */
class Liveness
{
  public:
    /**
     * Solve liveness for @p proc to a fixed point.  The solver keeps
     * per-block upward-exposed reads and per-exit defs-before sets as
     * flat per-thread word arrays, so its iterations allocate nothing.
     */
    explicit Liveness(const ir::Procedure &proc);

    /** Registers live on entry to block @p b. */
    const BitVec &liveIn(ir::BlockId b) const { return liveIn_[b]; }

    /** Registers live on exit from block @p b. */
    const BitVec &liveOut(ir::BlockId b) const { return liveOut_[b]; }

    /**
     * The register universe this instance was solved over.  The
     * procedure may have grown fresh registers since (renaming); fresh
     * registers are never live across pre-existing block boundaries,
     * so consumers size their scratch sets with this.
     */
    size_t numRegs() const { return liveIn_.empty() ? 0
                                                    : liveIn_[0].size(); }

  private:
    std::vector<BitVec> liveIn_;
    std::vector<BitVec> liveOut_;
};

} // namespace pathsched::analysis

#endif // PATHSCHED_ANALYSIS_LIVENESS_HPP
