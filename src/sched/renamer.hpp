/**
 * @file
 * Register renaming for compaction (§2.3 of the paper).
 *
 * Three renaming mechanisms from the paper's compact pass:
 *
 *  - *anti/output renaming*: every definition of a register other than
 *    the block's last is rewritten to a fresh register (with in-block
 *    uses following suit), removing WAR/WAW serialization — this is
 *    what lets unrolled loop iterations overlap;
 *  - *live off-trace renaming*: when a renamed (intermediate) value is
 *    live at a side exit, a compensation stub block is placed on the
 *    exit edge that copies the fresh register back to the architectural
 *    one.  After the stub exists, the architectural register is no
 *    longer live at the exit, so later definitions of it may be hoisted
 *    above the exit — "this allows more instructions to be above
 *    superblock exits";
 *  - *move renaming* is copy propagation and lives in local_opt.
 */

#ifndef PATHSCHED_SCHED_RENAMER_HPP
#define PATHSCHED_SCHED_RENAMER_HPP

#include <cstdint>

#include "analysis/liveness.hpp"
#include "ir/procedure.hpp"

namespace pathsched::sched {

/** Counters reported by renameBlock. */
struct RenameStats
{
    /** Blocks that define some register twice; every other block is
     *  left as it is, without collecting its exits. */
    uint64_t blocksRenamed = 0;
    uint64_t defsRenamed = 0;
    uint64_t stubsCreated = 0;
    uint64_t copiesInserted = 0;

    RenameStats &
    operator+=(const RenameStats &o)
    {
        blocksRenamed += o.blocksRenamed;
        defsRenamed += o.defsRenamed;
        stubsCreated += o.stubsCreated;
        copiesInserted += o.copiesInserted;
        return *this;
    }
};

/**
 * Rename block @p b of @p proc in place, appending compensation stub
 * blocks to the procedure as needed.  @p live must describe the
 * procedure *before* any block of it was renamed (renaming introduces
 * only fresh registers and retargets exits onto new stubs, so the
 * liveness of pre-existing blocks stays valid for the whole sweep).
 * Liveness must be recomputed before scheduling.
 */
RenameStats renameBlock(ir::Procedure &proc, ir::BlockId b,
                        const analysis::Liveness &live);

} // namespace pathsched::sched

#endif // PATHSCHED_SCHED_RENAMER_HPP
