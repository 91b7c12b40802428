/**
 * @file
 * Basic blocks, procedures and programs for the pathsched IR.
 */

#ifndef PATHSCHED_IR_PROCEDURE_HPP
#define PATHSCHED_IR_PROCEDURE_HPP

#include <string>
#include <vector>

#include "ir/instruction.hpp"
#include "ir/types.hpp"

namespace pathsched::ir {

/**
 * VLIW schedule of one block: a cycle number per instruction.
 * Instructions sharing a cycle issue together.  An invalid (default)
 * schedule means the block has not been compacted; the interpreter then
 * charges one cycle per instruction.
 */
struct BlockSchedule
{
    bool valid = false;
    /** Cycle of each instruction, aligned with BasicBlock::instrs. */
    std::vector<uint32_t> cycleOf;
    /** Total cycles in the block when executed to completion. */
    uint32_t numCycles = 0;
};

/**
 * Metadata describing a block that was formed as a superblock.
 * Records which original trace position each instruction came from so
 * that the simulator can report "basic blocks executed per superblock
 * entry" (Fig. 7 of the paper) after arbitrary code motion.
 */
struct SuperblockInfo
{
    bool isSuperblock = false;
    /** Number of constituent (trace) blocks merged into this block. */
    uint32_t numSrcBlocks = 0;
    /** Trace ordinal (0-based) of each instruction's source block. */
    std::vector<uint32_t> srcOrdinalOf;
    /** True if the block's final terminator targets the block itself. */
    bool isLoop = false;
};

/** A basic block: a straight-line instruction list. */
struct BasicBlock
{
    std::vector<Instruction> instrs;

    bool empty() const { return instrs.empty(); }
    const Instruction &terminator() const { return instrs.back(); }
    Instruction &terminator() { return instrs.back(); }
};

/**
 * A procedure: an entry block (always block 0), a block list, and a
 * virtual register space.  Parameter i arrives in register i.
 */
struct Procedure
{
    std::string name;
    ProcId id = kNoProc;
    uint32_t numParams = 0;
    /** One past the largest allocated virtual register. */
    uint32_t numRegs = 0;
    /** Words of each activation's spill frame, which LdFrame/StFrame
     *  address; register allocation sets it when it spills. */
    uint32_t frameSlots = 0;
    std::vector<BasicBlock> blocks;
    /** Per-block compaction schedules (empty until the compact pass). */
    std::vector<BlockSchedule> schedules;
    /** Per-block superblock metadata (empty until the form pass). */
    std::vector<SuperblockInfo> superblocks;

    /** Allocate a fresh virtual register. */
    RegId newReg() { return numRegs++; }

    /** Append a new empty block and return its id. */
    BlockId newBlock();

    /** Grow the schedules/superblocks side tables to match blocks. */
    void syncSideTables();

    /** Total instruction count over all blocks. */
    size_t instrCount() const;
};

/** A whole program: procedures plus the data memory size it expects. */
struct Program
{
    std::vector<Procedure> procs;
    ProcId mainProc = kNoProc;
    /** Number of 64-bit data memory words the program addresses. */
    uint64_t memWords = 0;

    const Procedure &proc(ProcId id) const { return procs[id]; }
    Procedure &proc(ProcId id) { return procs[id]; }

    /** Find a procedure by name; panics if absent. */
    ProcId findProc(const std::string &name) const;

    /** Total instruction count over all procedures. */
    size_t instrCount() const;
};

/**
 * Collect the CFG successor blocks of @p bb in deterministic order:
 * mid-block exit targets first (in instruction order), then the
 * terminator's targets.  Duplicates are retained only once.
 */
void successorsOf(const BasicBlock &bb, std::vector<BlockId> &out);

/** One control-flow exit of a block. */
struct BlockExit
{
    /** Index of the exiting instruction within the block. */
    uint32_t instrIdx;
    /** Destination block, kNoBlock for a Ret. */
    BlockId target;
    /** True for the terminator's fallthrough/jump (trace continuation). */
    bool isFallthrough;
};

/** Enumerate every exit (mid-block and terminator) of @p bb. */
void exitsOf(const BasicBlock &bb, std::vector<BlockExit> &out);

} // namespace pathsched::ir

#endif // PATHSCHED_IR_PROCEDURE_HPP
