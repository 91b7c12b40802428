/**
 * @file
 * Instruction definition for the pathsched IR.
 *
 * The IR is a small RISC-like, load/store, register-based representation
 * patterned after the Alpha-derived VLIW model of Young & Smith (MICRO-31
 * 1998).  Registers are virtual (per-procedure, unbounded) until register
 * allocation maps them onto the 128-register machine file.
 *
 * Control flow comes in two flavours:
 *  - "strict" blocks end in exactly one terminator (BrNz/BrZ with both
 *    targets, Jmp, or Ret) and contain no other branches;
 *  - "superblock" blocks, produced by trace formation, may additionally
 *    contain mid-block *exit* branches whose fallthrough target is
 *    kNoBlock, meaning execution continues with the next instruction in
 *    the same block.  This is how a compacted superblock with side exits
 *    is represented.
 */

#ifndef PATHSCHED_IR_INSTRUCTION_HPP
#define PATHSCHED_IR_INSTRUCTION_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "ir/types.hpp"

namespace pathsched::ir {

/**
 * Operation codes.  ALU operations take (src1, src2) or (src1, imm) when
 * Instruction::useImm is set.  Division and remainder by zero produce 0;
 * shifts use only the low 6 bits of the shift amount.  These total
 * definitions keep speculative execution of any ALU op side-effect free.
 */
enum class Opcode : uint8_t {
    Add, Sub, Mul, Div, Rem,
    And, Or, Xor, Shl, Shr,
    CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,
    Mov,    ///< dst = src1
    Ldi,    ///< dst = imm
    Ld,     ///< dst = mem[src1 + imm]; faults on out-of-range address
    LdSpec, ///< non-excepting load: out-of-range address yields 0
    St,     ///< mem[src1 + imm] = src2
    Emit,   ///< append src1 to the program's observable output stream
    BrNz,   ///< if src1 != 0 goto target0 else target1 / fallthrough
    BrZ,    ///< if src1 == 0 goto target0 else target1 / fallthrough
    Jmp,    ///< goto target0
    Ret,    ///< return src1 (or 0 when src1 == kNoReg)
    Call,   ///< dst = callee(args...); not a terminator
    Nop,
};

/** Number of distinct opcodes (for tables indexed by opcode). */
inline constexpr size_t kNumOpcodes = size_t(Opcode::Nop) + 1;

/** A single IR instruction.  Fields are public: the IR is pass-owned data. */
struct Instruction
{
    Opcode op = Opcode::Nop;
    /** When set, ALU src2 is replaced by the immediate field. */
    bool useImm = false;
    RegId dst = kNoReg;
    RegId src1 = kNoReg;
    RegId src2 = kNoReg;
    /** Immediate operand; also the address offset of Ld/LdSpec/St. */
    int64_t imm = 0;
    /** Taken target of BrNz/BrZ, or the target of Jmp. */
    BlockId target0 = kNoBlock;
    /**
     * Fallthrough target of a terminator branch.  kNoBlock on a branch
     * that is not the last instruction of its block marks a superblock
     * side exit (execution falls through within the block).
     */
    BlockId target1 = kNoBlock;
    /** Callee of a Call. */
    ProcId callee = kNoProc;
    /** Argument registers of a Call. */
    std::vector<RegId> args;

    /** True for conditional branches (BrNz/BrZ). */
    bool isBranch() const { return op == Opcode::BrNz || op == Opcode::BrZ; }
    /** True for instructions that may redirect control flow. */
    bool isControlFlow() const
    {
        return isBranch() || op == Opcode::Jmp || op == Opcode::Ret;
    }
    /**
     * True for instructions that occupy the machine's single control slot
     * per cycle (branches, jumps, returns, and calls).
     */
    bool isControlSlot() const { return isControlFlow() || op == Opcode::Call; }
    bool isLoad() const { return op == Opcode::Ld || op == Opcode::LdSpec; }
    bool isStore() const { return op == Opcode::St; }
    /** True if the instruction reads or writes data memory or output. */
    bool touchesMemory() const
    {
        return isLoad() || isStore() || op == Opcode::Emit ||
               op == Opcode::Call;
    }
    /** True if the instruction writes a register. */
    bool hasDst() const { return dst != kNoReg; }
    /**
     * True if the instruction may be executed speculatively (hoisted
     * above a branch): it must be free of side effects and non-excepting.
     * Ld qualifies only after conversion to LdSpec.
     */
    bool isSpeculable() const
    {
        switch (op) {
          case Opcode::St:
          case Opcode::Emit:
          case Opcode::Call:
          case Opcode::Ld:
          case Opcode::BrNz:
          case Opcode::BrZ:
          case Opcode::Jmp:
          case Opcode::Ret:
            return false;
          default:
            return true;
        }
    }

    /**
     * Call @p fn(r) for every register r this instruction reads, in
     * operand order, without building a list.  Inline: every pass over
     * the IR calls it per instruction.
     */
    template <typename Fn>
    void
    forEachSource(Fn &&fn) const
    {
        switch (op) {
          case Opcode::Ldi:
          case Opcode::Jmp:
          case Opcode::Nop:
            break;
          case Opcode::Mov:
          case Opcode::Emit:
          case Opcode::BrNz:
          case Opcode::BrZ:
          case Opcode::Ret:
            if (src1 != kNoReg)
                fn(src1);
            break;
          case Opcode::Ld:
          case Opcode::LdSpec:
            fn(src1);
            break;
          case Opcode::St:
            fn(src1);
            fn(src2);
            break;
          case Opcode::Call:
            for (RegId r : args)
                fn(r);
            break;
          default: // ALU ops
            fn(src1);
            if (!useImm)
                fn(src2);
            break;
        }
    }

    /**
     * Collect the registers this instruction reads into @p out (cleared
     * first), in forEachSource order.  A filled copy rather than a
     * view, so callers may rename sources while they walk the list from
     * before the rename.
     */
    void
    sources(std::vector<RegId> &out) const
    {
        out.clear();
        forEachSource([&out](RegId r) { out.push_back(r); });
    }

    /** Replace every read of register @p from with @p to. */
    void renameSources(RegId from, RegId to);
};

/** Mnemonic for an opcode, e.g. "add". */
const char *opcodeName(Opcode op);

/** Flip a conditional branch's sense (BrNz <-> BrZ).  Panics otherwise. */
Opcode invertBranch(Opcode op);

/** @name Instruction factory helpers
 *  Free functions that build well-formed instructions.
 *  @{
 */
Instruction makeAlu(Opcode op, RegId dst, RegId src1, RegId src2);
Instruction makeAluImm(Opcode op, RegId dst, RegId src1, int64_t imm);
Instruction makeMov(RegId dst, RegId src);
Instruction makeLdi(RegId dst, int64_t imm);
Instruction makeLd(RegId dst, RegId base, int64_t offset);
Instruction makeLdSpec(RegId dst, RegId base, int64_t offset);
Instruction makeSt(RegId base, int64_t offset, RegId value);
Instruction makeEmit(RegId value);
Instruction makeBr(Opcode op, RegId cond, BlockId taken, BlockId fallthru);
Instruction makeJmp(BlockId target);
Instruction makeRet(RegId value);
Instruction makeCall(RegId dst, ProcId callee, std::vector<RegId> args);
/** @} */

} // namespace pathsched::ir

#endif // PATHSCHED_IR_INSTRUCTION_HPP
