/**
 * @file
 * Convenience builder for constructing IR programs.
 *
 * The builder keeps a current procedure and insertion block; value
 * operations allocate a fresh destination register and return it, while
 * the *To variants write a caller-chosen register (used for loop-carried
 * variables, since the IR is not SSA).
 */

#ifndef PATHSCHED_IR_BUILDER_HPP
#define PATHSCHED_IR_BUILDER_HPP

#include <string>
#include <vector>

#include "ir/procedure.hpp"

namespace pathsched::ir {

/** Incremental program builder used by workloads, tests and examples. */
class IrBuilder
{
  public:
    explicit IrBuilder(Program &prog) : prog_(prog) {}

    /** Create a procedure and make it current; its entry block is 0. */
    ProcId newProc(const std::string &name, uint32_t num_params);

    /** Create a new block in the current procedure. */
    BlockId newBlock();

    /** Select the procedure whose blocks subsequent calls target. */
    void setProc(ProcId p);

    /** Select the block that subsequent instructions append to. */
    void setBlock(BlockId b) { block_ = b; }

    BlockId currentBlock() const { return block_; }
    Procedure &proc() { return prog_.proc(procId_); }

    /** Register holding parameter @p i of the current procedure. */
    RegId param(uint32_t i) const;

    /** Allocate a fresh register without defining it. */
    RegId freshReg() { return proc().newReg(); }

    /** @name Value-producing operations (fresh destination)
     *  @{
     */
    RegId ldi(int64_t v);
    RegId alu(Opcode op, RegId a, RegId b);
    RegId alui(Opcode op, RegId a, int64_t imm);
    RegId add(RegId a, RegId b) { return alu(Opcode::Add, a, b); }
    RegId addi(RegId a, int64_t v) { return alui(Opcode::Add, a, v); }
    RegId sub(RegId a, RegId b) { return alu(Opcode::Sub, a, b); }
    RegId mul(RegId a, RegId b) { return alu(Opcode::Mul, a, b); }
    RegId muli(RegId a, int64_t v) { return alui(Opcode::Mul, a, v); }
    RegId cmpEq(RegId a, RegId b) { return alu(Opcode::CmpEq, a, b); }
    RegId cmpEqi(RegId a, int64_t v) { return alui(Opcode::CmpEq, a, v); }
    RegId cmpLt(RegId a, RegId b) { return alu(Opcode::CmpLt, a, b); }
    RegId cmpLti(RegId a, int64_t v) { return alui(Opcode::CmpLt, a, v); }
    RegId mov(RegId src);
    RegId ld(RegId base, int64_t off);
    RegId ldSpec(RegId base, int64_t off);
    RegId callValue(ProcId callee, std::vector<RegId> args);
    /** @} */

    /** @name Operations writing an existing register
     *  @{
     */
    void aluTo(Opcode op, RegId dst, RegId a, RegId b);
    void aluiTo(Opcode op, RegId dst, RegId a, int64_t imm);
    void ldiTo(RegId dst, int64_t v);
    void movTo(RegId dst, RegId src);
    void ldTo(RegId dst, RegId base, int64_t off);
    /** @} */

    /** @name Side-effecting and control operations
     *  @{
     */
    void st(RegId base, int64_t off, RegId value);
    void emitValue(RegId value);
    void callVoid(ProcId callee, std::vector<RegId> args);
    void brnz(RegId cond, BlockId taken, BlockId fallthru);
    void brz(RegId cond, BlockId taken, BlockId fallthru);
    void jmp(BlockId target);
    void ret(RegId value = kNoReg);
    /** @} */

  private:
    void append(Instruction ins);

    Program &prog_;
    ProcId procId_ = kNoProc;
    BlockId block_ = kNoBlock;
};

} // namespace pathsched::ir

#endif // PATHSCHED_IR_BUILDER_HPP
