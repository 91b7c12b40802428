#include "ir/instruction.hpp"

#include "support/logging.hpp"

namespace pathsched::ir {

void
Instruction::renameSources(RegId from, RegId to)
{
    auto fix = [&](RegId &r) {
        if (r == from)
            r = to;
    };
    switch (op) {
      case Opcode::Ldi:
      case Opcode::Jmp:
      case Opcode::Nop:
      case Opcode::LdFrame:
        break;
      case Opcode::Mov:
      case Opcode::StFrame:
      case Opcode::Emit:
      case Opcode::BrNz:
      case Opcode::BrZ:
      case Opcode::Ret:
      case Opcode::Ld:
      case Opcode::LdSpec:
        fix(src1);
        break;
      case Opcode::St:
        fix(src1);
        fix(src2);
        break;
      case Opcode::Call:
        for (RegId &a : args)
            fix(a);
        break;
      default: // ALU ops
        fix(src1);
        if (!useImm)
            fix(src2);
        break;
    }
}

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Add: return "add";
      case Opcode::Sub: return "sub";
      case Opcode::Mul: return "mul";
      case Opcode::Div: return "div";
      case Opcode::Rem: return "rem";
      case Opcode::And: return "and";
      case Opcode::Or: return "or";
      case Opcode::Xor: return "xor";
      case Opcode::Shl: return "shl";
      case Opcode::Shr: return "shr";
      case Opcode::CmpEq: return "cmpeq";
      case Opcode::CmpNe: return "cmpne";
      case Opcode::CmpLt: return "cmplt";
      case Opcode::CmpLe: return "cmple";
      case Opcode::CmpGt: return "cmpgt";
      case Opcode::CmpGe: return "cmpge";
      case Opcode::Mov: return "mov";
      case Opcode::Ldi: return "ldi";
      case Opcode::Ld: return "ld";
      case Opcode::LdSpec: return "ld.s";
      case Opcode::St: return "st";
      case Opcode::Emit: return "emit";
      case Opcode::BrNz: return "brnz";
      case Opcode::BrZ: return "brz";
      case Opcode::Jmp: return "jmp";
      case Opcode::Ret: return "ret";
      case Opcode::Call: return "call";
      case Opcode::Nop: return "nop";
      case Opcode::LdFrame: return "ld.f";
      case Opcode::StFrame: return "st.f";
    }
    return "<bad>";
}

Opcode
invertBranch(Opcode op)
{
    if (op == Opcode::BrNz)
        return Opcode::BrZ;
    if (op == Opcode::BrZ)
        return Opcode::BrNz;
    panic("invertBranch on non-branch opcode %s", opcodeName(op));
}

Instruction
makeAlu(Opcode op, RegId dst, RegId src1, RegId src2)
{
    Instruction i;
    i.op = op;
    i.dst = dst;
    i.src1 = src1;
    i.src2 = src2;
    return i;
}

Instruction
makeAluImm(Opcode op, RegId dst, RegId src1, int64_t imm)
{
    Instruction i;
    i.op = op;
    i.useImm = true;
    i.dst = dst;
    i.src1 = src1;
    i.imm = imm;
    return i;
}

Instruction
makeMov(RegId dst, RegId src)
{
    Instruction i;
    i.op = Opcode::Mov;
    i.dst = dst;
    i.src1 = src;
    return i;
}

Instruction
makeLdi(RegId dst, int64_t imm)
{
    Instruction i;
    i.op = Opcode::Ldi;
    i.dst = dst;
    i.imm = imm;
    return i;
}

Instruction
makeLd(RegId dst, RegId base, int64_t offset)
{
    Instruction i;
    i.op = Opcode::Ld;
    i.dst = dst;
    i.src1 = base;
    i.imm = offset;
    return i;
}

Instruction
makeLdSpec(RegId dst, RegId base, int64_t offset)
{
    Instruction i;
    i.op = Opcode::LdSpec;
    i.dst = dst;
    i.src1 = base;
    i.imm = offset;
    return i;
}

Instruction
makeSt(RegId base, int64_t offset, RegId value)
{
    Instruction i;
    i.op = Opcode::St;
    i.src1 = base;
    i.src2 = value;
    i.imm = offset;
    return i;
}

Instruction
makeEmit(RegId value)
{
    Instruction i;
    i.op = Opcode::Emit;
    i.src1 = value;
    return i;
}

Instruction
makeBr(Opcode op, RegId cond, BlockId taken, BlockId fallthru)
{
    ps_assert(op == Opcode::BrNz || op == Opcode::BrZ);
    Instruction i;
    i.op = op;
    i.src1 = cond;
    i.target0 = taken;
    i.target1 = fallthru;
    return i;
}

Instruction
makeJmp(BlockId target)
{
    Instruction i;
    i.op = Opcode::Jmp;
    i.target0 = target;
    return i;
}

Instruction
makeRet(RegId value)
{
    Instruction i;
    i.op = Opcode::Ret;
    i.src1 = value;
    return i;
}

Instruction
makeCall(RegId dst, ProcId callee, std::vector<RegId> args)
{
    Instruction i;
    i.op = Opcode::Call;
    i.dst = dst;
    i.callee = callee;
    i.args = std::move(args);
    return i;
}

Instruction
makeLdFrame(RegId dst, uint32_t slot)
{
    Instruction i;
    i.op = Opcode::LdFrame;
    i.dst = dst;
    i.imm = slot;
    return i;
}

Instruction
makeStFrame(uint32_t slot, RegId value)
{
    Instruction i;
    i.op = Opcode::StFrame;
    i.src1 = value;
    i.imm = slot;
    return i;
}

} // namespace pathsched::ir
