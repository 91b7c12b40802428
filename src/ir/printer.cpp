#include "ir/printer.hpp"

#include "support/strutil.hpp"

namespace pathsched::ir {

namespace {

std::string
regName(RegId r)
{
    return r == kNoReg ? std::string("-") : strfmt("r%u", r);
}

} // namespace

std::string
toString(const Instruction &ins)
{
    switch (ins.op) {
      case Opcode::Mov:
        return strfmt("mov %s, %s", regName(ins.dst).c_str(),
                      regName(ins.src1).c_str());
      case Opcode::Ldi:
        return strfmt("ldi %s, %lld", regName(ins.dst).c_str(),
                      (long long)ins.imm);
      case Opcode::Ld:
      case Opcode::LdSpec:
        return strfmt("%s %s, [%s + %lld]", opcodeName(ins.op),
                      regName(ins.dst).c_str(), regName(ins.src1).c_str(),
                      (long long)ins.imm);
      case Opcode::St:
        return strfmt("st [%s + %lld], %s", regName(ins.src1).c_str(),
                      (long long)ins.imm, regName(ins.src2).c_str());
      case Opcode::Emit:
        return strfmt("emit %s", regName(ins.src1).c_str());
      case Opcode::BrNz:
      case Opcode::BrZ:
        if (ins.target1 == kNoBlock) {
            return strfmt("%s %s, B%u  ; exit", opcodeName(ins.op),
                          regName(ins.src1).c_str(), ins.target0);
        }
        return strfmt("%s %s, B%u, B%u", opcodeName(ins.op),
                      regName(ins.src1).c_str(), ins.target0, ins.target1);
      case Opcode::Jmp:
        return strfmt("jmp B%u", ins.target0);
      case Opcode::Ret:
        return strfmt("ret %s", regName(ins.src1).c_str());
      case Opcode::Call: {
        std::vector<std::string> parts;
        for (RegId a : ins.args)
            parts.push_back(regName(a));
        return strfmt("call %s, proc%u(%s)", regName(ins.dst).c_str(),
                      ins.callee, join(parts, ", ").c_str());
      }
      case Opcode::Nop:
        return "nop";
      case Opcode::LdFrame:
        return strfmt("ld.f %s, [frame + %lld]", regName(ins.dst).c_str(),
                      (long long)ins.imm);
      case Opcode::StFrame:
        return strfmt("st.f [frame + %lld], %s", (long long)ins.imm,
                      regName(ins.src1).c_str());
      default:
        if (ins.useImm) {
            return strfmt("%s %s, %s, %lld", opcodeName(ins.op),
                          regName(ins.dst).c_str(),
                          regName(ins.src1).c_str(), (long long)ins.imm);
        }
        return strfmt("%s %s, %s, %s", opcodeName(ins.op),
                      regName(ins.dst).c_str(), regName(ins.src1).c_str(),
                      regName(ins.src2).c_str());
    }
}

std::string
toString(const Procedure &proc)
{
    std::string out = strfmt("proc %s (#%u, %u params, %u regs)\n",
                             proc.name.c_str(), proc.id, proc.numParams,
                             proc.numRegs);
    for (BlockId b = 0; b < proc.blocks.size(); ++b) {
        const bool is_sb = b < proc.superblocks.size() &&
                           proc.superblocks[b].isSuperblock;
        out += strfmt("  B%u:%s\n", b, is_sb ? "  ; superblock" : "");
        const bool sched = b < proc.schedules.size() &&
                           proc.schedules[b].valid;
        for (size_t i = 0; i < proc.blocks[b].instrs.size(); ++i) {
            if (sched) {
                out += strfmt("    [c%3u] %s\n",
                              proc.schedules[b].cycleOf[i],
                              toString(proc.blocks[b].instrs[i]).c_str());
            } else {
                out += strfmt("    %s\n",
                              toString(proc.blocks[b].instrs[i]).c_str());
            }
        }
    }
    return out;
}

std::string
toString(const Program &prog)
{
    std::string out = strfmt("program: %zu procs, main=%u, mem=%llu words\n",
                             prog.procs.size(), prog.mainProc,
                             (unsigned long long)prog.memWords);
    for (const auto &p : prog.procs)
        out += toString(p);
    return out;
}

} // namespace pathsched::ir
