#include "ir/procedure.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace pathsched::ir {

BlockId
Procedure::newBlock()
{
    blocks.emplace_back();
    syncSideTables();
    return BlockId(blocks.size() - 1);
}

void
Procedure::syncSideTables()
{
    if (schedules.size() < blocks.size())
        schedules.resize(blocks.size());
    if (superblocks.size() < blocks.size())
        superblocks.resize(blocks.size());
}

size_t
Procedure::instrCount() const
{
    size_t n = 0;
    for (const auto &bb : blocks)
        n += bb.instrs.size();
    return n;
}

ProcId
Program::findProc(const std::string &name) const
{
    for (const auto &p : procs) {
        if (p.name == name)
            return p.id;
    }
    panic("no procedure named '%s'", name.c_str());
}

size_t
Program::instrCount() const
{
    size_t n = 0;
    for (const auto &p : procs)
        n += p.instrCount();
    return n;
}

void
successorsOf(const BasicBlock &bb, std::vector<BlockId> &out)
{
    out.clear();
    auto push = [&](BlockId b) {
        if (b == kNoBlock)
            return;
        if (std::find(out.begin(), out.end(), b) == out.end())
            out.push_back(b);
    };
    for (size_t i = 0; i + 1 < bb.instrs.size(); ++i) {
        const Instruction &ins = bb.instrs[i];
        if (ins.isBranch())
            push(ins.target0); // mid-block exit; fallthrough is in-block
    }
    if (!bb.instrs.empty()) {
        const Instruction &t = bb.terminator();
        if (t.isBranch()) {
            push(t.target0);
            push(t.target1);
        } else if (t.op == Opcode::Jmp) {
            push(t.target0);
        }
    }
}

void
exitsOf(const BasicBlock &bb, std::vector<BlockExit> &out)
{
    out.clear();
    for (size_t i = 0; i < bb.instrs.size(); ++i) {
        const Instruction &ins = bb.instrs[i];
        const bool last = i + 1 == bb.instrs.size();
        if (ins.isBranch()) {
            out.push_back({uint32_t(i), ins.target0, false});
            if (last && ins.target1 != kNoBlock)
                out.push_back({uint32_t(i), ins.target1, true});
        } else if (ins.op == Opcode::Jmp) {
            out.push_back({uint32_t(i), ins.target0, true});
        } else if (ins.op == Opcode::Ret) {
            out.push_back({uint32_t(i), kNoBlock, true});
        }
    }
}

} // namespace pathsched::ir
