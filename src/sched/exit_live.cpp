#include "sched/exit_live.hpp"

namespace pathsched::sched {

void
collectExits(const ir::Procedure &proc, ir::BlockId b,
             const analysis::Liveness &live, std::vector<ExitInfo> &out)
{
    const ir::BasicBlock &bb = proc.blocks[b];
    out.clear();
    for (size_t i = 0; i < bb.instrs.size(); ++i) {
        const ir::Instruction &ins = bb.instrs[i];
        if (!ins.isControlFlow())
            continue;
        const bool last = i + 1 == bb.instrs.size();
        ExitInfo e;
        e.instrIdx = uint32_t(i);
        e.isTerminator = last || !ins.isBranch();
        if (ins.op != ir::Opcode::Ret)
            e.live0 = &live.liveIn(ins.target0);
        if (last && ins.isBranch() && ins.target1 != ir::kNoBlock)
            e.live1 = &live.liveIn(ins.target1);
        out.push_back(e);
    }
}

} // namespace pathsched::sched
