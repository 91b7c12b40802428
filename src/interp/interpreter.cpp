#include "interp/interpreter.hpp"

#include "support/logging.hpp"

namespace pathsched::interp {

using ir::BlockId;
using ir::Instruction;
using ir::kNoBlock;
using ir::kNoReg;
using ir::Opcode;
using ir::ProcId;
using ir::RegId;

namespace {

/** One procedure activation. */
struct Frame
{
    ProcId proc = ir::kNoProc;
    BlockId block = 0;
    /** Next instruction index within the block (for call resume). */
    size_t instrIdx = 0;
    /** Register the caller's Call writes on return; kNoReg for void. */
    RegId retDst = kNoReg;
    std::vector<int64_t> regs;
};

int64_t
aluOp(Opcode op, int64_t a, int64_t b)
{
    const uint64_t ua = uint64_t(a), ub = uint64_t(b);
    switch (op) {
      case Opcode::Add: return int64_t(ua + ub);
      case Opcode::Sub: return int64_t(ua - ub);
      case Opcode::Mul: return int64_t(ua * ub);
      case Opcode::Div:
        if (b == 0)
            return 0;
        if (a == INT64_MIN && b == -1)
            return a;
        return a / b;
      case Opcode::Rem:
        if (b == 0)
            return 0;
        if (a == INT64_MIN && b == -1)
            return 0;
        return a % b;
      case Opcode::And: return a & b;
      case Opcode::Or: return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Shl: return int64_t(ua << (ub & 63));
      case Opcode::Shr: return a >> (ub & 63);
      case Opcode::CmpEq: return a == b;
      case Opcode::CmpNe: return a != b;
      case Opcode::CmpLt: return a < b;
      case Opcode::CmpLe: return a <= b;
      case Opcode::CmpGt: return a > b;
      case Opcode::CmpGe: return a >= b;
      default:
        panic("aluOp: %s is not an ALU opcode", opcodeName(op));
    }
}

} // namespace

RunResult
Interpreter::run(const ProgramInput &input)
{
    RunResult res;
    ps_assert(prog_.mainProc != ir::kNoProc);
    ps_assert_msg(opts_.cache == nullptr || opts_.codeLayout != nullptr,
                  "an attached I-cache requires a code layout");

    std::vector<int64_t> mem(prog_.memWords, 0);
    ps_assert_msg(input.memImage.size() <= mem.size(),
                  "memory image (%zu words) exceeds program memory (%zu)",
                  input.memImage.size(), mem.size());
    std::copy(input.memImage.begin(), input.memImage.end(), mem.begin());

    // Frame stack with storage reuse: `depth` frames are live.
    std::vector<Frame> stack;
    size_t depth = 0;

    auto pushFrame = [&](ProcId proc, RegId ret_dst) -> Frame & {
        if (depth == stack.size())
            stack.emplace_back();
        Frame &f = stack[depth++];
        f.proc = proc;
        f.block = 0;
        f.instrIdx = 0;
        f.retDst = ret_dst;
        f.regs.assign(prog_.procs[proc].numRegs, 0);
        return f;
    };

    {
        Frame &f = pushFrame(prog_.mainProc, kNoReg);
        const auto &mainp = prog_.procs[prog_.mainProc];
        ps_assert_msg(input.mainArgs.size() <= mainp.numParams,
                      "too many main() arguments");
        for (size_t i = 0; i < input.mainArgs.size(); ++i)
            f.regs[i] = input.mainArgs[i];
    }
    for (auto *l : listeners_)
        l->onProcEnter(prog_.mainProc);

    uint64_t steps = 0;
    // Effective step ceiling: the typed budget when it undercuts the
    // runaway guard, else the guard itself (one compare per step).
    const uint64_t step_cap =
        opts_.budgetSteps != 0 && opts_.budgetSteps < opts_.maxSteps
            ? opts_.budgetSteps
            : opts_.maxSteps;
    const bool has_deadline = opts_.deadline.active();

    // Charge the cycle cost of leaving `block` at instruction `exit_idx`.
    auto chargeBlock = [&](const ir::Procedure &p, BlockId b,
                           size_t exit_idx) {
        const ir::BlockSchedule &sched = p.schedules[b];
        if (sched.valid)
            res.cycles += uint64_t(sched.cycleOf[exit_idx]) + 1;
        else
            res.cycles += exit_idx + 1;
    };

    // Record Fig. 7 statistics when leaving a superblock.
    auto noteSbExit = [&](const ir::Procedure &p, BlockId b,
                          size_t exit_idx, bool completed) {
        const ir::SuperblockInfo &sb = p.superblocks[b];
        if (!sb.isSuperblock)
            return;
        ++res.sbEntries;
        res.sbBlocksExecuted += uint64_t(sb.srcOrdinalOf[exit_idx]) + 1;
        res.sbBlocksInSb += sb.numSrcBlocks;
        if (completed)
            ++res.sbCompletions;
    };

    while (depth > 0) {
        Frame &f = stack[depth - 1];
        const ir::Procedure &p = prog_.procs[f.proc];
        const ir::BasicBlock &bb = p.blocks[f.block];

        bool frame_switch = false;
        while (!frame_switch) {
            ps_assert_msg(f.instrIdx < bb.instrs.size(),
                          "fell off the end of proc %s block %u",
                          p.name.c_str(), f.block);
            const size_t i = f.instrIdx;
            const Instruction &ins = bb.instrs[i];

            if (++steps > step_cap) {
                // Typed, recoverable stop: unwind every frame and let
                // the caller decide how severe a runaway run is.
                if (step_cap < opts_.maxSteps)
                    res.budgetStop = true;
                else
                    res.stepLimit = true;
                res.stopProc = f.proc;
                depth = 0;
                frame_switch = true;
                break;
            }
            if (has_deadline &&
                (steps & (kDeadlineCheckStride - 1)) == 0 &&
                opts_.deadline.expired()) {
                res.deadlineStop = true;
                res.stopProc = f.proc;
                depth = 0;
                frame_switch = true;
                break;
            }
            ++res.dynInstrs;

            if (opts_.cache) {
                const uint64_t addr =
                    opts_.codeLayout->instrAddr(f.proc, f.block, i);
                const uint32_t penalty = opts_.cache->access(addr);
                res.cycles += penalty;
                res.stallCycles += penalty;
            }

            switch (ins.op) {
              case Opcode::Mov:
                f.regs[ins.dst] = f.regs[ins.src1];
                break;
              case Opcode::Ldi:
                f.regs[ins.dst] = ins.imm;
                break;
              case Opcode::Ld: {
                ++res.dynMemOps;
                const int64_t addr = f.regs[ins.src1] + ins.imm;
                if (addr < 0 || uint64_t(addr) >= mem.size())
                    fatal("proc %s block %u: load from invalid address "
                          "%lld",
                          p.name.c_str(), f.block, (long long)addr);
                f.regs[ins.dst] = mem[size_t(addr)];
                break;
              }
              case Opcode::LdSpec: {
                // Non-excepting: a bad speculative address yields 0, the
                // software analogue of the suppressed trap in §3.2.
                ++res.dynMemOps;
                const int64_t addr = f.regs[ins.src1] + ins.imm;
                f.regs[ins.dst] =
                    (addr < 0 || uint64_t(addr) >= mem.size())
                        ? 0
                        : mem[size_t(addr)];
                break;
              }
              case Opcode::St: {
                ++res.dynMemOps;
                const int64_t addr = f.regs[ins.src1] + ins.imm;
                if (addr < 0 || uint64_t(addr) >= mem.size())
                    fatal("proc %s block %u: store to invalid address "
                          "%lld",
                          p.name.c_str(), f.block, (long long)addr);
                mem[size_t(addr)] = f.regs[ins.src2];
                break;
              }
              case Opcode::Emit:
                res.output.push_back(f.regs[ins.src1]);
                break;
              case Opcode::Nop:
                break;
              case Opcode::Call: {
                ++res.dynCalls;
                if (opts_.collectCallCounts)
                    ++res.callCounts[{f.proc, ins.callee}];
                f.instrIdx = i + 1;
                Frame &callee = pushFrame(ins.callee, ins.dst);
                const auto &cp = prog_.procs[ins.callee];
                ps_assert(ins.args.size() == cp.numParams);
                // `f` may dangle after pushFrame reallocation: reload.
                Frame &caller = stack[depth - 2];
                for (size_t a = 0; a < ins.args.size(); ++a)
                    callee.regs[a] = caller.regs[ins.args[a]];
                for (auto *l : listeners_)
                    l->onProcEnter(ins.callee);
                frame_switch = true;
                break;
              }
              case Opcode::BrNz:
              case Opcode::BrZ: {
                ++res.dynBranches;
                const bool taken =
                    (f.regs[ins.src1] != 0) == (ins.op == Opcode::BrNz);
                const bool is_term = i + 1 == bb.instrs.size();
                BlockId next = kNoBlock;
                if (taken)
                    next = ins.target0;
                else if (is_term)
                    next = ins.target1;
                if (next != kNoBlock) {
                    chargeBlock(p, f.block, i);
                    noteSbExit(p, f.block, i, is_term);
                    ++res.dynEdges;
                    for (auto *l : listeners_)
                        l->onEdge(f.proc, f.block, next);
                    f.block = next;
                    f.instrIdx = 0;
                    frame_switch = true;
                }
                break;
              }
              case Opcode::Jmp: {
                ++res.dynJumps;
                ++res.dynEdges;
                chargeBlock(p, f.block, i);
                noteSbExit(p, f.block, i, true);
                for (auto *l : listeners_)
                    l->onEdge(f.proc, f.block, ins.target0);
                f.block = ins.target0;
                f.instrIdx = 0;
                frame_switch = true;
                break;
              }
              case Opcode::Ret: {
                ++res.dynRets;
                chargeBlock(p, f.block, i);
                noteSbExit(p, f.block, i, true);
                const int64_t value =
                    ins.src1 == kNoReg ? 0 : f.regs[ins.src1];
                const RegId ret_dst = f.retDst;
                for (auto *l : listeners_)
                    l->onProcExit(f.proc);
                --depth;
                if (depth == 0) {
                    res.returnValue = value;
                } else if (ret_dst != kNoReg) {
                    stack[depth - 1].regs[ret_dst] = value;
                }
                frame_switch = true;
                break;
              }
              default: // ALU
                f.regs[ins.dst] = aluOp(
                    ins.op, f.regs[ins.src1],
                    ins.useImm ? ins.imm : f.regs[ins.src2]);
                break;
            }

            if (!frame_switch)
                f.instrIdx = i + 1;
        }
    }

    if (opts_.cache) {
        res.icacheAccesses = opts_.cache->accesses();
        res.icacheMisses = opts_.cache->misses();
    }
    return res;
}

} // namespace pathsched::interp
