#include "ir/verifier.hpp"

#include <algorithm>

#include "support/logging.hpp"
#include "support/strutil.hpp"

namespace pathsched::ir {

namespace {

/** Collects violations with procedure/block context prefixes. */
class Checker
{
  public:
    Checker(const Program &prog, VerifyMode mode,
            std::vector<std::string> &errors)
        : prog_(prog), mode_(mode), errors_(errors)
    {}

    void
    run()
    {
        if (prog_.mainProc == kNoProc ||
            prog_.mainProc >= prog_.procs.size()) {
            errors_.push_back("program has no valid main procedure");
        }
        for (const auto &p : prog_.procs)
            checkProc(p);
    }

    void runProc(ProcId proc) { checkProc(prog_.procs[proc]); }

  private:
    void
    err(const Procedure &p, BlockId b, const std::string &msg)
    {
        errors_.push_back(
            strfmt("proc %s block %u: %s", p.name.c_str(), b, msg.c_str()));
    }

    void
    checkProc(const Procedure &p)
    {
        if (p.blocks.empty()) {
            errors_.push_back(strfmt("proc %s has no blocks",
                                     p.name.c_str()));
            return;
        }
        if (p.numParams > p.numRegs)
            errors_.push_back(strfmt("proc %s: numParams > numRegs",
                                     p.name.c_str()));
        for (BlockId b = 0; b < p.blocks.size(); ++b)
            checkBlock(p, b);
    }

    void
    checkReg(const Procedure &p, BlockId b, RegId r, const char *what)
    {
        if (r != kNoReg && r >= p.numRegs)
            err(p, b, strfmt("%s register r%u out of range (numRegs=%u)",
                             what, r, p.numRegs));
    }

    void
    checkTarget(const Procedure &p, BlockId b, BlockId t, const char *what)
    {
        if (t >= p.blocks.size())
            err(p, b, strfmt("%s target %u out of range", what, t));
    }

    void
    checkBlock(const Procedure &p, BlockId b)
    {
        const BasicBlock &bb = p.blocks[b];
        if (bb.empty()) {
            err(p, b, "block is empty");
            return;
        }
        for (size_t i = 0; i < bb.instrs.size(); ++i) {
            const Instruction &ins = bb.instrs[i];
            const bool last = i + 1 == bb.instrs.size();
            checkInstr(p, b, ins, last);
        }
        const Instruction &t = bb.terminator();
        const bool proper_term =
            (t.isBranch() && t.target1 != kNoBlock) ||
            t.op == Opcode::Jmp || t.op == Opcode::Ret;
        if (!proper_term)
            err(p, b, strfmt("last instruction (%s) is not a terminator",
                             opcodeName(t.op)));
    }

    void
    checkInstr(const Procedure &p, BlockId b, const Instruction &ins,
               bool last)
    {
        // Per-thread scratch: verification runs on every procedure of
        // every chain, so a fresh vector per instruction would be heap
        // churn on the hot path.
        thread_local std::vector<RegId> srcs;
        ins.sources(srcs);
        for (RegId r : srcs)
            checkReg(p, b, r, "source");
        checkReg(p, b, ins.dst, "dest");
        if (ins.isFrameOp() &&
            (ins.imm < 0 || ins.imm >= int64_t(p.frameSlots)))
            err(p, b, strfmt("frame slot %lld out of range (frameSlots=%u)",
                             (long long)ins.imm, p.frameSlots));

        if (ins.isBranch()) {
            checkTarget(p, b, ins.target0, "taken");
            if (last) {
                if (ins.target1 == kNoBlock) {
                    err(p, b, "terminator branch lacks fallthrough target");
                } else {
                    checkTarget(p, b, ins.target1, "fallthrough");
                }
            } else {
                if (mode_ == VerifyMode::Strict) {
                    err(p, b, "mid-block branch in strict mode");
                } else if (ins.target1 != kNoBlock) {
                    err(p, b, "mid-block exit branch has a fallthrough "
                              "target");
                }
            }
            if (ins.hasDst())
                err(p, b, "branch writes a register");
        } else if (ins.op == Opcode::Jmp || ins.op == Opcode::Ret) {
            if (!last)
                err(p, b, strfmt("mid-block %s", opcodeName(ins.op)));
            if (ins.op == Opcode::Jmp)
                checkTarget(p, b, ins.target0, "jump");
        } else if (ins.op == Opcode::Call) {
            if (ins.callee >= prog_.procs.size()) {
                err(p, b, "call to invalid procedure");
            } else if (ins.args.size() !=
                       prog_.procs[ins.callee].numParams) {
                err(p, b,
                    strfmt("call to %s passes %zu args, expects %u",
                           prog_.procs[ins.callee].name.c_str(),
                           ins.args.size(),
                           prog_.procs[ins.callee].numParams));
            }
        } else if (ins.op == Opcode::St || ins.op == Opcode::StFrame ||
                   ins.op == Opcode::Emit) {
            if (ins.hasDst())
                err(p, b, strfmt("%s writes a register",
                                 opcodeName(ins.op)));
        } else if (ins.op != Opcode::Nop) {
            if (!ins.hasDst())
                err(p, b, strfmt("%s lacks a destination",
                                 opcodeName(ins.op)));
        }
    }

    const Program &prog_;
    VerifyMode mode_;
    std::vector<std::string> &errors_;
};

} // namespace

bool
verify(const Program &prog, VerifyMode mode,
       std::vector<std::string> &errors)
{
    errors.clear();
    Checker(prog, mode, errors).run();
    return errors.empty();
}

bool
verifyProc(const Program &prog, ProcId proc, VerifyMode mode,
           std::vector<std::string> &errors)
{
    errors.clear();
    ps_assert_msg(proc < prog.procs.size(),
                  "verifyProc: procedure %u out of range", proc);
    Checker(prog, mode, errors).runProc(proc);
    return errors.empty();
}

namespace {

Status
errorsToStatus(const std::vector<std::string> &errors)
{
    if (errors.empty())
        return Status();
    // Cap the message at a handful of violations; callers that need
    // the full list use verify()/verifyProc() directly.
    std::string msg = strfmt("%zu violation(s): ", errors.size());
    const size_t shown = std::min<size_t>(errors.size(), 3);
    for (size_t i = 0; i < shown; ++i) {
        if (i)
            msg += "; ";
        msg += errors[i];
    }
    return Status::error(ErrorKind::VerifyFailed, std::move(msg));
}

} // namespace

Status
verifyStatus(const Program &prog, VerifyMode mode)
{
    std::vector<std::string> errors;
    verify(prog, mode, errors);
    return errorsToStatus(errors);
}

Status
verifyProcStatus(const Program &prog, ProcId proc, VerifyMode mode,
                 uint32_t machine_regs)
{
    std::vector<std::string> errors;
    verifyProc(prog, proc, mode, errors);
    const Procedure &p = prog.procs[proc];
    if (p.numRegs > machine_regs)
        errors.push_back(strfmt("proc %s: %u registers, the machine has %u",
                                p.name.c_str(), p.numRegs, machine_regs));
    return errorsToStatus(errors);
}

void
verifyOrDie(const Program &prog, VerifyMode mode)
{
    std::vector<std::string> errors;
    if (!verify(prog, mode, errors)) {
        for (const auto &e : errors)
            warn("verify: %s", e.c_str());
        panic("IR verification failed with %zu error(s): %s",
              errors.size(), errors.front().c_str());
    }
}

} // namespace pathsched::ir
