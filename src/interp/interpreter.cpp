#include "interp/interpreter.hpp"

#include <algorithm>
#include <bit>
#include <limits>

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

/** ir::Opcode's ALU operations, Add..CmpGe, are its first sixteen. */
constexpr unsigned kNumAluOps = 16;
static_assert(unsigned(Opcode::CmpGe) + 1 == kNumAluOps);

/**
 * Decoded opcodes.  Every ALU operation has a register form (in
 * ir::Opcode order) and an immediate form (kNumAluOps later), so the
 * loop's one switch needs no operand-kind test.  FellOff is the
 * sentinel that follows the last op of every decoded block.
 */
enum class DOp : uint8_t {
    AddR, SubR, MulR, DivR, RemR, AndR, OrR, XorR, ShlR, ShrR,
    CmpEqR, CmpNeR, CmpLtR, CmpLeR, CmpGtR, CmpGeR,
    AddI, SubI, MulI, DivI, RemI, AndI, OrI, XorI, ShlI, ShrI,
    CmpEqI, CmpNeI, CmpLtI, CmpLeI, CmpGtI, CmpGeI,
    Mov, Ldi, Ld, LdSpec, St, Emit, Nop, Call, BrNz, BrZ, Jmp, Ret,
    FellOff,
};
static_assert(unsigned(DOp::CmpGeI) + 1 == 2 * kNumAluOps);

/** One operation with everything the loop needs resolved. */
struct DecodedOp
{
    DOp op = DOp::Nop;
    /** Exits: leaving the block here completes its superblock (the
     *  op ends the block, or is a Jmp or Ret). */
    bool completes = false;
    RegId dst = kNoReg;
    RegId src1 = kNoReg;
    RegId src2 = kNoReg;
    union
    {
        int64_t imm = 0;
        /** Exits of a superblock: SuperblockInfo::numSrcBlocks. */
        uint64_t sbBlocks;
        /** Call: index of its site in Decoder::sites. */
        uint64_t site;
    };
    /** Branch and Jmp: the taken target. */
    BlockId target0 = kNoBlock;
    /** Branch: the not-taken target when the branch ends its block;
     *  kNoBlock otherwise, so execution goes on to the next op. */
    BlockId target1 = kNoBlock;
    /** Exits: the block's cycle cost when left here — cycleOf + 1 for
     *  a scheduled block, else the op's position + 1. */
    uint32_t exitCost = 0;
    /** Exits of a superblock: srcOrdinalOf + 1; 0 outside one. */
    uint32_t sbOrdinal = 0;
};
static_assert(sizeof(DecodedOp) == 40);

/** A static call site, with its dynamic count. */
struct CallSite
{
    ProcId caller;
    ProcId callee;
    /** The arguments: argPool[argBegin, argBegin + numArgs). */
    uint32_t argBegin;
    uint32_t numArgs;
    uint64_t count = 0;
};

/** One procedure's decoded blocks. */
struct DecodedProc
{
    /** Decoded blocks in first-entry order, each followed by its
     *  FellOff sentinel.  The capacity is reserved when the procedure
     *  is first entered, so op pointers stay valid as blocks append. */
    std::vector<DecodedOp> ops;
    /** Index in ops of each block's first op; kUndecoded until the
     *  block is first entered. */
    std::vector<uint32_t> blockStart;
    /** The layout's block addresses, with an I-cache attached. */
    const uint64_t *blockAddr = nullptr;
    uint32_t numRegs = 0;
};

constexpr uint32_t kUndecoded = std::numeric_limits<uint32_t>::max();

/** Decodes a program lazily, one block at a time, for one run. */
class Decoder
{
  public:
    Decoder(const ir::Program &prog, const layout::CodeLayout *layout)
        : prog_(prog), layout_(layout), procs_(prog.procs.size())
    {}

    /** @p id's decoded form; the pointer is stable for the run. */
    DecodedProc *
    proc(ProcId id)
    {
        DecodedProc &d = procs_[id];
        if (d.blockStart.empty())
            init(d, id);
        return &d;
    }

    /** The first op of block @p b of procedure @p id (decoded as @p d). */
    const DecodedOp *
    entry(DecodedProc &d, ProcId id, BlockId b)
    {
        uint32_t start = d.blockStart[b];
        if (start == kUndecoded)
            start = decodeBlock(d, id, b);
        return d.ops.data() + start;
    }

    std::vector<CallSite> sites;
    std::vector<RegId> argPool;

  private:
    void
    init(DecodedProc &d, ProcId id)
    {
        const ir::Procedure &p = prog_.procs[id];
        ps_assert_msg(!p.blocks.empty(), "proc %s has no blocks",
                      p.name.c_str());
        d.ops.reserve(p.instrCount() + p.blocks.size());
        d.blockStart.assign(p.blocks.size(), kUndecoded);
        d.numRegs = p.numRegs;
        if (layout_ != nullptr)
            d.blockAddr = layout_->blockAddr[id].data();
    }

    uint32_t decodeBlock(DecodedProc &d, ProcId id, BlockId b);

    const ir::Program &prog_;
    const layout::CodeLayout *layout_;
    std::vector<DecodedProc> procs_;
};

uint32_t
Decoder::decodeBlock(DecodedProc &d, ProcId id, BlockId b)
{
    const ir::Procedure &p = prog_.procs[id];
    const ir::BasicBlock &bb = p.blocks[b];
    const ir::BlockSchedule &sched = p.schedules[b];
    const ir::SuperblockInfo &sb = p.superblocks[b];
    const size_t n = bb.instrs.size();
    const uint32_t start = uint32_t(d.ops.size());
    ps_assert(d.ops.size() + n + 1 <= d.ops.capacity());

    for (size_t i = 0; i < n; ++i) {
        const Instruction &ins = bb.instrs[i];
        DecodedOp o;
        o.dst = ins.dst;
        o.src1 = ins.src1;
        o.src2 = ins.src2;
        o.imm = ins.imm;
        bool exit = false;
        switch (ins.op) {
          case Opcode::Mov: o.op = DOp::Mov; break;
          case Opcode::Ldi: o.op = DOp::Ldi; break;
          case Opcode::Ld: o.op = DOp::Ld; break;
          case Opcode::LdSpec: o.op = DOp::LdSpec; break;
          case Opcode::St: o.op = DOp::St; break;
          case Opcode::Emit: o.op = DOp::Emit; break;
          case Opcode::Nop: o.op = DOp::Nop; break;
          case Opcode::Call:
            o.op = DOp::Call;
            o.site = sites.size();
            sites.push_back({id, ins.callee, uint32_t(argPool.size()),
                             uint32_t(ins.args.size())});
            argPool.insert(argPool.end(), ins.args.begin(),
                           ins.args.end());
            break;
          case Opcode::BrNz:
          case Opcode::BrZ:
            o.op = ins.op == Opcode::BrNz ? DOp::BrNz : DOp::BrZ;
            o.completes = i + 1 == n;
            o.target0 = ins.target0;
            o.target1 = o.completes ? ins.target1 : kNoBlock;
            exit = true;
            break;
          case Opcode::Jmp:
            o.op = DOp::Jmp;
            o.completes = true;
            o.target0 = ins.target0;
            exit = true;
            break;
          case Opcode::Ret:
            o.op = DOp::Ret;
            o.completes = true;
            exit = true;
            break;
          default:
            o.op = DOp(unsigned(ins.op) + (ins.useImm ? kNumAluOps : 0));
            break;
        }
        if (exit) {
            o.exitCost = sched.valid ? sched.cycleOf[i] + 1 : uint32_t(i + 1);
            if (sb.isSuperblock) {
                o.sbOrdinal = sb.srcOrdinalOf[i] + 1;
                o.sbBlocks = sb.numSrcBlocks;
            }
        }
        d.ops.push_back(o);
    }
    DecodedOp sentinel;
    sentinel.op = DOp::FellOff;
    d.ops.push_back(sentinel);
    d.blockStart[b] = start;
    return start;
}

/** A suspended caller, resumed when its callee returns. */
struct Frame
{
    ProcId proc;
    BlockId block;
    /** Register the pending Call writes on return; kNoReg for void. */
    RegId retDst;
    const DecodedOp *resume;
    /** Fetch address of `resume`, with an I-cache attached. */
    uint64_t resumeAddr;
    /** The caller's registers start here in the register stack. */
    size_t regBase;
};

int64_t
divOp(int64_t a, int64_t b)
{
    if (b == 0)
        return 0;
    if (a == INT64_MIN && b == -1)
        return a;
    return a / b;
}

int64_t
remOp(int64_t a, int64_t b)
{
    if (b == 0)
        return 0;
    if (a == INT64_MIN && b == -1)
        return 0;
    return a % b;
}

/**
 * One run: the interpreter loop, one instantiation per combination of
 * "I-cache attached" and "listeners present".  Counters live in locals
 * and are written to the result once at the end: stores through a
 * RunResult& could alias the int64_t register writes, which would
 * force a reload and store of every counter on every op.
 */
template <bool kCache, bool kListen>
RunResult
execute(const ir::Program &prog, const InterpOptions &opts,
        const std::vector<TraceListener *> &listeners,
        const ProgramInput &input)
{
    RunResult res;
    std::vector<int64_t> mem_words(prog.memWords, 0);
    std::copy(input.memImage.begin(), input.memImage.end(),
              mem_words.begin());
    int64_t *const mem = mem_words.data();
    const uint64_t mem_size = mem_words.size();

    // Every activation's registers, the callee's after its caller's.
    const ir::Procedure &mainp = prog.procs[prog.mainProc];
    std::vector<int64_t> reg_file(std::max<size_t>(mainp.numRegs, 64), 0);
    std::copy(input.mainArgs.begin(), input.mainArgs.end(),
              reg_file.begin());
    if constexpr (kListen) {
        for (TraceListener *l : listeners)
            l->onProcEnter(prog.mainProc);
    }

    uint64_t steps = 0, block_cycles = 0;
    uint64_t branches = 0, calls = 0, jumps = 0, rets = 0, mem_ops = 0;
    uint64_t edges = 0;
    uint64_t sb_entries = 0, sb_blocks_executed = 0, sb_blocks_in_sb = 0;
    uint64_t sb_completions = 0;
    int64_t return_value = 0;
    std::vector<int64_t> output;

    // The typed budget when it undercuts the runaway guard, else the
    // guard itself.  Each op does one compare against check_at, the
    // next step that must stop at the cap or poll the deadline.
    const uint64_t step_cap =
        opts.budgetSteps != 0 && opts.budgetSteps < opts.maxSteps
            ? opts.budgetSteps
            : opts.maxSteps;
    const uint64_t cap_check = step_cap == UINT64_MAX ? UINT64_MAX
                                                      : step_cap + 1;
    const bool has_deadline = opts.deadline.active();
    uint64_t check_at =
        has_deadline ? std::min(cap_check, kDeadlineCheckStride) : cap_check;

    // Fetch state.  A direct-mapped cache always hits when a fetch is
    // on the line of the fetch before it, so the model is probed only
    // when the line changes; the skipped hits are added in bulk.
    icache::ICache *const cache = opts.cache;
    const uint64_t accesses_before = kCache ? cache->accesses() : 0;
    const uint64_t misses_before = kCache ? cache->misses() : 0;
    const uint32_t instr_bytes =
        kCache ? opts.codeLayout->instrBytes : 0;
    const unsigned line_shift =
        kCache ? unsigned(std::countr_zero(cache->params().lineBytes)) : 0;
    uint64_t addr = 0;
    uint64_t last_line = UINT64_MAX;
    uint64_t probes = 0, stall_cycles = 0;

    // The running activation.  Suspended callers are on `frames`.
    Decoder dec(prog, opts.codeLayout);
    std::vector<Frame> frames;
    ProcId proc = prog.mainProc;
    DecodedProc *dp = dec.proc(proc);
    BlockId block = 0;
    size_t reg_base = 0;
    int64_t *regs = reg_file.data();
    const DecodedOp *pc = dec.entry(*dp, proc, 0);
    if constexpr (kCache)
        addr = dp->blockAddr[0];

    // Charge the block's cycles on leaving it at exit `o`, and record
    // Fig. 7's statistics when it is a superblock.  Both helpers are
    // forced inline so the counters they capture stay in registers.
    auto leave_block = [&](const DecodedOp &o)
        __attribute__((always_inline)) {
        block_cycles += o.exitCost;
        if (o.sbOrdinal != 0) {
            ++sb_entries;
            sb_blocks_executed += o.sbOrdinal;
            sb_blocks_in_sb += o.sbBlocks;
            sb_completions += o.completes;
        }
    };
    // Leave the block at exit `o` for block `next` of this activation.
    auto take_exit = [&](const DecodedOp &o, BlockId next)
        __attribute__((always_inline)) {
        leave_block(o);
        ++edges;
        if constexpr (kListen) {
            for (TraceListener *l : listeners)
                l->onEdge(proc, block, next);
        }
        block = next;
        pc = dec.entry(*dp, proc, next);
        if constexpr (kCache)
            addr = dp->blockAddr[next];
    };

    for (;;) {
        const DecodedOp &o = *pc;
        if (++steps >= check_at) [[unlikely]] {
            if (o.op == DOp::FellOff)
                panic("fell off the end of proc %s block %u",
                      prog.procs[proc].name.c_str(), block);
            if (steps > step_cap) {
                // Typed, recoverable stop: the caller decides how
                // severe a runaway run is.
                if (step_cap < opts.maxSteps)
                    res.budgetStop = true;
                else
                    res.stepLimit = true;
                res.stopProc = proc;
                break;
            }
            if (opts.deadline.expired()) {
                res.deadlineStop = true;
                res.stopProc = proc;
                break;
            }
            check_at = std::min(cap_check, steps + kDeadlineCheckStride);
        }

        if constexpr (kCache) {
            const uint64_t line = addr >> line_shift;
            if (line != last_line) {
                last_line = line;
                ++probes;
                stall_cycles += cache->access(addr);
            }
            addr += instr_bytes;
        }

        switch (o.op) {
#define PS_ALU(NAME, EXPR)                                                \
          case DOp::NAME##R: {                                            \
            const int64_t a = regs[o.src1], b = regs[o.src2];             \
            regs[o.dst] = (EXPR);                                         \
            ++pc;                                                         \
            break;                                                        \
          }                                                               \
          case DOp::NAME##I: {                                            \
            const int64_t a = regs[o.src1], b = o.imm;                    \
            regs[o.dst] = (EXPR);                                         \
            ++pc;                                                         \
            break;                                                        \
          }
            PS_ALU(Add, int64_t(uint64_t(a) + uint64_t(b)))
            PS_ALU(Sub, int64_t(uint64_t(a) - uint64_t(b)))
            PS_ALU(Mul, int64_t(uint64_t(a) * uint64_t(b)))
            PS_ALU(Div, divOp(a, b))
            PS_ALU(Rem, remOp(a, b))
            PS_ALU(And, a & b)
            PS_ALU(Or, a | b)
            PS_ALU(Xor, a ^ b)
            PS_ALU(Shl, int64_t(uint64_t(a) << (uint64_t(b) & 63)))
            PS_ALU(Shr, a >> (uint64_t(b) & 63))
            PS_ALU(CmpEq, a == b)
            PS_ALU(CmpNe, a != b)
            PS_ALU(CmpLt, a < b)
            PS_ALU(CmpLe, a <= b)
            PS_ALU(CmpGt, a > b)
            PS_ALU(CmpGe, a >= b)
#undef PS_ALU

          case DOp::Mov:
            regs[o.dst] = regs[o.src1];
            ++pc;
            break;
          case DOp::Ldi:
            regs[o.dst] = o.imm;
            ++pc;
            break;
          case DOp::Ld: {
            ++mem_ops;
            const int64_t a = regs[o.src1] + o.imm;
            if (uint64_t(a) >= mem_size)
                fatal("proc %s block %u: load from invalid address %lld",
                      prog.procs[proc].name.c_str(), block,
                      (long long)a);
            regs[o.dst] = mem[a];
            ++pc;
            break;
          }
          case DOp::LdSpec: {
            // Non-excepting: a bad speculative address yields 0, the
            // software analogue of the suppressed trap in §3.2.
            ++mem_ops;
            const int64_t a = regs[o.src1] + o.imm;
            regs[o.dst] = uint64_t(a) < mem_size ? mem[a] : 0;
            ++pc;
            break;
          }
          case DOp::St: {
            ++mem_ops;
            const int64_t a = regs[o.src1] + o.imm;
            if (uint64_t(a) >= mem_size)
                fatal("proc %s block %u: store to invalid address %lld",
                      prog.procs[proc].name.c_str(), block,
                      (long long)a);
            mem[a] = regs[o.src2];
            ++pc;
            break;
          }
          case DOp::Emit:
            output.push_back(regs[o.src1]);
            ++pc;
            break;
          case DOp::Nop:
            ++pc;
            break;

          case DOp::BrNz:
          case DOp::BrZ: {
            ++branches;
            const bool taken = (regs[o.src1] != 0) == (o.op == DOp::BrNz);
            const BlockId next = taken ? o.target0 : o.target1;
            if (next == kNoBlock)
                ++pc;
            else
                take_exit(o, next);
            break;
          }
          case DOp::Jmp:
            ++jumps;
            take_exit(o, o.target0);
            break;

          case DOp::Call: {
            ++calls;
            CallSite &site = dec.sites[o.site];
            ++site.count;
            const ProcId callee = site.callee;
            const uint32_t arg_begin = site.argBegin;
            const uint32_t num_args = site.numArgs;
            ps_assert(num_args == prog.procs[callee].numParams);
            frames.push_back({proc, block, o.dst, pc + 1, addr, reg_base});

            // The callee's registers follow the caller's, zeroed.
            const size_t caller_base = reg_base;
            reg_base += dp->numRegs;
            dp = dec.proc(callee);
            const size_t top = reg_base + dp->numRegs;
            if (top > reg_file.size())
                reg_file.resize(std::max(top, 2 * reg_file.size()));
            const int64_t *caller_regs = reg_file.data() + caller_base;
            regs = reg_file.data() + reg_base;
            std::fill_n(regs, dp->numRegs, 0);
            for (uint32_t k = 0; k < num_args; ++k)
                regs[k] = caller_regs[dec.argPool[arg_begin + k]];

            proc = callee;
            block = 0;
            pc = dec.entry(*dp, proc, 0);
            if constexpr (kCache)
                addr = dp->blockAddr[0];
            if constexpr (kListen) {
                for (TraceListener *l : listeners)
                    l->onProcEnter(callee);
            }
            break;
          }
          case DOp::Ret: {
            ++rets;
            leave_block(o);
            const int64_t value = o.src1 == kNoReg ? 0 : regs[o.src1];
            if constexpr (kListen) {
                for (TraceListener *l : listeners)
                    l->onProcExit(proc);
            }
            if (frames.empty()) {
                return_value = value;
                goto done;
            }
            const Frame &f = frames.back();
            proc = f.proc;
            dp = dec.proc(proc);
            block = f.block;
            pc = f.resume;
            reg_base = f.regBase;
            regs = reg_file.data() + reg_base;
            if (f.retDst != kNoReg)
                regs[f.retDst] = value;
            if constexpr (kCache)
                addr = f.resumeAddr;
            frames.pop_back();
            break;
          }

          case DOp::FellOff:
            panic("fell off the end of proc %s block %u",
                  prog.procs[proc].name.c_str(), block);
        }
    }
done:
    // A truncated run stopped before executing its last counted step.
    const uint64_t executed = res.truncated() ? steps - 1 : steps;
    res.returnValue = return_value;
    res.output = std::move(output);
    res.dynInstrs = executed;
    res.dynBranches = branches;
    res.dynCalls = calls;
    res.dynJumps = jumps;
    res.dynRets = rets;
    res.dynMemOps = mem_ops;
    res.dynEdges = edges;
    res.cycles = block_cycles + stall_cycles;
    res.stallCycles = stall_cycles;
    res.sbEntries = sb_entries;
    res.sbBlocksExecuted = sb_blocks_executed;
    res.sbBlocksInSb = sb_blocks_in_sb;
    res.sbCompletions = sb_completions;
    if constexpr (kCache) {
        cache->addHits(executed - probes);
        res.icacheAccesses = cache->accesses() - accesses_before;
        res.icacheMisses = cache->misses() - misses_before;
        res.icacheProbes = probes;
    }
    if (opts.collectCallCounts) {
        for (const CallSite &site : dec.sites) {
            if (site.count != 0)
                res.callCounts[{site.caller, site.callee}] += site.count;
        }
    }
    return res;
}

} // namespace

RunResult
Interpreter::run(const ProgramInput &input)
{
    ps_assert(prog_.mainProc != ir::kNoProc);
    ps_assert_msg(opts_.cache == nullptr || opts_.codeLayout != nullptr,
                  "an attached I-cache requires a code layout");
    ps_assert_msg(input.memImage.size() <= prog_.memWords,
                  "memory image (%zu words) exceeds program memory (%zu)",
                  input.memImage.size(), size_t(prog_.memWords));
    ps_assert_msg(input.mainArgs.size() <=
                      prog_.procs[prog_.mainProc].numParams,
                  "too many main() arguments");

    const bool listen = !listeners_.empty();
    if (opts_.cache != nullptr) {
        return listen ? execute<true, true>(prog_, opts_, listeners_, input)
                      : execute<true, false>(prog_, opts_, listeners_, input);
    }
    return listen ? execute<false, true>(prog_, opts_, listeners_, input)
                  : execute<false, false>(prog_, opts_, listeners_, input);
}

} // namespace pathsched::interp
