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
 * ir::Opcode order) and an immediate form (kNumAluOps later), so no
 * handler tests an operand kind.  FellOff is the sentinel that follows
 * the last op of every decoded block.  The dispatch table in execute()
 * lists a handler for each, in this order.
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
constexpr unsigned kNumDOps = unsigned(DOp::FellOff) + 1;

/** A block not decoded yet, or an exit not taken yet. */
constexpr uint32_t kUnlinked = std::numeric_limits<uint32_t>::max();

/** @name DecodedOp::fetch, with an I-cache attached
 *  How an op's fetch line follows from the fetch before it: the same
 *  line, a later line of its block by 1..kMaxLineStep, or the line a
 *  control transfer computed on the way in (kEntryFetch: a block's
 *  first op, and the op after a Call).
 *  @{
 */
constexpr uint8_t kSameLine = 0;
constexpr uint8_t kMaxLineStep = 254;
constexpr uint8_t kEntryFetch = 255;
/** @} */

/** One operation with everything the loop needs resolved. */
struct DecodedOp
{
    DOp op = DOp::Nop;
    /** With an I-cache attached: how its fetch line follows from the
     *  fetch before it (kSameLine, a line step, or kEntryFetch). */
    uint8_t fetch = kSameLine;
    RegId dst = kNoReg;
    RegId src1 = kNoReg;
    RegId src2 = kNoReg;
    union
    {
        int64_t imm = 0;
        /** Call: index of its site in Decoder::sites. */
        uint64_t site;
        /** Exits (branch, Jmp, Ret): how often the block was left
         *  here.  The block costs, superblock statistics and the jump,
         *  return and edge counts are summed from these once the run
         *  is over (Decoder::tallyExits). */
        uint64_t taken;
    };
    /** Branch and Jmp: the taken target. */
    BlockId target0 = kNoBlock;
    /** Branch: the not-taken target when the branch ends its block;
     *  kNoBlock otherwise, so execution goes on to the next op. */
    BlockId target1 = kNoBlock;
    /** Branch and Jmp: the index in DecodedProc::ops of target0's and
     *  target1's first op, set the first time the exit is taken
     *  (kUnlinked until then), so later exits go straight there. */
    uint32_t link0 = kUnlinked;
    uint32_t link1 = kUnlinked;
};
static_assert(sizeof(DecodedOp) == 40);

/** What a run's exits add up to (see DecodedOp::taken). */
struct ExitTally
{
    uint64_t blockCycles = 0;
    uint64_t jumps = 0, rets = 0, edges = 0;
    uint64_t sbEntries = 0, sbBlocksExecuted = 0, sbBlocksInSb = 0;
    uint64_t sbCompletions = 0;
};

/** A static call site, with its dynamic count. */
struct CallSite
{
    ProcId caller;
    ProcId callee;
    /** The arguments: argPool[argBegin, argBegin + numArgs). */
    uint32_t argBegin;
    uint32_t numArgs;
    uint64_t count = 0;
    /** With an I-cache attached: the fetch line of the op after it. */
    uint64_t resumeLine = 0;
};

/** One procedure's decoded blocks. */
struct DecodedProc
{
    /** Decoded blocks in first-entry order, each followed by its
     *  FellOff sentinel; the entry block is first.  The capacity is
     *  reserved when the procedure is first entered, so op pointers
     *  and links stay valid as blocks append. */
    std::vector<DecodedOp> ops;
    /** Index in ops of each block's first op; kUnlinked until the
     *  block is first entered. */
    std::vector<uint32_t> blockStart;
    /** The layout's block addresses, with an I-cache attached. */
    const uint64_t *blockAddr = nullptr;
    /** The activation's window: its registers, then its spill frame. */
    uint32_t window = 0;
};

/** Decodes a program lazily, one block at a time, for one run. */
class Decoder
{
  public:
    /** @p layout, with @p line_shift = log2 of the I-cache's line
     *  size, when an I-cache is attached; else null. */
    Decoder(const ir::Program &prog, const layout::CodeLayout *layout,
            unsigned line_shift)
        : prog_(prog), layout_(layout), lineShift_(line_shift),
          procs_(prog.procs.size())
    {}

    /** @p id's decoded form, its entry block at ops[0]; the pointer is
     *  stable for the run. */
    DecodedProc *
    proc(ProcId id)
    {
        DecodedProc &d = procs_[id];
        if (d.blockStart.empty())
            init(d, id);
        return &d;
    }

    /** The index in @p d's ops of block @p b's first op, decoding the
     *  block on its first entry (@p d is procedure @p id's). */
    uint32_t
    entry(DecodedProc &d, ProcId id, BlockId b)
    {
        const uint32_t start = d.blockStart[b];
        return start != kUnlinked ? start : decodeBlock(d, id, b);
    }

    /** Sum the exits' counts of the run into @p t. */
    void tallyExits(ExitTally &t) const;

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
        if (layout_ != nullptr)
            d.blockAddr = layout_->blockAddr[id].data();
        d.blockStart.assign(p.blocks.size(), kUnlinked);
        d.window = p.numRegs + p.frameSlots;
        decodeBlock(d, id, 0);
    }

    uint32_t decodeBlock(DecodedProc &d, ProcId id, BlockId b);

    /** The fetch line of op @p i of block @p b of procedure @p id. */
    uint64_t
    lineOf(ProcId id, BlockId b, size_t i) const
    {
        return layout_->instrAddr(id, b, i) >> lineShift_;
    }

    const ir::Program &prog_;
    const layout::CodeLayout *layout_;
    unsigned lineShift_;
    std::vector<DecodedProc> procs_;
};

uint32_t
Decoder::decodeBlock(DecodedProc &d, ProcId id, BlockId b)
{
    const ir::Procedure &p = prog_.procs[id];
    const ir::BasicBlock &bb = p.blocks[b];
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
        switch (ins.op) {
          case Opcode::Mov: o.op = DOp::Mov; break;
          case Opcode::Ldi: o.op = DOp::Ldi; break;
          case Opcode::Ld: o.op = DOp::Ld; break;
          case Opcode::LdSpec: o.op = DOp::LdSpec; break;
          case Opcode::St: o.op = DOp::St; break;
          case Opcode::Emit: o.op = DOp::Emit; break;
          case Opcode::Nop: o.op = DOp::Nop; break;
          // A frame slot is the window word past the registers, so a
          // frame access is a copy within the window.
          case Opcode::LdFrame:
            o.op = DOp::Mov;
            o.src1 = RegId(p.numRegs + ins.imm);
            break;
          case Opcode::StFrame:
            o.op = DOp::Mov;
            o.dst = RegId(p.numRegs + ins.imm);
            break;
          case Opcode::Call:
            ps_assert(ins.args.size() == prog_.procs[ins.callee].numParams);
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
            o.taken = 0;
            o.target0 = ins.target0;
            o.target1 = i + 1 == n ? ins.target1 : kNoBlock;
            break;
          case Opcode::Jmp:
            o.op = DOp::Jmp;
            o.taken = 0;
            o.target0 = ins.target0;
            break;
          case Opcode::Ret:
            o.op = DOp::Ret;
            o.taken = 0;
            break;
          default:
            o.op = DOp(unsigned(ins.op) + (ins.useImm ? kNumAluOps : 0));
            break;
        }
        if (layout_ != nullptr) {
            if (i == 0 || bb.instrs[i - 1].op == Opcode::Call) {
                o.fetch = kEntryFetch;
            } else {
                const uint64_t step = lineOf(id, b, i) - lineOf(id, b, i - 1);
                ps_assert(step <= kMaxLineStep);
                o.fetch = uint8_t(step);
            }
            if (ins.op == Opcode::Call)
                sites.back().resumeLine = lineOf(id, b, i + 1);
        }
        d.ops.push_back(o);
    }
    DecodedOp sentinel;
    sentinel.op = DOp::FellOff;
    d.ops.push_back(sentinel);
    d.blockStart[b] = start;
    return start;
}

void
Decoder::tallyExits(ExitTally &t) const
{
    for (ProcId id = 0; id < procs_.size(); ++id) {
        const DecodedProc &d = procs_[id];
        for (BlockId b = 0; b < d.blockStart.size(); ++b) {
            if (d.blockStart[b] == kUnlinked)
                continue;
            const ir::Procedure &p = prog_.procs[id];
            const ir::BlockSchedule &sched = p.schedules[b];
            const ir::SuperblockInfo &sb = p.superblocks[b];
            const size_t n = p.blocks[b].instrs.size();
            const DecodedOp *ops = d.ops.data() + d.blockStart[b];
            for (size_t i = 0; i < n; ++i) {
                const DecodedOp &o = ops[i];
                const bool branch = o.op == DOp::BrNz || o.op == DOp::BrZ;
                if (!branch && o.op != DOp::Jmp && o.op != DOp::Ret)
                    continue;
                const uint64_t k = o.taken;
                // Leaving the block here costs cycleOf + 1 for a
                // scheduled block, else the op's position + 1.
                t.blockCycles += k * (sched.valid ? sched.cycleOf[i] + 1
                                                  : uint64_t(i + 1));
                t.jumps += o.op == DOp::Jmp ? k : 0;
                t.rets += o.op == DOp::Ret ? k : 0;
                t.edges += o.op != DOp::Ret ? k : 0;
                if (sb.isSuperblock) {
                    // The exit completes the superblock when it ends
                    // the block or is a Jmp or Ret.
                    t.sbEntries += k;
                    t.sbBlocksExecuted += k * (sb.srcOrdinalOf[i] + 1);
                    t.sbBlocksInSb += k * sb.numSrcBlocks;
                    t.sbCompletions += !branch || i + 1 == n ? k : 0;
                }
            }
        }
    }
}

/** A suspended caller, resumed when its callee returns. */
struct Frame
{
    DecodedProc *dp;
    ProcId proc;
    BlockId block;
    /** Register the pending Call writes on return; kNoReg for void. */
    RegId retDst;
    DecodedOp *resume;
    /** With an I-cache attached: the fetch line of `resume`. */
    uint64_t resumeLine;
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
 *
 * Dispatch is threaded: every handler ends in its own copy of PS_NEXT,
 * which counts the step, charges the fetch and jumps through the
 * handler table, so the branch predictor learns each handler's
 * successors on their own.  The step check and the fetch check are
 * written once, in PS_NEXT and PS_FETCH_AND_RUN.
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

    // Every activation's window, the callee's after its caller's.
    const ir::Procedure &mainp = prog.procs[prog.mainProc];
    std::vector<int64_t> reg_file(
        std::max<size_t>(mainp.numRegs + mainp.frameSlots, 64), 0);
    std::copy(input.mainArgs.begin(), input.mainArgs.end(),
              reg_file.begin());
    if constexpr (kListen) {
        for (TraceListener *l : listeners)
            l->onProcEnter(prog.mainProc);
    }

    // Exits and calls count themselves (DecodedOp::taken,
    // CallSite::count); these count the rest.
    uint64_t branches = 0, mem_ops = 0;
    int64_t return_value = 0;
    std::vector<int64_t> output;

    // check_at is the next step that must stop at the cap or poll the
    // deadline, and each op counts `left` down to it, so the steps
    // counted so far are check_at - left.
    const uint64_t cap_check =
        opts.maxSteps == UINT64_MAX ? UINT64_MAX : opts.maxSteps + 1;
    const bool has_deadline = opts.deadline.active();
    uint64_t check_at =
        has_deadline ? std::min(cap_check, kDeadlineCheckStride) : cap_check;
    uint64_t left = check_at;

    // Fetch state.  A direct-mapped cache always hits when a fetch is
    // on the line of the fetch before it, so the model is probed only
    // when the line changes; the skipped hits are added in bulk.  The
    // decoder resolves each op's line from the one before it, so only
    // an op entered by a control transfer compares lines: the transfer
    // leaves its line in entry_line.
    icache::ICache *const cache = opts.cache;
    const uint64_t accesses_before = kCache ? cache->accesses() : 0;
    const uint64_t misses_before = kCache ? cache->misses() : 0;
    const unsigned line_shift =
        kCache ? unsigned(std::countr_zero(cache->params().lineBytes)) : 0;
    uint64_t last_line = UINT64_MAX, entry_line = 0;
    uint64_t probes = 0, stall_cycles = 0;

    // The running activation.  Suspended callers are on `frames`.
    Decoder dec(prog, kCache ? opts.codeLayout : nullptr, line_shift);
    std::vector<Frame> frames;
    ProcId proc = prog.mainProc;
    DecodedProc *dp = dec.proc(proc);
    BlockId block = 0;
    size_t reg_base = 0;
    int64_t *regs = reg_file.data();
    DecodedOp *pc = dp->ops.data();
    if constexpr (kCache)
        entry_line = dp->blockAddr[0] >> line_shift;

    // Leave the block at exit `o` for block `next` of this activation,
    // through the exit's link to it (`link`, one of o's), which its
    // first taking fills in.  Forced inline so the state it captures
    // stays in registers.
    auto take_exit = [&](DecodedOp &o, BlockId next, uint32_t &link)
        __attribute__((always_inline)) {
        ++o.taken;
        if constexpr (kListen) {
            for (TraceListener *l : listeners)
                l->onEdge(proc, block, next);
        }
        block = next;
        if (link == kUnlinked) [[unlikely]]
            link = dec.entry(*dp, proc, next);
        pc = dp->ops.data() + link;
        if constexpr (kCache)
            entry_line = dp->blockAddr[next] >> line_shift;
    };

    static const void *const kHandlers[] = {
        &&AddR, &&SubR, &&MulR, &&DivR, &&RemR, &&AndR, &&OrR, &&XorR,
        &&ShlR, &&ShrR, &&CmpEqR, &&CmpNeR, &&CmpLtR, &&CmpLeR, &&CmpGtR,
        &&CmpGeR,
        &&AddI, &&SubI, &&MulI, &&DivI, &&RemI, &&AndI, &&OrI, &&XorI,
        &&ShlI, &&ShrI, &&CmpEqI, &&CmpNeI, &&CmpLtI, &&CmpLeI, &&CmpGtI,
        &&CmpGeI,
        &&Mov, &&Ldi, &&Ld, &&LdSpec, &&St, &&Emit, &&Nop, &&Call, &&BrNz,
        &&BrZ, &&Jmp, &&Ret, &&FellOff,
    };
    static_assert(std::size(kHandlers) == kNumDOps);

    // Charge the fetch of the op at pc and run its handler.  The empty
    // asm statement differs in each copy (__COUNTER__), so the compiler
    // cannot merge the copies' identical tails back into one shared
    // indirect jump, as GCC's cross-jumping otherwise does.
#define PS_FETCH_AND_RUN()                                                \
    do {                                                                  \
        if constexpr (kCache) {                                           \
            const uint8_t f = pc->fetch;                                  \
            if (f != kSameLine &&                                         \
                (f != kEntryFetch || entry_line != last_line)) {          \
                last_line =                                               \
                    f != kEntryFetch ? last_line + f : entry_line;        \
                ++probes;                                                 \
                stall_cycles += cache->access(last_line << line_shift);   \
            }                                                             \
        }                                                                 \
        __asm__ volatile("" ::"i"(__COUNTER__));                          \
        goto *kHandlers[unsigned(pc->op)];                                \
    } while (0)
    // Count the step of the op at pc, stop or poll the deadline when
    // the count reaches check_at, and run the op.
#define PS_NEXT()                                                         \
    do {                                                                  \
        if (--left == 0) [[unlikely]]                                     \
            goto step_check;                                              \
        PS_FETCH_AND_RUN();                                               \
    } while (0)

    PS_NEXT();

step_check: {
    const uint64_t steps = check_at;
    if (pc->op == DOp::FellOff)
        panic("fell off the end of proc %s block %u",
              prog.procs[proc].name.c_str(), block);
    if (steps > opts.maxSteps) {
        // Typed, recoverable stop: the caller decides how severe an
        // overrun is.
        res.stepLimit = true;
        res.stopProc = proc;
        goto done;
    }
    if (opts.deadline.expired()) {
        res.deadlineStop = true;
        res.stopProc = proc;
        goto done;
    }
    check_at = std::min(cap_check, steps + kDeadlineCheckStride);
    left = check_at - steps;
    PS_FETCH_AND_RUN();
}

#define PS_ALU(NAME, EXPR)                                                \
    NAME##R : {                                                           \
        const int64_t a = regs[pc->src1], b = regs[pc->src2];             \
        regs[pc->dst] = (EXPR);                                           \
        ++pc;                                                             \
        PS_NEXT();                                                        \
    }                                                                     \
    NAME##I : {                                                           \
        const int64_t a = regs[pc->src1], b = pc->imm;                    \
        regs[pc->dst] = (EXPR);                                           \
        ++pc;                                                             \
        PS_NEXT();                                                        \
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

Mov:
    regs[pc->dst] = regs[pc->src1];
    ++pc;
    PS_NEXT();
Ldi:
    regs[pc->dst] = pc->imm;
    ++pc;
    PS_NEXT();
Ld: {
    ++mem_ops;
    const int64_t a = regs[pc->src1] + pc->imm;
    if (uint64_t(a) >= mem_size)
        fatal("proc %s block %u: load from invalid address %lld",
              prog.procs[proc].name.c_str(), block, (long long)a);
    regs[pc->dst] = mem[a];
    ++pc;
    PS_NEXT();
}
LdSpec: {
    // Non-excepting: a bad speculative address yields 0, the software
    // analogue of the suppressed trap in §3.2.
    ++mem_ops;
    const int64_t a = regs[pc->src1] + pc->imm;
    regs[pc->dst] = uint64_t(a) < mem_size ? mem[a] : 0;
    ++pc;
    PS_NEXT();
}
St: {
    ++mem_ops;
    const int64_t a = regs[pc->src1] + pc->imm;
    if (uint64_t(a) >= mem_size)
        fatal("proc %s block %u: store to invalid address %lld",
              prog.procs[proc].name.c_str(), block, (long long)a);
    mem[a] = regs[pc->src2];
    ++pc;
    PS_NEXT();
}
Emit:
    output.push_back(regs[pc->src1]);
    ++pc;
    PS_NEXT();
Nop:
    ++pc;
    PS_NEXT();

    // A branch goes to target0 when taken; when not, to target1 if it
    // ends its block, else on to the next op.
BrNz:
    ++branches;
    if (regs[pc->src1] != 0)
        take_exit(*pc, pc->target0, pc->link0);
    else if (pc->target1 == kNoBlock)
        ++pc;
    else
        take_exit(*pc, pc->target1, pc->link1);
    PS_NEXT();
BrZ:
    ++branches;
    if (regs[pc->src1] == 0)
        take_exit(*pc, pc->target0, pc->link0);
    else if (pc->target1 == kNoBlock)
        ++pc;
    else
        take_exit(*pc, pc->target1, pc->link1);
    PS_NEXT();
Jmp:
    take_exit(*pc, pc->target0, pc->link0);
    PS_NEXT();

Call: {
    CallSite &site = dec.sites[pc->site];
    ++site.count;
    const ProcId callee = site.callee;
    const uint32_t arg_begin = site.argBegin;
    const uint32_t num_args = site.numArgs;
    frames.push_back(
        {dp, proc, block, pc->dst, pc + 1, site.resumeLine, reg_base});

    // The callee's window follows the caller's, zeroed.
    const size_t caller_base = reg_base;
    reg_base += dp->window;
    dp = dec.proc(callee);
    const size_t top = reg_base + dp->window;
    if (top > reg_file.size())
        reg_file.resize(std::max(top, 2 * reg_file.size()));
    const int64_t *caller_regs = reg_file.data() + caller_base;
    regs = reg_file.data() + reg_base;
    std::fill_n(regs, dp->window, 0);
    for (uint32_t k = 0; k < num_args; ++k)
        regs[k] = caller_regs[dec.argPool[arg_begin + k]];

    proc = callee;
    block = 0;
    pc = dp->ops.data();
    if constexpr (kCache)
        entry_line = dp->blockAddr[0] >> line_shift;
    if constexpr (kListen) {
        for (TraceListener *l : listeners)
            l->onProcEnter(callee);
    }
    PS_NEXT();
}
Ret: {
    ++pc->taken;
    const int64_t value = pc->src1 == kNoReg ? 0 : regs[pc->src1];
    if constexpr (kListen) {
        for (TraceListener *l : listeners)
            l->onProcExit(proc);
    }
    if (frames.empty()) {
        return_value = value;
        goto done;
    }
    const Frame &f = frames.back();
    dp = f.dp;
    proc = f.proc;
    block = f.block;
    pc = f.resume;
    reg_base = f.regBase;
    regs = reg_file.data() + reg_base;
    if (f.retDst != kNoReg)
        regs[f.retDst] = value;
    if constexpr (kCache)
        entry_line = f.resumeLine;
    frames.pop_back();
    PS_NEXT();
}

FellOff:
    panic("fell off the end of proc %s block %u",
          prog.procs[proc].name.c_str(), block);

#undef PS_NEXT
#undef PS_FETCH_AND_RUN

done:
    // A truncated run stopped before executing its last counted step.
    const uint64_t steps = check_at - left;
    const uint64_t executed = res.truncated() ? steps - 1 : steps;
    ExitTally exits;
    dec.tallyExits(exits);
    uint64_t calls = 0;
    for (const CallSite &site : dec.sites)
        calls += site.count;
    res.returnValue = return_value;
    res.output = std::move(output);
    res.dynInstrs = executed;
    res.dynBranches = branches;
    res.dynCalls = calls;
    res.dynJumps = exits.jumps;
    res.dynRets = exits.rets;
    res.dynMemOps = mem_ops;
    res.dynEdges = exits.edges;
    res.cycles = exits.blockCycles + stall_cycles;
    res.stallCycles = stall_cycles;
    res.sbEntries = exits.sbEntries;
    res.sbBlocksExecuted = exits.sbBlocksExecuted;
    res.sbBlocksInSb = exits.sbBlocksInSb;
    res.sbCompletions = exits.sbCompletions;
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
