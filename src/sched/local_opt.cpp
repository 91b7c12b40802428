#include "sched/local_opt.hpp"

#include "sched/exit_live.hpp"
#include "support/logging.hpp"

namespace pathsched::sched {

using ir::BlockId;
using ir::Instruction;
using ir::kNoReg;
using ir::Opcode;
using ir::RegId;

namespace {

bool
isCommutative(Opcode op)
{
    switch (op) {
      case Opcode::Add:
      case Opcode::Mul:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::CmpEq:
      case Opcode::CmpNe:
        return true;
      default:
        return false;
    }
}

/**
 * Forward dataflow state for one linear scan: one register-indexed
 * record per register, kept in per-thread storage and reset through a
 * touched list when the scan ends.  It notes whether it ever declined a
 * stale copy or chain fact, one whose source was redefined after the
 * fact was recorded.
 */
class ForwardState
{
  public:
    explicit ForwardState(size_t num_regs)
    {
        if (recs_.size() < num_regs)
            recs_.resize(num_regs);
    }

    ~ForwardState()
    {
        for (RegId r : touched_)
            recs_[r] = Record();
        touched_.clear();
    }

    ForwardState(const ForwardState &) = delete;
    ForwardState &operator=(const ForwardState &) = delete;

    /** Start a new value version for @p r, invalidating stale facts. */
    void
    define(RegId r)
    {
        Record &rec = touch(r);
        ++rec.version;
        rec.hasCopy = rec.hasConst = rec.hasChain = false;
    }

    void
    recordCopy(RegId dst, RegId src)
    {
        Record &rec = touch(dst);
        rec.hasCopy = true;
        rec.copySrc = src;
        rec.copyVersion = recs_[src].version;
    }

    void
    recordConst(RegId dst, int64_t v)
    {
        Record &rec = touch(dst);
        rec.hasConst = true;
        rec.constant = v;
    }

    void
    recordChain(RegId dst, RegId base, int64_t off)
    {
        // Fold transitively: if base itself is a chain, root through it.
        if (const Record &b = recs_[base]; b.hasChain) {
            if (b.chainVersion == recs_[b.chainBase].version) {
                base = b.chainBase;
                off += b.chainOffset;
            } else {
                declinedStale_ = true;
            }
        }
        Record &rec = touch(dst);
        rec.hasChain = true;
        rec.chainBase = base;
        rec.chainOffset = off;
        rec.chainVersion = recs_[base].version;
    }

    /** Resolve @p r through the copy map (one hop is enough: the map is
     *  maintained transitively because sources are rewritten first). */
    RegId
    resolveCopy(RegId r)
    {
        if (r >= recs_.size())
            return r;
        const Record &rec = recs_[r];
        if (!rec.hasCopy)
            return r;
        if (rec.copyVersion != recs_[rec.copySrc].version) {
            declinedStale_ = true;
            return r;
        }
        return rec.copySrc;
    }

    bool
    constOf(RegId r, int64_t &out) const
    {
        if (r >= recs_.size() || !recs_[r].hasConst)
            return false;
        out = recs_[r].constant;
        return true;
    }

    /** Current add-chain root of @p r, if any: r == base + offset. */
    bool
    chainOf(RegId r, RegId &base, int64_t &off)
    {
        if (r >= recs_.size())
            return false;
        const Record &rec = recs_[r];
        if (!rec.hasChain)
            return false;
        if (rec.chainVersion != recs_[rec.chainBase].version) {
            declinedStale_ = true;
            return false;
        }
        base = rec.chainBase;
        off = rec.chainOffset;
        return true;
    }

    bool declinedStale() const { return declinedStale_; }

  private:
    /** Everything known about one register; all-zero means nothing. */
    struct Record
    {
        uint32_t version = 0;
        bool touched = false;
        bool hasCopy = false;
        bool hasConst = false;
        bool hasChain = false;
        RegId copySrc = 0;
        uint32_t copyVersion = 0;
        RegId chainBase = 0;
        uint32_t chainVersion = 0;
        int64_t chainOffset = 0;
        int64_t constant = 0;
    };

    Record &
    touch(RegId r)
    {
        Record &rec = recs_[r];
        if (!rec.touched) {
            rec.touched = true;
            touched_.push_back(r);
        }
        return rec;
    }

    bool declinedStale_ = false;

    static thread_local std::vector<Record> recs_;
    static thread_local std::vector<RegId> touched_;
};

thread_local std::vector<ForwardState::Record> ForwardState::recs_;
thread_local std::vector<RegId> ForwardState::touched_;

bool
isAluOp(Opcode op)
{
    switch (op) {
      case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
      case Opcode::Div: case Opcode::Rem: case Opcode::And:
      case Opcode::Or: case Opcode::Xor: case Opcode::Shl:
      case Opcode::Shr: case Opcode::CmpEq: case Opcode::CmpNe:
      case Opcode::CmpLt: case Opcode::CmpLe: case Opcode::CmpGt:
      case Opcode::CmpGe:
        return true;
      default:
        return false;
    }
}

/**
 * One forward simplification sweep.  Returns true when anything changed;
 * sets @p declined_stale when it declined a stale copy or chain fact.
 */
bool
forwardPass(ir::BasicBlock &bb, size_t num_regs, LocalOptStats &stats,
            bool &declined_stale)
{
    ForwardState state(num_regs);
    bool changed = false;
    thread_local std::vector<RegId> srcs;

    for (Instruction &ins : bb.instrs) {
        // 1. Copy-propagate every source.
        ins.sources(srcs);
        for (RegId r : srcs) {
            const RegId to = state.resolveCopy(r);
            if (to != r) {
                ins.renameSources(r, to);
                ++stats.copiesPropagated;
                changed = true;
            }
        }

        // 2. Immediate forms and constant folding for ALU ops.
        if (isAluOp(ins.op)) {
            int64_t c;
            if (!ins.useImm && state.constOf(ins.src2, c)) {
                ins.useImm = true;
                ins.imm = c;
                ins.src2 = kNoReg;
                ++stats.constantsFolded;
                changed = true;
            } else if (!ins.useImm && isCommutative(ins.op) &&
                       state.constOf(ins.src1, c)) {
                ins.src1 = ins.src2;
                ins.useImm = true;
                ins.imm = c;
                ins.src2 = kNoReg;
                ++stats.constantsFolded;
                changed = true;
            }
            // Normalize subtract-immediate into add-immediate so the
            // chain folding below sees one shape.
            if (ins.op == Opcode::Sub && ins.useImm &&
                ins.imm != INT64_MIN) {
                ins.op = Opcode::Add;
                ins.imm = -ins.imm;
                changed = true;
            }
            // i + c1 where i = base + c0  ->  base + (c0 + c1)
            if (ins.op == Opcode::Add && ins.useImm) {
                RegId base;
                int64_t off;
                if (state.chainOf(ins.src1, base, off) &&
                    base != ins.src1) {
                    ins.src1 = base;
                    ins.imm += off;
                    ++stats.chainsFolded;
                    changed = true;
                }
            }
        }

        // 3. Fold add chains into memory offsets.
        if (ins.isLoad() || ins.op == Opcode::St) {
            RegId base;
            int64_t off;
            if (state.chainOf(ins.src1, base, off) && base != ins.src1) {
                ins.src1 = base;
                ins.imm += off;
                ++stats.chainsFolded;
                changed = true;
            }
        }

        // 4. Update dataflow facts from this definition.
        if (ins.hasDst()) {
            state.define(ins.dst);
            if (ins.op == Opcode::Mov && ins.src1 != ins.dst) {
                state.recordCopy(ins.dst, ins.src1);
            } else if (ins.op == Opcode::Ldi) {
                state.recordConst(ins.dst, ins.imm);
            } else if (ins.op == Opcode::Add && ins.useImm &&
                       ins.src1 != ins.dst) {
                state.recordChain(ins.dst, ins.src1, ins.imm);
            }
        }
    }
    declined_stale = state.declinedStale();
    return changed;
}

/** Backward dead-code elimination sweep, exact at side exits. */
bool
deadCodePass(ir::Procedure &proc, BlockId b,
             const analysis::Liveness &live, LocalOptStats &stats)
{
    ir::BasicBlock &bb = proc.blocks[b];
    thread_local std::vector<ExitInfo> exits;
    thread_local BitVec live_now;
    thread_local std::vector<uint8_t> keep;
    collectExits(proc, b, live, exits);

    // Sized to the liveness universe: this pass runs before renaming,
    // so the block only mentions registers the solver knew about.
    if (live_now.size() != live.numRegs())
        live_now = BitVec(live.numRegs());
    else
        live_now.clear();
    keep.assign(bb.instrs.size(), 1);

    bool changed = false;
    size_t exit_cursor = exits.size();
    for (size_t i = bb.instrs.size(); i-- > 0;) {
        const Instruction &ins = bb.instrs[i];
        // Fold in liveness contributed by exits at or after this point.
        while (exit_cursor > 0 && exits[exit_cursor - 1].instrIdx >= i) {
            exits[exit_cursor - 1].unionInto(live_now);
            --exit_cursor;
        }

        const bool side_effect = ins.op == Opcode::St ||
                                 ins.op == Opcode::Emit ||
                                 ins.op == Opcode::Call ||
                                 ins.isControlFlow() ||
                                 ins.op == Opcode::Nop;
        if (!side_effect && ins.hasDst() && !live_now.test(ins.dst)) {
            keep[i] = 0;
            changed = true;
            ++stats.deadRemoved;
            continue;
        }
        if (ins.hasDst())
            live_now.reset(ins.dst);
        ins.forEachSource([](RegId r) { live_now.set(r); });
    }
    if (!changed)
        return false;

    // Compact the survivors in place, keeping their relative order.
    ir::SuperblockInfo &sb = proc.superblocks[b];
    size_t kept = 0;
    for (size_t i = 0; i < bb.instrs.size(); ++i) {
        if (!keep[i])
            continue;
        if (kept != i) {
            bb.instrs[kept] = std::move(bb.instrs[i]);
            if (sb.isSuperblock)
                sb.srcOrdinalOf[kept] = sb.srcOrdinalOf[i];
        }
        ++kept;
    }
    bb.instrs.resize(kept);
    if (sb.isSuperblock)
        sb.srcOrdinalOf.resize(kept);
    return true;
}

} // namespace

LocalOptSweep
optimizeSweep(ir::Procedure &proc, BlockId b,
              const analysis::Liveness &live, LocalOptStats &stats)
{
    LocalOptSweep sweep;
    sweep.changed =
        forwardPass(proc.blocks[b], proc.numRegs, stats, sweep.declinedStale);
    sweep.removed = deadCodePass(proc, b, live, stats);
    sweep.changed |= sweep.removed;
    ++stats.sweeps;
    return sweep;
}

LocalOptStats
optimizeBlock(ir::Procedure &proc, BlockId b,
              const analysis::Liveness &live)
{
    LocalOptStats stats;
    for (int iter = 0; iter < kMaxLocalOptSweeps; ++iter) {
        const LocalOptSweep sweep = optimizeSweep(proc, b, live, stats);
        if (!sweep.removed || !sweep.declinedStale)
            break;
    }
    return stats;
}

} // namespace pathsched::sched
