#include "regalloc/linear_scan.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <optional>

#include "analysis/liveness.hpp"
#include "pipeline/stages.hpp"
#include "support/logging.hpp"
#include "support/strutil.hpp"

namespace pathsched::regalloc {

using ir::BlockId;
using ir::Instruction;
using ir::kNoReg;
using ir::Opcode;
using ir::ProcId;
using ir::RegId;

namespace {

/** Positions [from, to], both inclusive, and the register's next
 *  piece (kNoPiece after its last). */
struct Piece
{
    uint32_t from;
    uint32_t to;
    uint32_t next;
};

constexpr uint32_t kNoPiece = UINT32_MAX;

/**
 * Where each virtual register of a procedure is live.  Instruction g of
 * the linear order (blocks in id order) reads its sources at position
 * 2g and writes its destination at 2g + 1, so a register that dies at
 * an instruction and the one it defines never overlap.
 *
 * A register's span runs from its first to its last live position.
 * Its exact pieces lie inside the span, with lifetime holes between
 * them.  Within a block a piece runs from a def or the block entry to
 * the last use or the last exit whose target needs the register, so a
 * register live through to the block's final exit holds the whole
 * block.  Spans are cheap, and the scan needs the pieces only once
 * every register is taken, so they are built on demand (buildPieces).
 */
struct LiveRanges
{
    std::vector<uint32_t> start; ///< UINT32_MAX: never live
    std::vector<uint32_t> last;
    /** Register r's pieces, ascending, disjoint and never abutting, are
     *  the list from pieces[head[r]]; both empty until built. */
    std::vector<Piece> pieces;
    std::vector<uint32_t> head;

    bool live(RegId r) const { return start[r] != UINT32_MAX; }
};

/** The spans of every register of @p proc, from a liveness solve
 *  @p live of the procedure as it stands. */
LiveRanges
buildSpans(const ir::Procedure &proc, const analysis::Liveness &live)
{
    const size_t num_regs = proc.numRegs;
    LiveRanges lr;
    lr.start.assign(num_regs, UINT32_MAX);
    lr.last.assign(num_regs, 0);
    auto touch = [&](RegId r, uint32_t pos) {
        lr.start[r] = std::min(lr.start[r], pos);
        lr.last[r] = std::max(lr.last[r], pos);
    };
    uint32_t read = 0;
    for (BlockId b = 0; b < proc.blocks.size(); ++b) {
        live.liveIn(b).forEachSet([&](size_t r) {
            lr.start[r] = std::min(lr.start[r], read);
        });
        for (const Instruction &ins : proc.blocks[b].instrs) {
            ins.forEachSource([&](RegId r) { touch(r, read); });
            if (ins.dst != kNoReg)
                touch(ins.dst, read + 1);
            read += 2;
        }
        // An empty block has no exits, so nothing is live out of it.
        live.liveOut(b).forEachSet([&](size_t r) {
            lr.last[r] = std::max(lr.last[r], read - 1);
        });
    }
    return lr;
}

/** Fill in the exact pieces of @p lr for @p proc, from the solve
 *  @p live: one backward walk over the procedure. */
void
buildPieces(const ir::Procedure &proc, const analysis::Liveness &live,
            LiveRanges &lr)
{
    const size_t num_regs = proc.numRegs;
    lr.head.assign(num_regs, kNoPiece);
    lr.pieces.clear();

    // Walking backward, live_now holds the registers live after the
    // current position and open_end[r] the end of r's open piece.  A
    // closed piece goes to the front of its register's list, merged
    // with the piece there when the two abut across a block boundary.
    std::vector<uint64_t> live_now((num_regs + 63) / 64, 0);
    std::vector<uint32_t> open_end(num_regs);
    auto open = [&](RegId r, uint32_t pos) {
        if (!((live_now[r / 64] >> (r % 64)) & 1)) {
            live_now[r / 64] |= uint64_t(1) << (r % 64);
            open_end[r] = pos;
        }
    };
    auto close = [&](RegId r, uint32_t pos) {
        live_now[r / 64] &= ~(uint64_t(1) << (r % 64));
        const uint32_t h = lr.head[r];
        if (h != kNoPiece && lr.pieces[h].from == open_end[r] + 1) {
            lr.pieces[h].from = pos;
        } else {
            lr.head[r] = uint32_t(lr.pieces.size());
            lr.pieces.push_back({pos, open_end[r], h});
        }
    };
    auto exit_to = [&](BlockId t, uint32_t pos) {
        const analysis::Liveness::Row in = live.liveIn(t);
        for (size_t w = 0; w < in.numWords(); ++w) {
            for (uint64_t bits = in.words()[w] & ~live_now[w]; bits != 0;
                 bits &= bits - 1)
                open(RegId(w * 64 + std::countr_zero(bits)), pos);
        }
    };
    uint32_t read = 2 * uint32_t(proc.instrCount());
    for (BlockId b = BlockId(proc.blocks.size()); b-- > 0;) {
        const std::vector<Instruction> &instrs = proc.blocks[b].instrs;
        for (size_t i = instrs.size(); i-- > 0;) {
            const Instruction &ins = instrs[i];
            read -= 2;
            if (ins.isBranch() || ins.op == Opcode::Jmp) {
                exit_to(ins.target0, read + 1);
                if (ins.isBranch() && ins.target1 != ir::kNoBlock)
                    exit_to(ins.target1, read + 1);
            }
            if (ins.dst != kNoReg) {
                open(ins.dst, read + 1); // a dead def still takes one
                close(ins.dst, read + 1);
            }
            ins.forEachSource([&](RegId r) { open(r, read); });
        }
        // What is still open is live on entry.
        for (size_t w = 0; w < live_now.size(); ++w) {
            for (uint64_t bits = live_now[w]; bits != 0; bits &= bits - 1)
                close(RegId(w * 64 + std::countr_zero(bits)), read);
        }
    }
}

/** A procedure with nothing to allocate: its only registers are its
 *  parameters, which fit the file. */
bool
isTrivial(const ir::Procedure &proc, uint32_t num_phys)
{
    return proc.numRegs <= num_phys && proc.numRegs == proc.numParams;
}

/**
 * Allocate one procedure from its live ranges @p lr (built from the
 * solve @p live, pieces on demand); returns false, with @p proc
 * untouched, when they do not fit the file.  Linear scan with lifetime
 * holes: in order of span start, each register takes the free register
 * that was freed longest ago, so a register that a block has just freed
 * is not handed out again inside that block.  A register stays taken
 * until its holders' spans have ended.  Only when none is free does the
 * scan share one whose holders are all in a lifetime hole throughout
 * the new register's pieces.
 */
bool
allocateProc(ir::Procedure &proc, LiveRanges &lr,
             const analysis::Liveness &live, uint32_t num_phys,
             AllocStats &stats)
{
    std::vector<RegId> assignment(proc.numRegs, kNoReg);
    std::vector<uint32_t> holders(num_phys, 0);
    // (span end, register) of every assigned register whose span has
    // not ended, a min-heap on the end.
    std::vector<std::pair<uint32_t, RegId>> held;
    auto hold = [&](RegId v, RegId p) {
        assignment[v] = p;
        ++holders[p];
        held.push_back({lr.last[v], v});
        std::push_heap(held.begin(), held.end(), std::greater<>());
    };
    // Parameters are precolored (the calling convention).
    for (RegId v = 0; v < proc.numParams; ++v) {
        if (lr.live(v))
            hold(v, v);
    }
    // The free registers, least recently freed at the head.
    std::vector<RegId> fifo(num_phys);
    size_t head = 0, num_free = 0;
    auto release = [&](RegId p) {
        fifo[(head + num_free++) % num_phys] = p;
    };
    for (RegId p = 0; p < num_phys; ++p) {
        if (holders[p] == 0)
            release(p);
    }
    uint32_t in_use = 0;

    std::vector<uint64_t> order; // start << 32 | register
    for (RegId v = proc.numParams; v < proc.numRegs; ++v) {
        if (lr.live(v))
            order.push_back(uint64_t(lr.start[v]) << 32 | v);
    }
    std::sort(order.begin(), order.end());
    // cursor[h]: h's first piece that may still reach the scan position
    // (once the pieces are built).
    std::vector<uint32_t> cursor;
    auto overlaps = [&](RegId h, RegId v, uint32_t pos) {
        const std::vector<Piece> &pc = lr.pieces;
        uint32_t i = cursor[h];
        while (i != kNoPiece && pc[i].to < pos)
            i = pc[i].next;
        cursor[h] = i;
        for (uint32_t j = lr.head[v]; i != kNoPiece && j != kNoPiece;) {
            if (pc[i].to < pc[j].from)
                i = pc[i].next;
            else if (pc[j].to < pc[i].from)
                j = pc[j].next;
            else
                return true;
        }
        return false;
    };
    // Once the free registers run out: the registers holding each
    // physical register, pruned as their spans end.
    std::vector<std::vector<RegId>> holding;
    for (const uint64_t key : order) {
        const RegId v = RegId(key);
        const uint32_t pos = uint32_t(key >> 32);
        while (!held.empty() && held.front().first < pos) {
            const RegId p = assignment[held.front().second];
            std::pop_heap(held.begin(), held.end(), std::greater<>());
            held.pop_back();
            if (--holders[p] == 0)
                release(p);
        }
        RegId phys = kNoReg;
        if (num_free > 0) {
            phys = fifo[head];
            head = (head + 1) % num_phys;
            --num_free;
        } else {
            if (holding.empty()) {
                buildPieces(proc, live, lr);
                cursor = lr.head;
                holding.resize(num_phys);
                for (const auto &[end, h] : held)
                    holding[assignment[h]].push_back(h);
            }
            for (RegId p = 0; p < num_phys && phys == kNoReg; ++p) {
                std::vector<RegId> &hs = holding[p];
                std::erase_if(hs, [&](RegId h) { return lr.last[h] < pos; });
                if (std::none_of(hs.begin(), hs.end(),
                                 [&](RegId h) { return overlaps(h, v, pos); }))
                    phys = p;
            }
            if (phys == kNoReg)
                return false; // the ranges do not fit the file
        }
        if (!holding.empty())
            holding[phys].push_back(v);
        hold(v, phys);
        in_use = std::max(in_use, uint32_t(num_phys - num_free));
    }
    stats.maxPressure = std::max(stats.maxPressure, in_use);
    const bool ran_out = !holding.empty();

    // Rewrite every operand, and clear the schedule of each block on
    // which the assignment is not injective over the registers the
    // block names plus its live-out set.  A block's dependence graph
    // reads registers only through equality: among its names (RAW/WAR/
    // WAW edges, memory base versions), and of a def against the
    // registers live at its exits (a subset of its live-out set).
    // Where no two distinct registers of those share a physical
    // register, the graph, its heights and so the list schedule come
    // out exactly as before.  A live-out register the block does not
    // name is live in as well.  Its span covers the whole block, so
    // no name takes its register from the free list; nor in a hole of
    // a block without side exits, where its piece covers the block
    // too.  But after a side exit it may be dead, and a name defined
    // there may take its register in the hole, which keeps that def
    // below the exit.  So the live-out set is checked in the blocks
    // with a side exit once the free registers have run out.
    // claim_of[p] is (block << 32 | register) of the register that
    // last claimed physical p.
    std::vector<uint64_t> claim_of(num_phys, UINT64_MAX);
    for (BlockId b = 0; b < proc.blocks.size(); ++b) {
        bool injective = true;
        auto claim = [&](RegId v) {
            const RegId p = assignment[v];
            // kNoReg: a field no source list reads (never live); it
            // feeds no dependence.
            if (p != kNoReg) {
                const uint64_t mine = uint64_t(b) << 32 | v;
                if (claim_of[p] >> 32 == b)
                    injective &= claim_of[p] == mine;
                else
                    claim_of[p] = mine;
            }
            return p;
        };
        bool side_exit = false;
        for (auto &ins : proc.blocks[b].instrs) {
            if (ins.dst != kNoReg)
                ins.dst = claim(ins.dst);
            if (ins.src1 != kNoReg)
                ins.src1 = claim(ins.src1);
            if (ins.src2 != kNoReg)
                ins.src2 = claim(ins.src2);
            for (RegId &a : ins.args)
                a = claim(a);
            side_exit |= ins.isBranch() && ins.target1 == ir::kNoBlock;
        }
        if (ran_out && side_exit)
            live.liveOut(b).forEachSet([&](size_t r) { claim(RegId(r)); });
        if (!injective && b < proc.schedules.size())
            proc.schedules[b].valid = false;
    }
    proc.numRegs = num_phys;
    return true;
}

/**
 * Spill the longest-lived non-parameter registers of @p proc, chosen
 * from its current live ranges @p lr, to fresh static memory slots
 * (issued locally in @p plan): every use
 * loads into a fresh short-lived register just before the reader, and
 * every definition stores right after the writer, so pressure collapses
 * to per-instruction locality.  Static slots are only sound when a
 * single activation of the procedure is live at a time — the caller
 * checks for recursion.
 */
bool
spillLongestRanges(ir::Procedure &proc, const LiveRanges &lr,
                   size_t how_many, AllocStats &stats, SpillPlan &plan)
{
    // (positions covered, register) of every spill candidate.  The
    // scan that failed has built the pieces.
    std::vector<std::pair<uint64_t, RegId>> candidates;
    for (RegId r = proc.numParams; r < proc.numRegs; ++r) {
        uint64_t length = 0;
        for (uint32_t k = lr.head[r]; k != kNoPiece; k = lr.pieces[k].next)
            length += lr.pieces[k].to - lr.pieces[k].from;
        if (length > 0)
            candidates.push_back({length, r});
    }
    // Classic spill metric: prefer ranges that block the allocator for
    // a long time but are rarely referenced, so the inserted loads and
    // stores land on cold code (spilling a loop-carried accumulator
    // would put memory traffic in every iteration).  refs[r] counts
    // r's static use and def sites.
    std::vector<uint32_t> refs(proc.numRegs, 0);
    for (const ir::BasicBlock &bb : proc.blocks) {
        for (const Instruction &ins : bb.instrs) {
            ins.forEachSource([&](RegId r) { ++refs[r]; });
            if (ins.dst != kNoReg)
                ++refs[ins.dst];
        }
    }
    auto cost = [&](const std::pair<uint64_t, RegId> &c) {
        return double(c.first) / double(1 + refs[c.second]);
    };
    std::sort(candidates.begin(), candidates.end(),
              [&](const auto &a, const auto &b) {
                  const double sa = cost(a), sb = cost(b);
                  return sa != sb ? sa > sb : a.second < b.second;
              });
    candidates.resize(std::min(candidates.size(), how_many));
    if (candidates.empty())
        return false; // nothing spillable (point lifetimes only)

    // One fresh word of program memory per spilled register, issued
    // locally (sentinel-relative, rebased by the caller).
    std::vector<int64_t> slot_of(proc.numRegs, -1);
    for (const auto &c : candidates) {
        slot_of[c.second] = kSpillSlotBase + int64_t(plan.slots++);
        ++stats.regsSpilled;
    }
    auto spilled = [&](RegId r) {
        return r != kNoReg && r < slot_of.size() && slot_of[r] >= 0;
    };

    proc.syncSideTables();
    std::vector<RegId> srcs;
    for (BlockId b = 0; b < proc.blocks.size(); ++b) {
        ir::BasicBlock &bb = proc.blocks[b];
        ir::SuperblockInfo &sb = proc.superblocks[b];
        const bool track = sb.isSuperblock;

        std::vector<Instruction> out;
        std::vector<uint32_t> ordinals;
        out.reserve(bb.instrs.size());
        RegId zero_base = kNoReg;

        for (size_t i = 0; i < bb.instrs.size(); ++i) {
            Instruction ins = std::move(bb.instrs[i]);
            const uint32_t ord = track ? sb.srcOrdinalOf[i] : 0;
            auto emit = [&](Instruction x) {
                out.push_back(std::move(x));
                if (track)
                    ordinals.push_back(ord);
            };
            auto ensure_base = [&]() {
                if (zero_base == kNoReg) {
                    zero_base = proc.newReg();
                    emit(ir::makeLdi(zero_base, 0));
                }
            };

            // Reload each distinct spilled source into a fresh reg.
            ins.sources(srcs);
            std::sort(srcs.begin(), srcs.end());
            srcs.erase(std::unique(srcs.begin(), srcs.end()),
                       srcs.end());
            for (RegId r : srcs) {
                if (!spilled(r))
                    continue;
                ensure_base();
                const RegId fresh = proc.newReg();
                emit(ir::makeLd(fresh, zero_base, slot_of[r]));
                ins.renameSources(r, fresh);
            }

            // Redirect a spilled definition through a fresh reg + store.
            if (spilled(ins.dst)) {
                const int64_t slot = slot_of[ins.dst];
                ensure_base();
                const RegId fresh = proc.newReg();
                ins.dst = fresh;
                emit(std::move(ins));
                emit(ir::makeSt(zero_base, slot, fresh));
            } else {
                emit(std::move(ins));
            }
        }
        // Spill code always lengthens the block.  A block without any
        // names no spilled register, so its dependence graph is
        // unchanged and it keeps its schedule (the final assignment's
        // injectivity check still decides).
        const bool rewritten = out.size() != bb.instrs.size();
        bb.instrs = std::move(out);
        if (track)
            sb.srcOrdinalOf = std::move(ordinals);
        if (rewritten && b < proc.schedules.size())
            proc.schedules[b] = ir::BlockSchedule();
    }
    return true;
}

} // namespace

std::vector<uint8_t>
findRecursiveProcs(const ir::Program &prog)
{
    const size_t n = prog.procs.size();
    std::vector<std::vector<ProcId>> callees(n);
    for (const auto &p : prog.procs) {
        for (const auto &bb : p.blocks) {
            for (const auto &ins : bb.instrs) {
                if (ins.op == Opcode::Call)
                    callees[p.id].push_back(ins.callee);
            }
        }
    }
    std::vector<uint8_t> recursive(n, 0);
    for (ProcId start = 0; start < n; ++start) {
        std::vector<uint8_t> seen(n, 0);
        std::vector<ProcId> work(callees[start]);
        while (!work.empty()) {
            const ProcId cur = work.back();
            work.pop_back();
            if (cur == start) {
                recursive[start] = 1;
                break;
            }
            if (seen[cur])
                continue;
            seen[cur] = 1;
            for (ProcId next : callees[cur])
                work.push_back(next);
        }
    }
    return recursive;
}

void
rebaseSpillSlots(ir::Procedure &proc, uint64_t base)
{
    for (auto &bb : proc.blocks) {
        for (auto &ins : bb.instrs) {
            if ((ins.isLoad() || ins.isStore()) &&
                ins.imm >= kSpillSlotBase)
                ins.imm = int64_t(base) + (ins.imm - kSpillSlotBase);
        }
    }
}

Status
allocateProcedure(ir::Program &prog, ir::ProcId proc_id,
                  uint32_t num_phys_regs, AllocStats &stats,
                  const AllocOptions &options)
{
    ps_assert_msg(proc_id < prog.procs.size(),
                  "allocateProcedure: procedure %u out of range",
                  proc_id);
    ir::Procedure &proc = prog.procs[proc_id];
    if (proc.numParams > num_phys_regs) {
        return Status::error(
            ErrorKind::ScheduleFailed,
            strfmt("proc %s: more parameters (%u) than machine "
                   "registers (%u)",
                   proc.name.c_str(), proc.numParams, num_phys_regs));
    }
    ps_assert_msg(options.recursive != nullptr && options.spill != nullptr,
                  "allocateProcedure: recursive and spill are required");
    const std::vector<uint8_t> &recursive = *options.recursive;
    const ResourceBudget *budget = options.budget;

    // Each allocate-or-spill round rescans the whole procedure, so it
    // is charged one unit per instruction against regallocOps.
    BudgetMeter meter(budget, "regalloc",
                      budget != nullptr ? budget->regallocOps : 0);

    // The caller's solve describes the procedure until the first
    // spill rewrites it.
    const analysis::Liveness *given = options.liveness;
    std::optional<analysis::Liveness> own;
    bool done = false;
    for (int round = 0; round < 40 && !done; ++round) {
        Status st = meter.checkpoint(proc.instrCount() + 1);
        if (!st.ok())
            return st;
        if (isTrivial(proc, num_phys_regs)) {
            ++stats.procsAllocated;
            done = true;
            break;
        }
        // One liveness solve per round, shared by both steps below:
        // a failed allocation leaves the procedure unchanged.
        if (given == nullptr) {
            own.emplace(proc);
            ++stats.liveSolves;
            stats.liveVisits += own->visits();
        }
        const analysis::Liveness &live = given != nullptr ? *given : *own;
        given = nullptr;
        ++stats.rounds;
        LiveRanges lr = buildSpans(proc, live);
        if (allocateProc(proc, lr, live, num_phys_regs, stats)) {
            ++stats.procsAllocated;
            done = true;
            break;
        }
        if (recursive[proc.id]) {
            // Static spill slots are unsound under recursion
            // (multiple live activations would share them).
            break;
        }
        // Spill a small batch of the worst offenders and retry.
        if (!spillLongestRanges(proc, lr, 16, stats, *options.spill))
            break; // nothing left to spill
    }
    if (!done) {
        ++stats.procsSkipped;
        inform("regalloc: pressure too high in %sproc %s; kept on "
               "virtual registers",
               recursive[proc.id] ? "recursive " : "",
               proc.name.c_str());
    }
    return Status();
}

AllocStats
allocateProgram(ir::Program &prog, uint32_t num_phys_regs)
{
    AllocStats stats;
    const std::vector<uint8_t> recursive = findRecursiveProcs(prog);
    pipeline::forEachProcOrDie(
        prog, "register allocation", [&](ir::ProcId p) {
            // Rebasing each procedure's slots as soon as it is done
            // issues them in id order from the end of data memory.
            SpillPlan plan;
            AllocOptions options;
            options.recursive = &recursive;
            options.spill = &plan;
            Status st = allocateProcedure(prog, p, num_phys_regs, stats,
                                          options);
            rebaseSpillSlots(prog.procs[p], prog.memWords);
            prog.memWords += plan.slots;
            return st;
        });
    return stats;
}

} // namespace pathsched::regalloc
