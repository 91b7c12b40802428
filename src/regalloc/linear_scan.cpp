#include "regalloc/linear_scan.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <optional>
#include <queue>

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

struct Interval
{
    RegId vreg;
    uint32_t lo = UINT32_MAX;
    uint32_t hi = 0;
    uint32_t refs = 0; ///< static use+def sites (spill cost proxy)
    bool used = false;
};

/** One coarse live interval per virtual register of @p proc, from a
 *  liveness solve @p live of the procedure as it stands. */
std::vector<Interval>
buildIntervals(const ir::Procedure &proc, const analysis::Liveness &live)
{
    std::vector<Interval> ivs(proc.numRegs);
    for (RegId r = 0; r < proc.numRegs; ++r)
        ivs[r].vreg = r;
    auto extend = [&](RegId r, uint32_t pos) {
        ivs[r].used = true;
        ivs[r].lo = std::min(ivs[r].lo, pos);
        ivs[r].hi = std::max(ivs[r].hi, pos);
    };

    uint32_t pos = 0;
    for (BlockId b = 0; b < proc.blocks.size(); ++b) {
        const uint32_t block_start = pos;
        for (const auto &ins : proc.blocks[b].instrs) {
            ins.forEachSource([&](RegId r) {
                extend(r, pos);
                ++ivs[r].refs;
            });
            if (ins.hasDst()) {
                extend(ins.dst, pos);
                ++ivs[ins.dst].refs;
            }
            ++pos;
        }
        const uint32_t block_end = pos == block_start ? pos : pos - 1;
        live.liveIn(b).forEachSet(
            [&](size_t r) { extend(RegId(r), block_start); });
        live.liveOut(b).forEachSet(
            [&](size_t r) { extend(RegId(r), block_end); });
    }
    for (RegId p = 0; p < proc.numParams; ++p)
        extend(p, 0);
    return ivs;
}

/** A procedure with nothing to allocate: its only registers are its
 *  parameters, which fit the file. */
bool
isTrivial(const ir::Procedure &proc, uint32_t num_phys)
{
    return proc.numRegs <= num_phys && proc.numRegs == proc.numParams;
}

/** Allocate one procedure from its intervals @p ivs; returns false, with
 *  @p proc untouched, when pressure exceeds the file. */
bool
allocateProc(ir::Procedure &proc, const std::vector<Interval> &ivs,
             uint32_t num_phys, AllocStats &stats)
{
    // Sort interval starts; parameters first so their precoloring wins.
    std::vector<const Interval *> order;
    for (const auto &iv : ivs) {
        if (iv.used)
            order.push_back(&iv);
    }
    std::sort(order.begin(), order.end(),
              [&](const Interval *a, const Interval *b) {
                  const bool pa = a->vreg < proc.numParams;
                  const bool pb = b->vreg < proc.numParams;
                  if (a->lo != b->lo)
                      return a->lo < b->lo;
                  if (pa != pb)
                      return pa;
                  return a->vreg < b->vreg;
              });

    std::vector<RegId> assignment(proc.numRegs, kNoReg);
    // Bit p of word p / 64 is set while physical register p is free.
    std::vector<uint64_t> phys_free((num_phys + 63) / 64, ~uint64_t(0));
    if (num_phys % 64 != 0)
        phys_free.back() = (uint64_t(1) << (num_phys % 64)) - 1;
    auto flip = [&](RegId p) {
        phys_free[p / 64] ^= uint64_t(1) << (p % 64);
    };
    // (end position, phys reg) of active intervals, earliest end on top.
    using Active = std::pair<uint32_t, RegId>;
    std::priority_queue<Active, std::vector<Active>, std::greater<Active>>
        active;
    uint32_t pressure = 0;

    for (const Interval *iv : order) {
        // Expire intervals that ended strictly before this start.
        while (!active.empty() && active.top().first < iv->lo) {
            flip(active.top().second);
            active.pop();
        }

        RegId phys = kNoReg;
        if (iv->vreg < proc.numParams) {
            // Precolored; the parameter registers are the lowest ids
            // and parameters sort first at position 0, so their slots
            // are necessarily still free here.
            phys = iv->vreg;
            ps_assert((phys_free[phys / 64] >> (phys % 64)) & 1);
        } else {
            // The lowest free register.
            for (size_t w = 0; w < phys_free.size(); ++w) {
                if (phys_free[w] != 0) {
                    phys = RegId(w * 64 + std::countr_zero(phys_free[w]));
                    break;
                }
            }
            if (phys == kNoReg)
                return false; // pressure exceeds the register file
        }
        flip(phys);
        active.push({iv->hi, phys});
        assignment[iv->vreg] = phys;
        pressure = std::max(pressure, uint32_t(active.size()));
    }
    stats.maxPressure = std::max(stats.maxPressure, pressure);

    // Rewrite every operand, and clear the schedule of each block on
    // which the assignment is not injective.  A block's dependence
    // graph reads registers only through equality: among the registers
    // it names (RAW/WAR/WAW edges, memory base versions), and of a def
    // against the registers live at its exits (a subset of its
    // live-out set).  Where no two distinct registers of those share a
    // physical register, the graph, its heights and so the list
    // schedule come out exactly as before.  Only the names need
    // checking here: a live-out register the block does not name is
    // live in as well, so its interval spans the whole block and
    // overlaps the interval of every name and of every other live-out
    // register, and overlapping intervals never share a register.
    // (An allocator with lifetime holes would have to check the
    // live-out sets too.)  claim_of[p] is (block << 32 | register) of
    // the register that last claimed physical p.
    std::vector<uint64_t> claim_of(num_phys, UINT64_MAX);
    for (BlockId b = 0; b < proc.blocks.size(); ++b) {
        bool injective = true;
        auto claim = [&](RegId v) {
            const RegId p = assignment[v];
            // kNoReg: a field no source list reads (never in an
            // interval); it feeds no dependence.
            if (p != kNoReg) {
                const uint64_t mine = uint64_t(b) << 32 | v;
                if (claim_of[p] >> 32 == b)
                    injective &= claim_of[p] == mine;
                else
                    claim_of[p] = mine;
            }
            return p;
        };
        for (auto &ins : proc.blocks[b].instrs) {
            if (ins.dst != kNoReg)
                ins.dst = claim(ins.dst);
            if (ins.src1 != kNoReg)
                ins.src1 = claim(ins.src1);
            if (ins.src2 != kNoReg)
                ins.src2 = claim(ins.src2);
            for (RegId &a : ins.args)
                a = claim(a);
        }
        if (!injective && b < proc.schedules.size())
            proc.schedules[b].valid = false;
    }
    proc.numRegs = num_phys;
    return true;
}

/**
 * Spill the longest-lived non-parameter registers of @p proc, chosen
 * from its current intervals @p ivs, to fresh static memory slots
 * (issued locally in @p plan): every use
 * loads into a fresh short-lived register just before the reader, and
 * every definition stores right after the writer, so pressure collapses
 * to per-instruction locality.  Static slots are only sound when a
 * single activation of the procedure is live at a time — the caller
 * checks for recursion.
 */
bool
spillLongestIntervals(ir::Procedure &proc, const std::vector<Interval> &ivs,
                      size_t how_many, AllocStats &stats, SpillPlan &plan)
{
    std::vector<const Interval *> candidates;
    for (const auto &iv : ivs) {
        if (iv.used && iv.vreg >= proc.numParams && iv.hi > iv.lo)
            candidates.push_back(&iv);
    }
    // Classic spill metric: prefer ranges that block the allocator for
    // a long time but are rarely referenced, so the inserted loads and
    // stores land on cold code (spilling a loop-carried accumulator
    // would put memory traffic in every iteration).
    std::sort(candidates.begin(), candidates.end(),
              [](const Interval *a, const Interval *b) {
                  const double sa = double(a->hi - a->lo) /
                                    double(1 + a->refs);
                  const double sb = double(b->hi - b->lo) /
                                    double(1 + b->refs);
                  return sa != sb ? sa > sb : a->vreg < b->vreg;
              });
    candidates.resize(std::min(candidates.size(), how_many));
    if (candidates.empty())
        return false; // nothing spillable (point lifetimes only)

    // One fresh word of program memory per spilled register, issued
    // locally (sentinel-relative, rebased by the caller).
    std::vector<int64_t> slot_of(proc.numRegs, -1);
    for (const Interval *iv : candidates) {
        slot_of[iv->vreg] = kSpillSlotBase + int64_t(plan.slots++);
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
        const std::vector<Interval> ivs = buildIntervals(proc, live);
        if (allocateProc(proc, ivs, num_phys_regs, stats)) {
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
        if (!spillLongestIntervals(proc, ivs, 16, stats, *options.spill))
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
