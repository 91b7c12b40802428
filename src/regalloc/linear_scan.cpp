#include "regalloc/linear_scan.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <optional>
#include <unordered_map>

#include "analysis/callgraph.hpp"
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

/**
 * Registers spilled to the frame.  Each reference to one goes through
 * a temporary of one position: a read at 2g is reloaded just before
 * instruction g, and a write at 2g + 1 is stored just after it.
 */
struct Spills
{
    /** (register << 32 | position) of every reference, sorted. */
    std::vector<uint64_t> refs;
    /** Each reference to a spilled register (position << 32 |
     *  register): its temporary and the register's frame slot. */
    std::unordered_map<uint64_t, std::pair<RegId, uint32_t>> temps;
    uint32_t slots = 0;
};

/** The reference positions of every register of @p proc (see Spills). */
std::vector<uint64_t>
referencePositions(const ir::Procedure &proc)
{
    std::vector<uint64_t> refs;
    uint32_t read = 0;
    for (const ir::BasicBlock &bb : proc.blocks) {
        for (const Instruction &ins : bb.instrs) {
            ins.forEachSource(
                [&](RegId r) { refs.push_back(uint64_t(r) << 32 | read); });
            if (ins.dst != kNoReg)
                refs.push_back(uint64_t(ins.dst) << 32 | (read + 1));
            read += 2;
        }
    }
    std::sort(refs.begin(), refs.end());
    refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
    return refs;
}

/**
 * Put the spill code of @p sp into @p proc: each reference to a spilled
 * register becomes its temporary, with a frame load before the reading
 * instruction and a frame store after the writing one.  Each block that
 * gains spill code loses its schedule.
 */
void
insertSpillCode(ir::Procedure &proc, const Spills &sp)
{
    proc.syncSideTables();
    std::vector<RegId> srcs;
    std::vector<Instruction> out;
    std::vector<uint32_t> ordinals;
    uint32_t read = 0;
    for (BlockId b = 0; b < proc.blocks.size(); ++b) {
        ir::BasicBlock &bb = proc.blocks[b];
        ir::SuperblockInfo &sb = proc.superblocks[b];
        out.clear();
        ordinals.clear();
        for (size_t i = 0; i < bb.instrs.size(); ++i, read += 2) {
            Instruction ins = std::move(bb.instrs[i]);
            auto emit = [&](Instruction x) {
                out.push_back(std::move(x));
                if (sb.isSuperblock)
                    ordinals.push_back(sb.srcOrdinalOf[i]);
            };
            ins.sources(srcs);
            std::sort(srcs.begin(), srcs.end());
            srcs.erase(std::unique(srcs.begin(), srcs.end()), srcs.end());
            for (RegId r : srcs) {
                const auto it = sp.temps.find(uint64_t(read) << 32 | r);
                if (it == sp.temps.end())
                    continue;
                const auto [t, slot] = it->second;
                emit(ir::makeLdFrame(t, slot));
                ins.renameSources(r, t);
            }
            const auto it = sp.temps.find(uint64_t(read + 1) << 32 | ins.dst);
            if (it != sp.temps.end())
                ins.dst = it->second.first;
            emit(std::move(ins));
            if (it != sp.temps.end())
                emit(ir::makeStFrame(it->second.second, it->second.first));
        }
        if (out.size() != bb.instrs.size())
            proc.schedules[b] = ir::BlockSchedule();
        std::swap(bb.instrs, out);
        if (sb.isSuperblock)
            std::swap(sb.srcOrdinalOf, ordinals);
    }
    proc.frameSlots = sp.slots;
}

/**
 * Allocate one procedure from its live ranges @p lr (built from the
 * solve @p live, pieces on demand).  Linear scan with lifetime holes:
 * in order of span start, each register takes the free register that
 * was freed longest ago, so a register that a block has just freed is
 * not handed out again inside that block.  A register stays taken
 * until its holders' spans have ended.  Only when none is free does the
 * scan share one whose holders are all in a lifetime hole throughout
 * the new register's pieces.
 *
 * When no register can be shared either, the scan spills in the same
 * pass: of the registers whose holders conflict with the new one, it
 * takes the one whose conflicting holder lives longest (Poletto &
 * Sarkar's rule), sends those holders to frame slots, and queues the
 * temporaries of their later references (Spills) as registers still to
 * place.  Parameters, temporaries and registers the instruction at the
 * scan position reads are never spilled.  Returns false, with @p proc
 * untouched, when none is left to spill: one instruction's operands
 * need more registers than the file has.
 */
bool
allocateProc(ir::Procedure &proc, LiveRanges &lr,
             const analysis::Liveness &live, uint32_t num_phys,
             AllocStats &stats)
{
    const RegId num_vregs = proc.numRegs;
    std::vector<RegId> assignment(num_vregs, kNoReg);
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
    for (RegId v = proc.numParams; v < num_vregs; ++v) {
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

    // Spilling: @p u leaves physical register @p p at @p pos.  Its
    // references before pos keep p; each later one is a temporary the
    // scan will come to.
    Spills sp;
    size_t next = 0; // the scan's place in order
    auto spill = [&](RegId u, RegId p, uint32_t pos) {
        const uint32_t slot = sp.slots++;
        ++stats.regsSpilled;
        assignment[u] = kNoReg;
        std::erase_if(held, [&](const auto &e) { return e.second == u; });
        std::make_heap(held.begin(), held.end(), std::greater<>());
        --holders[p];
        const auto first = std::lower_bound(sp.refs.begin(), sp.refs.end(),
                                            uint64_t(u) << 32);
        for (auto it = first; it != sp.refs.end() && *it >> 32 == u; ++it) {
            const uint32_t at = uint32_t(*it);
            const RegId t = RegId(assignment.size());
            sp.temps.emplace(uint64_t(at) << 32 | u, std::pair(t, slot));
            assignment.push_back(at < pos ? p : kNoReg);
            lr.start.push_back(at);
            lr.last.push_back(at);
            lr.head.push_back(at < pos ? kNoPiece
                                       : uint32_t(lr.pieces.size()));
            cursor.push_back(lr.head.back());
            if (at > pos) {
                lr.pieces.push_back({at, at, kNoPiece});
                const uint64_t key = uint64_t(at) << 32 | t;
                order.insert(std::upper_bound(order.begin() + next,
                                              order.end(), key),
                             key);
            }
        }
    };

    while (next < order.size()) {
        const uint64_t key = order[next++];
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
            if (phys == kNoReg) {
                if (sp.refs.empty())
                    sp.refs = referencePositions(proc);
                // Score each register by its longest-living conflicting
                // holder; a register with one that may not spill scores
                // nothing.
                uint32_t best = 0;
                for (RegId p = 0; p < num_phys; ++p) {
                    uint32_t score = 0;
                    for (const RegId h : holding[p]) {
                        if (!overlaps(h, v, pos))
                            continue;
                        if (h < proc.numParams || h >= num_vregs ||
                            std::binary_search(sp.refs.begin(),
                                               sp.refs.end(),
                                               uint64_t(h) << 32 | pos)) {
                            score = 0;
                            break;
                        }
                        score = std::max(score, lr.last[h] + 1);
                    }
                    if (score > best) {
                        best = score;
                        phys = p;
                    }
                }
                if (phys == kNoReg)
                    return false; // the operands alone overflow the file
                std::vector<RegId> &hs = holding[phys];
                std::erase_if(hs, [&](RegId h) {
                    if (!overlaps(h, v, pos))
                        return false;
                    spill(h, phys, pos);
                    return true;
                });
            }
        }
        if (!holding.empty())
            holding[phys].push_back(v);
        hold(v, phys);
        in_use = std::max(in_use, uint32_t(num_phys - num_free));
    }
    stats.maxPressure = std::max(stats.maxPressure, in_use);
    const bool ran_out = !holding.empty();
    if (sp.slots > 0)
        insertSpillCode(proc, sp);

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
            // kNoReg: a field no source list reads (never live), or a
            // register in the frame; it feeds no dependence.
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

} // namespace

std::vector<uint8_t>
findRecursiveProcs(const ir::Program &prog)
{
    const size_t n = prog.procs.size();
    std::vector<std::vector<ProcId>> callees(n);
    for (const analysis::CallGraph::Edge &e :
         analysis::CallGraph(prog).edges())
        callees[e.caller].push_back(e.callee);
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
    // A procedure whose only registers are its parameters, which fit
    // the file, has nothing to allocate.
    if (proc.numRegs != proc.numParams) {
        std::optional<analysis::Liveness> own;
        if (options.liveness == nullptr) {
            own.emplace(proc);
            ++stats.liveSolves;
            stats.liveVisits += own->visits();
        }
        const analysis::Liveness &live =
            options.liveness != nullptr ? *options.liveness : *own;
        ++stats.rounds;
        LiveRanges lr = buildSpans(proc, live);
        if (!allocateProc(proc, lr, live, num_phys_regs, stats))
            return Status::error(
                ErrorKind::ScheduleFailed,
                strfmt("proc %s: one instruction's operands need more "
                       "than the machine's %u registers",
                       proc.name.c_str(), num_phys_regs));
    }
    ++stats.procsAllocated;
    return Status();
}

AllocStats
allocateProgram(ir::Program &prog, uint32_t num_phys_regs)
{
    AllocStats stats;
    pipeline::forEachProcOrDie(
        prog, "register allocation", [&](ir::ProcId p) {
            return allocateProcedure(prog, p, num_phys_regs, stats, {});
        });
    return stats;
}

} // namespace pathsched::regalloc
