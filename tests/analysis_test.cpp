/**
 * @file
 * Unit tests for dominators, loop detection, liveness and the call
 * graph.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/callgraph.hpp"
#include "analysis/dominators.hpp"
#include "analysis/liveness.hpp"
#include "analysis/loops.hpp"
#include "gen/generator.hpp"
#include "ir/builder.hpp"
#include "ir/cfg.hpp"
#include "support/strutil.hpp"
#include "workloads/workloads.hpp"

namespace pathsched::analysis {
namespace {

using ir::BlockId;
using ir::Cfg;
using ir::IrBuilder;
using ir::Opcode;
using ir::ProcId;
using ir::Program;
using ir::RegId;

/** entry -> (left|right) -> join -> ret */
Program
makeDiamond()
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const BlockId left = b.newBlock();
    const BlockId right = b.newBlock();
    const BlockId join = b.newBlock();
    b.brnz(b.param(0), left, right);
    b.setBlock(left);
    b.jmp(join);
    b.setBlock(right);
    b.jmp(join);
    b.setBlock(join);
    b.ret(b.param(0));
    return prog;
}

/** entry -> head; head -> (body|exit); body -> head (back edge). */
Program
makeLoop()
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const BlockId head = b.newBlock();
    const BlockId body = b.newBlock();
    const BlockId exit_b = b.newBlock();
    const RegId i = b.freshReg();
    b.ldiTo(i, 3);
    b.jmp(head);
    b.setBlock(head);
    const RegId c = b.alui(Opcode::CmpGt, i, 0);
    b.brnz(c, body, exit_b);
    b.setBlock(body);
    b.aluiTo(Opcode::Sub, i, i, 1);
    b.jmp(head);
    b.setBlock(exit_b);
    b.ret(i);
    return prog;
}

TEST(Dominators, Diamond)
{
    Program prog = makeDiamond();
    Dominators doms(Cfg(prog.proc(0)));
    EXPECT_EQ(doms.idom(0), 0u);
    EXPECT_EQ(doms.idom(1), 0u);
    EXPECT_EQ(doms.idom(2), 0u);
    EXPECT_EQ(doms.idom(3), 0u); // join's idom is the entry, not an arm
    EXPECT_TRUE(doms.dominates(0, 3));
    EXPECT_FALSE(doms.dominates(1, 3));
    EXPECT_TRUE(doms.dominates(2, 2));
}

TEST(Dominators, LoopHeaderDominatesBody)
{
    Program prog = makeLoop();
    Dominators doms(Cfg(prog.proc(0)));
    EXPECT_TRUE(doms.dominates(1, 2)); // head dominates body
    EXPECT_TRUE(doms.dominates(1, 3)); // ... and the exit
    EXPECT_FALSE(doms.dominates(2, 1));
}

TEST(Dominators, UnreachableBlockReported)
{
    Program prog = makeDiamond();
    {
        IrBuilder b(prog);
        b.setProc(0);
        const BlockId dead = b.newBlock();
        b.setBlock(dead);
        b.ret(ir::kNoReg);
    }
    Dominators doms(Cfg(prog.proc(0)));
    EXPECT_FALSE(doms.reachable(4));
    EXPECT_TRUE(doms.reachable(3));
}

TEST(Dominators, RpoStartsAtEntry)
{
    Program prog = makeLoop();
    Dominators doms(Cfg(prog.proc(0)));
    ASSERT_FALSE(doms.rpo().empty());
    EXPECT_EQ(doms.rpo().front(), 0u);
}

TEST(Loops, DetectsBackEdgeAndHeader)
{
    Program prog = makeLoop();
    const Cfg cfg(prog.proc(0));
    Dominators doms(cfg);
    LoopInfo loops(cfg, doms);
    EXPECT_TRUE(loops.isBackEdge(2, 1));
    EXPECT_FALSE(loops.isBackEdge(1, 2));
    EXPECT_FALSE(loops.isBackEdge(0, 1));
    EXPECT_FALSE(loops.isBackEdge(1, 3));
    EXPECT_TRUE(loops.isLoopHeader(1));
    EXPECT_FALSE(loops.isLoopHeader(0));
    EXPECT_FALSE(loops.isLoopHeader(2));
    EXPECT_FALSE(loops.isLoopHeader(3));
}

TEST(Loops, DiamondHasNoLoops)
{
    Program prog = makeDiamond();
    const Cfg cfg(prog.proc(0));
    Dominators doms(cfg);
    LoopInfo loops(cfg, doms);
    for (BlockId b = 0; b < cfg.numBlocks(); ++b) {
        EXPECT_FALSE(loops.isLoopHeader(b)) << b;
        for (BlockId s : cfg.succs(b))
            EXPECT_FALSE(loops.isBackEdge(b, s)) << b << "->" << s;
    }
}

/**
 * Check Dominators and LoopInfo of @p proc against b's idom chain:
 * dominates(a, b) for every pair, then the back edges (a CFG edge
 * b -> s with s on b's chain) and the headers (their targets).  On
 * procedures of at most kBruteMax blocks the idoms themselves are
 * checked too: a != b dominates a reachable b exactly when b is
 * unreachable once a is removed.
 */
void
expectMatchesIdomWalk(const ir::Procedure &proc)
{
    constexpr size_t kBruteMax = 64;
    SCOPED_TRACE(proc.name);
    const Cfg cfg(proc);
    const Dominators doms(cfg);
    const LoopInfo loops(cfg, doms);
    const size_t n = proc.blocks.size();
    ASSERT_EQ(cfg.numBlocks(), n);

    std::vector<std::vector<uint8_t>> chain(n, std::vector<uint8_t>(n));
    for (BlockId b = 0; b < n; ++b) {
        if (!doms.reachable(b))
            continue;
        for (BlockId cur = b;; cur = doms.idom(cur)) {
            chain[b][cur] = 1;
            if (cur == 0)
                break;
        }
    }
    size_t wrong = 0;
    std::string first;
    for (BlockId b = 0; b < n; ++b) {
        for (BlockId a = 0; a < n; ++a) {
            if (doms.dominates(a, b) != bool(chain[b][a]) && wrong++ == 0)
                first = strfmt("dominates(%u, %u)", a, b);
        }
    }
    EXPECT_EQ(wrong, 0u) << "first: " << first;

    std::vector<uint8_t> header(n);
    std::vector<BlockId> succs, back_succs;
    for (BlockId b = 0; b < n; ++b) {
        ir::successorsOf(proc.blocks[b], succs);
        for (BlockId s : succs) {
            const bool back = chain[b][s] != 0;
            EXPECT_EQ(loops.isBackEdge(b, s), back) << b << "->" << s;
            header[s] |= back;
            // A reversed edge is a back edge only if it is an edge.
            ir::successorsOf(proc.blocks[s], back_succs);
            if (std::find(back_succs.begin(), back_succs.end(), b) ==
                back_succs.end()) {
                EXPECT_FALSE(loops.isBackEdge(s, b)) << s << "->" << b;
            }
        }
    }
    for (BlockId b = 0; b < n; ++b)
        EXPECT_EQ(loops.isLoopHeader(b), header[b] != 0) << b;

    if (n > kBruteMax)
        return;
    auto reachable_without = [&](BlockId removed) {
        std::vector<uint8_t> seen(n);
        std::vector<BlockId> work;
        if (removed != 0) {
            seen[0] = 1;
            work.push_back(0);
        }
        while (!work.empty()) {
            const BlockId b = work.back();
            work.pop_back();
            for (BlockId s : cfg.succs(b)) {
                if (s != removed && !seen[s]) {
                    seen[s] = 1;
                    work.push_back(s);
                }
            }
        }
        return seen;
    };
    const std::vector<uint8_t> live = reachable_without(BlockId(n));
    for (BlockId a = 0; a < n; ++a) {
        const std::vector<uint8_t> without = reachable_without(a);
        for (BlockId b = 0; b < n; ++b) {
            const bool want = live[a] && live[b] && (a == b || !without[b]);
            EXPECT_EQ(doms.dominates(a, b), want) << a << " dom " << b;
        }
    }
}

TEST(DominatorsEquivalence, EveryWorkloadProcedure)
{
    size_t procs = 0;
    for (const workloads::Workload &w : workloads::standardBenchmarks()) {
        SCOPED_TRACE(w.name);
        for (const ir::Procedure &p : w.program.procs) {
            expectMatchesIdomWalk(p);
            ++procs;
        }
    }
    EXPECT_GT(procs, 14u);
}

TEST(DominatorsEquivalence, GeneratedPrograms)
{
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        gen::GenSpec spec;
        spec.seed = seed;
        const gen::Workload w = gen::generate(spec);
        SCOPED_TRACE(w.name);
        for (const ir::Procedure &p : w.program.procs)
            expectMatchesIdomWalk(p);
    }
}

/** 0 -> (1|2), 1 -> (2|3), 2 -> 1: the cycle {1, 2} has two entries. */
Program
makeIrreducible()
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const BlockId one = b.newBlock();
    const BlockId two = b.newBlock();
    const BlockId exit_b = b.newBlock();
    b.brnz(b.param(0), one, two);
    b.setBlock(one);
    b.brnz(b.param(0), two, exit_b);
    b.setBlock(two);
    b.jmp(one);
    b.setBlock(exit_b);
    b.ret(b.param(0));
    return prog;
}

TEST(DominatorsEquivalence, IrreducibleCycleHasNoBackEdge)
{
    Program prog = makeIrreducible();
    const Cfg cfg(prog.proc(0));
    const Dominators doms(cfg);
    const LoopInfo loops(cfg, doms);
    EXPECT_EQ(doms.idom(1), 0u);
    EXPECT_EQ(doms.idom(2), 0u);
    EXPECT_EQ(doms.idom(3), 1u);
    EXPECT_TRUE(doms.dominates(1, 3));
    EXPECT_FALSE(doms.dominates(2, 3));
    EXPECT_FALSE(doms.dominates(1, 2));
    EXPECT_FALSE(doms.dominates(2, 1));
    // Neither cycle edge has a target that dominates its source.
    EXPECT_FALSE(loops.isBackEdge(1, 2));
    EXPECT_FALSE(loops.isBackEdge(2, 1));
    EXPECT_FALSE(loops.isLoopHeader(1));
    EXPECT_FALSE(loops.isLoopHeader(2));
    expectMatchesIdomWalk(prog.proc(0));
}

TEST(DominatorsEquivalence, UnreachableBlockDominatesNothing)
{
    // The diamond plus a dead block 4 that loops on itself and jumps
    // into the join.
    Program prog = makeDiamond();
    {
        IrBuilder b(prog);
        b.setProc(0);
        const BlockId dead = b.newBlock();
        b.setBlock(dead);
        b.brnz(b.param(0), dead, 3);
    }
    const Cfg cfg(prog.proc(0));
    const Dominators doms(cfg);
    const LoopInfo loops(cfg, doms);
    ASSERT_FALSE(doms.reachable(4));
    for (BlockId b = 0; b < 4; ++b) {
        EXPECT_FALSE(doms.dominates(4, b)) << b;
        EXPECT_FALSE(doms.dominates(b, 4)) << b;
    }
    EXPECT_FALSE(doms.dominates(4, 4));
    EXPECT_TRUE(doms.dominates(0, 3));
    EXPECT_FALSE(loops.isBackEdge(4, 4));
    EXPECT_FALSE(loops.isBackEdge(4, 3));
    EXPECT_FALSE(loops.isLoopHeader(4));
    expectMatchesIdomWalk(prog.proc(0));
}

TEST(Liveness, StraightLine)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const RegId x = b.param(0);
    const RegId t = b.addi(x, 1);
    b.ret(t);
    Liveness live(prog.proc(0));
    EXPECT_TRUE(live.liveIn(0).test(x));
    EXPECT_FALSE(live.liveIn(0).test(t)); // defined before use
}

TEST(Liveness, AcrossBlocks)
{
    Program prog = makeDiamond(); // join returns param(0)
    Liveness live(prog.proc(0));
    // param 0 is live into every block on the way to the ret.
    EXPECT_TRUE(live.liveIn(0).test(0));
    EXPECT_TRUE(live.liveIn(1).test(0));
    EXPECT_TRUE(live.liveIn(2).test(0));
    EXPECT_TRUE(live.liveIn(3).test(0));
    EXPECT_TRUE(live.liveOut(1).test(0));
}

TEST(Liveness, LoopCarried)
{
    Program prog = makeLoop();
    Liveness live(prog.proc(0));
    const RegId i = 1; // first fresh reg after the one param
    EXPECT_TRUE(live.liveIn(1).test(i));  // head reads i
    EXPECT_TRUE(live.liveOut(2).test(i)); // body feeds it back
    EXPECT_TRUE(live.liveIn(3).test(i));  // exit returns it
}

TEST(Liveness, DeadAfterLastUse)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    const BlockId next = b.newBlock();
    const RegId t = b.ldi(5);
    b.emitValue(t);
    b.jmp(next);
    b.setBlock(next);
    const RegId u = b.ldi(6);
    b.ret(u);
    Liveness live(prog.proc(0));
    EXPECT_FALSE(live.liveIn(1).test(t));
    EXPECT_FALSE(live.liveOut(0).test(t));
}

TEST(Liveness, NumRegsSnapshot)
{
    Program prog = makeLoop();
    Liveness live(prog.proc(0));
    EXPECT_EQ(live.numRegs(), prog.proc(0).numRegs);
    prog.proc(0).newReg();
    EXPECT_EQ(live.numRegs() + 1, prog.proc(0).numRegs);
}

TEST(Liveness, SideExitDefDoesNotShadow)
{
    // Block 0 is a superblock: brnz p0 -> side (mid-block exit), then
    // r = 5, ret r.  The side exit's target reads r, and the only def of
    // r in block 0 comes after the exit, so r stays live into block 0
    // (the classic use ∪ (out − def) summary would drop it).
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 2);
    const BlockId side = b.newBlock();
    const RegId p0 = b.param(0);
    const RegId r = b.param(1);
    b.setBlock(side);
    b.ret(r);
    auto &instrs = prog.proc(0).blocks[0].instrs;
    instrs.push_back(ir::makeBr(Opcode::BrNz, p0, side, ir::kNoBlock));
    instrs.push_back(ir::makeLdi(r, 5));
    instrs.push_back(ir::makeRet(r));

    Liveness live(prog.proc(0));
    EXPECT_TRUE(live.liveIn(side).test(r));
    EXPECT_TRUE(live.liveIn(0).test(r));
    EXPECT_TRUE(live.liveIn(0).test(p0));
    EXPECT_TRUE(live.liveOut(0).test(r));

    // Defined before the exit instead, r is no longer live in.
    std::swap(instrs[0], instrs[1]);
    Liveness moved(prog.proc(0));
    EXPECT_FALSE(moved.liveIn(0).test(r));
    EXPECT_TRUE(moved.liveOut(0).test(r));
}

TEST(Liveness, TerminatorUnionsBothTargets)
{
    // brnz p0 -> left | right, where left reads a and right reads c:
    // both are live out of and into the branching block, and b, read by
    // neither target, is live nowhere.
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 4);
    const BlockId left = b.newBlock();
    const BlockId right = b.newBlock();
    const RegId p0 = b.param(0);
    const RegId ra = b.param(1);
    const RegId rb = b.param(2);
    const RegId rc = b.param(3);
    b.brnz(p0, left, right);
    b.setBlock(left);
    b.ret(ra);
    b.setBlock(right);
    b.ret(rc);

    Liveness live(prog.proc(0));
    for (const RegId r : {ra, rc}) {
        EXPECT_TRUE(live.liveOut(0).test(r)) << r;
        EXPECT_TRUE(live.liveIn(0).test(r)) << r;
    }
    EXPECT_FALSE(live.liveOut(0).test(rb));
    EXPECT_FALSE(live.liveIn(0).test(rb));
    EXPECT_TRUE(live.liveIn(left).test(ra));
    EXPECT_FALSE(live.liveIn(left).test(rc));
    EXPECT_TRUE(live.liveIn(right).test(rc));
    EXPECT_FALSE(live.liveIn(right).test(ra));
}

TEST(Liveness, UnreachableBlockIsSolvedToo)
{
    // Block 0 returns p0; blocks 1 -> 2 are unreachable, and 2 reads
    // p1.  The worklist starts with every block queued, so p1 is live
    // into both unreachable blocks and still not into the entry.
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 2);
    const BlockId dead = b.newBlock();
    const BlockId tail = b.newBlock();
    const RegId p0 = b.param(0);
    const RegId p1 = b.param(1);
    b.ret(p0);
    b.setBlock(dead);
    b.jmp(tail);
    b.setBlock(tail);
    b.ret(p1);

    Liveness live(prog.proc(0));
    EXPECT_TRUE(live.liveIn(tail).test(p1));
    EXPECT_TRUE(live.liveIn(dead).test(p1));
    EXPECT_TRUE(live.liveOut(dead).test(p1));
    EXPECT_FALSE(live.liveIn(0).test(p1));
    EXPECT_TRUE(live.liveIn(0).test(p0));
    // tail grows (dead is already queued), dead grows (no preds), 0.
    EXPECT_EQ(live.visits(), 3u);
}

TEST(Liveness, SelfLoopFeedsItsOwnLiveOut)
{
    // 0: jmp 1;  1: t = q + 1; brnz p0 -> 1 | 2;  2: ret p1.
    // q is read only in block 1, so only the self edge makes it live
    // out of block 1; it is not live into the loop's exit.
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 3);
    const BlockId loop = b.newBlock();
    const BlockId exit = b.newBlock();
    const RegId p0 = b.param(0);
    const RegId p1 = b.param(1);
    const RegId q = b.param(2);
    b.jmp(loop);
    b.setBlock(loop);
    const RegId t = b.addi(q, 1);
    b.brnz(p0, loop, exit);
    b.setBlock(exit);
    b.ret(p1);

    Liveness live(prog.proc(0));
    for (const RegId r : {p0, p1, q}) {
        EXPECT_TRUE(live.liveIn(loop).test(r)) << r;
        EXPECT_TRUE(live.liveOut(loop).test(r)) << r;
        EXPECT_TRUE(live.liveIn(0).test(r)) << r;
    }
    EXPECT_FALSE(live.liveIn(exit).test(q));
    EXPECT_FALSE(live.liveOut(loop).test(t));
    // exit, loop (grows: re-queues itself), 0, loop again (no change).
    EXPECT_EQ(live.visits(), 4u);
}

TEST(Liveness, TwoTargetsOnTheSameBlock)
{
    // brnz p0 -> 1 | 1: one successor reached two ways.
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 3);
    const BlockId next = b.newBlock();
    const RegId p0 = b.param(0);
    const RegId p1 = b.param(1);
    const RegId p2 = b.param(2);
    b.brnz(p0, next, next);
    b.setBlock(next);
    b.ret(p1);

    Liveness live(prog.proc(0));
    EXPECT_TRUE(live.liveIn(0).test(p0));
    EXPECT_TRUE(live.liveIn(0).test(p1));
    EXPECT_FALSE(live.liveIn(0).test(p2));
    EXPECT_TRUE(live.liveOut(0).test(p1));
    EXPECT_FALSE(live.liveOut(0).test(p0));
    EXPECT_TRUE(live.liveOut(0) == live.liveIn(next));
    EXPECT_EQ(live.visits(), 2u);
}

TEST(Liveness, ZeroRegistersHaveEmptyRows)
{
    // No parameters and no registers: every row is zero words wide.
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    const BlockId next = b.newBlock();
    b.jmp(next);
    b.setBlock(next);
    b.ret();

    Liveness live(prog.proc(0));
    EXPECT_EQ(live.numRegs(), 0u);
    for (const BlockId blk : {BlockId(0), next}) {
        EXPECT_EQ(live.liveIn(blk).size(), 0u);
        EXPECT_EQ(live.liveIn(blk).numWords(), 0u);
        EXPECT_EQ(live.liveOut(blk).numWords(), 0u);
        size_t members = 0;
        live.liveIn(blk).forEachSet([&](size_t) { ++members; });
        EXPECT_EQ(members, 0u);
    }
    EXPECT_TRUE(live.liveIn(0) == live.liveOut(next));
    EXPECT_EQ(live.visits(), 2u);
}

TEST(CallGraph, StaticEdgesAndWeights)
{
    Program prog;
    IrBuilder b(prog);
    const ProcId callee = b.newProc("f", 0);
    b.ret(b.ldi(1));
    const ProcId main = b.newProc("main", 0);
    const RegId v = b.callValue(callee, {});
    b.ret(v);
    prog.mainProc = main;

    CallGraph cg(prog);
    EXPECT_EQ(cg.numProcs(), 2u);
    auto edges = cg.edges();
    ASSERT_EQ(edges.size(), 1u);
    EXPECT_EQ(edges[0].caller, main);
    EXPECT_EQ(edges[0].callee, callee);
    EXPECT_EQ(edges[0].weight, 0u);

    cg.addWeight(main, callee, 42);
    cg.addWeight(main, callee, 8);
    edges = cg.edges();
    EXPECT_EQ(edges[0].weight, 50u);
}

} // namespace
} // namespace pathsched::analysis
