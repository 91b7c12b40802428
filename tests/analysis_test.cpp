/**
 * @file
 * Unit tests for dominators, loop detection, liveness and the call
 * graph.
 */

#include <gtest/gtest.h>

#include "analysis/callgraph.hpp"
#include "analysis/dominators.hpp"
#include "analysis/liveness.hpp"
#include "analysis/loops.hpp"
#include "ir/builder.hpp"

namespace pathsched::analysis {
namespace {

using ir::BlockId;
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
    Dominators doms(prog.proc(0));
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
    Dominators doms(prog.proc(0));
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
    Dominators doms(prog.proc(0));
    EXPECT_FALSE(doms.reachable(4));
    EXPECT_TRUE(doms.reachable(3));
}

TEST(Dominators, RpoStartsAtEntry)
{
    Program prog = makeLoop();
    Dominators doms(prog.proc(0));
    ASSERT_FALSE(doms.rpo().empty());
    EXPECT_EQ(doms.rpo().front(), 0u);
}

TEST(Loops, DetectsBackEdgeAndHeader)
{
    Program prog = makeLoop();
    Dominators doms(prog.proc(0));
    LoopInfo loops(prog.proc(0), doms);
    EXPECT_TRUE(loops.isBackEdge(2, 1));
    EXPECT_FALSE(loops.isBackEdge(1, 2));
    EXPECT_FALSE(loops.isBackEdge(0, 1));
    EXPECT_TRUE(loops.isLoopHeader(1));
    EXPECT_FALSE(loops.isLoopHeader(2));
    ASSERT_EQ(loops.loops().size(), 1u);
    EXPECT_EQ(loops.loops()[0].header, 1u);
    // Natural loop body: header and the latch block.
    EXPECT_EQ(loops.loops()[0].body, (std::vector<BlockId>{1, 2}));
}

TEST(Loops, DiamondHasNoLoops)
{
    Program prog = makeDiamond();
    Dominators doms(prog.proc(0));
    LoopInfo loops(prog.proc(0), doms);
    EXPECT_TRUE(loops.loops().empty());
    EXPECT_FALSE(loops.isLoopHeader(0));
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
