/**
 * @file
 * Direct structural tests of the dependence graph: every edge class
 * (RAW, WAR, WAW, memory with disambiguation, control chain, exit
 * constraints) on hand-built instruction sequences.
 */

#include <gtest/gtest.h>

#include "analysis/liveness.hpp"
#include "ir/builder.hpp"
#include "machine/machine.hpp"
#include "sched/depgraph.hpp"
#include "sched/exit_live.hpp"

namespace pathsched::sched {
namespace {

using ir::BlockId;
using ir::Instruction;
using ir::IrBuilder;
using ir::Opcode;
using ir::Program;
using ir::RegId;

/** Find the edge u -> v, returning its latency or -1 if absent. */
int
edgeLatency(const DepGraph &g, uint32_t u, uint32_t v)
{
    for (const auto &e : g.succs(u)) {
        if (e.to == v)
            return int(e.latency);
    }
    return -1;
}

/** Build a graph for a block with no exits beyond its terminator. */
DepGraph
graphFor(const Program &prog, BlockId b = 0)
{
    const auto &proc = prog.proc(0);
    analysis::Liveness live(proc);
    std::vector<ExitInfo> exits;
    collectExits(proc, b, live, exits);
    return DepGraph(proc.blocks[b].instrs, exits,
                    machine::MachineModel::unitLatency());
}

TEST(DepGraph, RawEdgeCarriesProducerLatency)
{
    Program prog;
    prog.memWords = 8;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    const RegId base = b.ldi(0);     // 0
    const RegId v = b.ld(base, 0);   // 1: RAW on base
    const RegId w = b.addi(v, 1);    // 2: RAW on v
    b.ret(w);                        // 3

    const auto &proc = prog.proc(0);
    analysis::Liveness live(proc);
    std::vector<ExitInfo> exits;
    collectExits(proc, 0, live, exits);
    {
        DepGraph g(proc.blocks[0].instrs, exits,
                   machine::MachineModel::unitLatency());
        EXPECT_EQ(edgeLatency(g, 0, 1), 1);
        EXPECT_EQ(edgeLatency(g, 1, 2), 1);
        EXPECT_EQ(edgeLatency(g, 2, 3), 1); // ret reads w
    }
    {
        DepGraph g(proc.blocks[0].instrs, exits,
                   machine::MachineModel::realisticLatency());
        EXPECT_EQ(edgeLatency(g, 1, 2), 3); // load latency
    }
}

TEST(DepGraph, WarAllowsSameCycleOrderedIssue)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const RegId x = b.param(0);
    b.emitValue(x);        // 0: reads x
    b.ldiTo(x, 9);         // 1: writes x -> WAR with 0
    b.emitValue(x);        // 2
    b.ret(ir::kNoReg);     // 3

    const DepGraph g = graphFor(prog);
    EXPECT_EQ(edgeLatency(g, 0, 1), 0); // WAR: zero-latency, ordered
}

TEST(DepGraph, WawForcesLaterCycle)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    const RegId r = b.freshReg();
    b.ldiTo(r, 1); // 0
    b.ldiTo(r, 2); // 1: WAW with 0
    b.ret(r);      // 2

    const DepGraph g = graphFor(prog);
    EXPECT_EQ(edgeLatency(g, 0, 1), 1);
}

TEST(DepGraph, StoreLoadSameBaseDifferentOffsetDisambiguated)
{
    Program prog;
    prog.memWords = 8;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    const RegId base = b.ldi(0);   // 0
    const RegId one = b.ldi(1);    // 1
    b.st(base, 2, one);            // 2: store [base+2]
    const RegId v = b.ld(base, 3); // 3: load [base+3] — provably disjoint
    const RegId w = b.ld(base, 2); // 4: load [base+2] — must wait
    b.ret(b.add(v, w));            // 5, 6

    const DepGraph g = graphFor(prog);
    EXPECT_EQ(edgeLatency(g, 2, 3), -1); // no edge: different words
    EXPECT_EQ(edgeLatency(g, 2, 4), 1);  // store -> aliasing load
}

TEST(DepGraph, RedefinedBaseBlocksDisambiguation)
{
    Program prog;
    prog.memWords = 16;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    const RegId base = b.freshReg();
    b.ldiTo(base, 0);              // 0
    const RegId one = b.ldi(1);    // 1
    b.st(base, 2, one);            // 2
    b.ldiTo(base, 4);              // 3: base changes version
    const RegId v = b.ld(base, 3); // 4: offset differs but base moved
    b.ret(v);                      // 5

    const DepGraph g = graphFor(prog);
    // Same register, different def version: must stay conservative.
    EXPECT_EQ(edgeLatency(g, 2, 4), 1);
}

TEST(DepGraph, LoadsCommute)
{
    Program prog;
    prog.memWords = 8;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    const RegId base = b.ldi(0);
    const RegId v = b.ld(base, 0); // 1
    const RegId w = b.ld(base, 0); // 2: same address, both reads
    b.ret(b.add(v, w));

    const DepGraph g = graphFor(prog);
    EXPECT_EQ(edgeLatency(g, 1, 2), -1);
}

TEST(DepGraph, CallsActAsMemoryBarriers)
{
    Program prog;
    prog.memWords = 8;
    IrBuilder b(prog);
    const auto callee = b.newProc("f", 0);
    b.ret(b.ldi(0));
    const auto main = b.newProc("main", 0);
    const RegId base = b.ldi(0);   // 0
    const RegId v = b.ld(base, 1); // 1
    b.callVoid(callee, {});        // 2
    const RegId w = b.ld(base, 1); // 3: must not cross the call
    b.ret(b.add(v, w));            // 4, 5
    prog.mainProc = main;

    const auto &proc = prog.proc(main);
    analysis::Liveness live(proc);
    std::vector<ExitInfo> exits;
    collectExits(proc, 0, live, exits);
    DepGraph g(proc.blocks[0].instrs, exits,
               machine::MachineModel::unitLatency());
    EXPECT_EQ(edgeLatency(g, 1, 2), 0); // load ordered before the call
    EXPECT_EQ(edgeLatency(g, 2, 3), 1); // call clobbers memory
}

TEST(DepGraph, FrameOpsConflictOnlyOnTheirSlot)
{
    // A frame slot belongs to the activation: no data access, call or
    // emit reaches it, and frame ops on different slots commute.
    Program prog;
    prog.memWords = 8;
    IrBuilder b(prog);
    const auto callee = b.newProc("f", 0);
    b.ret(b.ldi(0));
    const auto main = b.newProc("main", 0);
    prog.proc(main).frameSlots = 2;
    auto push = [&](Instruction ins) {
        prog.proc(main).blocks[0].instrs.push_back(std::move(ins));
    };
    const RegId base = b.ldi(0);                          // 0
    const RegId x = b.ldi(7);                             // 1
    push(ir::makeStFrame(0, x));                          // 2
    b.st(base, 0, x);                                     // 3
    b.callVoid(callee, {});                               // 4
    const RegId y = prog.proc(main).newReg();
    push(ir::makeLdFrame(y, 1));                          // 5
    const RegId z = prog.proc(main).newReg();
    push(ir::makeLdFrame(z, 0));                          // 6
    push(ir::makeStFrame(0, y));                          // 7
    b.ret(b.add(y, z));                                   // 8, 9
    prog.mainProc = main;

    const auto &proc = prog.proc(main);
    analysis::Liveness live(proc);
    std::vector<ExitInfo> exits;
    collectExits(proc, 0, live, exits);
    DepGraph g(proc.blocks[0].instrs, exits,
               machine::MachineModel::unitLatency());
    EXPECT_EQ(edgeLatency(g, 2, 3), -1); // data store: no conflict
    EXPECT_EQ(edgeLatency(g, 2, 4), -1); // the call cannot see it
    EXPECT_EQ(edgeLatency(g, 4, 6), -1);
    EXPECT_EQ(edgeLatency(g, 2, 5), -1); // another slot
    EXPECT_EQ(edgeLatency(g, 2, 6), 1);  // store -> load, same slot
    EXPECT_EQ(edgeLatency(g, 6, 7), 0);  // load -> store, same slot
    EXPECT_EQ(edgeLatency(g, 2, 7), 1);  // store -> store, same slot
    EXPECT_EQ(edgeLatency(g, 5, 7), 1);  // the stored value's RAW
}

TEST(DepGraph, ControlOpsChainInOrder)
{
    Program prog;
    IrBuilder b(prog);
    const auto callee = b.newProc("f", 0);
    b.ret(b.ldi(0));
    const auto main = b.newProc("main", 0);
    b.callVoid(callee, {}); // 0
    b.callVoid(callee, {}); // 1
    b.ret(ir::kNoReg);      // 2
    prog.mainProc = main;

    const auto &proc = prog.proc(main);
    analysis::Liveness live(proc);
    std::vector<ExitInfo> exits;
    collectExits(proc, 0, live, exits);
    DepGraph g(proc.blocks[0].instrs, exits,
               machine::MachineModel::unitLatency());
    EXPECT_EQ(edgeLatency(g, 0, 1), 1);
    EXPECT_EQ(edgeLatency(g, 1, 2), 1);
}

TEST(DepGraph, ExitPinsLiveDestinations)
{
    // Instruction after an exit writing a register live at the exit
    // target must stay strictly below the exit.
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const BlockId off = b.newBlock();
    const RegId r = b.freshReg();
    b.ldiTo(r, 1); // 0
    {
        Instruction exit_br =
            ir::makeBr(Opcode::BrNz, b.param(0), off, ir::kNoBlock);
        prog.proc(0).blocks[0].instrs.push_back(exit_br); // 1
    }
    b.ldiTo(r, 2); // 2: r is live at `off`
    b.ret(r);      // 3
    b.setBlock(off);
    b.emitValue(r);
    b.ret(r);

    const DepGraph g = graphFor(prog);
    EXPECT_EQ(edgeLatency(g, 1, 2), 1); // pinned below the exit
}

TEST(DepGraph, ExitDoesNotPinDeadDestinations)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const BlockId off = b.newBlock();
    {
        Instruction exit_br =
            ir::makeBr(Opcode::BrNz, b.param(0), off, ir::kNoBlock);
        prog.proc(0).blocks[0].instrs.push_back(exit_br); // 0
    }
    const RegId t = b.ldi(7); // 1: dead at `off`
    b.ret(t);                 // 2
    b.setBlock(off);
    b.ret(b.ldi(0));

    const DepGraph g = graphFor(prog);
    EXPECT_EQ(edgeLatency(g, 0, 1), -1); // free to speculate upward
}

TEST(DepGraph, StoresPinnedOnBothSidesOfExit)
{
    Program prog;
    prog.memWords = 8;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const BlockId off = b.newBlock();
    const RegId base = b.ldi(0); // 0
    b.st(base, 0, base);         // 1: before the exit
    {
        Instruction exit_br =
            ir::makeBr(Opcode::BrNz, b.param(0), off, ir::kNoBlock);
        prog.proc(0).blocks[0].instrs.push_back(exit_br); // 2
    }
    b.st(base, 1, base); // 3: after the exit
    b.ret(ir::kNoReg);   // 4
    b.setBlock(off);
    b.ret(ir::kNoReg);

    const DepGraph g = graphFor(prog);
    EXPECT_EQ(edgeLatency(g, 1, 2), 0); // store may share the cycle,
                                        // but issues before the exit
    EXPECT_EQ(edgeLatency(g, 2, 3), 1); // never above the exit
}

TEST(DepGraph, EverythingReachesTheTerminator)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    b.ldi(1);
    b.ldi(2);
    b.ldi(3);
    b.ret(ir::kNoReg); // index 3

    const DepGraph g = graphFor(prog);
    for (uint32_t i = 0; i < 3; ++i)
        EXPECT_GE(edgeLatency(g, i, 3), 0) << i;
}

TEST(DepGraph, HeightsDecreaseAlongChains)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    RegId v = b.param(0);
    v = b.addi(v, 1); // 0
    v = b.addi(v, 1); // 1
    v = b.addi(v, 1); // 2
    b.ret(v);         // 3

    const DepGraph g = graphFor(prog);
    EXPECT_GT(g.height(0), g.height(1));
    EXPECT_GT(g.height(1), g.height(2));
    EXPECT_GT(g.height(2), g.height(3));
}

} // namespace
} // namespace pathsched::sched
