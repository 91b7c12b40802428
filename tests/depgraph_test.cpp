/**
 * @file
 * Direct structural tests of the dependence graph: every edge class
 * (RAW, WAR, WAW, memory with disambiguation, control chain, exit
 * constraints) on hand-built instruction sequences, and the bit matrix
 * against the edge-list graph it replaced, on every block of the
 * workloads and of generated programs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/liveness.hpp"
#include "ir/builder.hpp"
#include "machine/machine.hpp"
#include "pipeline/pipeline.hpp"
#include "sched/depgraph.hpp"
#include "sched/exit_live.hpp"
#include "sched/local_opt.hpp"
#include "sched/renamer.hpp"
#include "testutil.hpp"

namespace pstest = pathsched::testing;

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
    int latency = -1;
    g.forEachSucc(u, [&](uint32_t to, uint32_t lat) {
        if (to == v)
            latency = int(lat);
    });
    return latency;
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

/**
 * The edge-list dependence graph DepGraph used before its bit matrix:
 * every constraint is a separate edge (so a pair may have several),
 * gathered in order and laid out as CSR, stable per source.  Kept as
 * the oracle for the matrix.
 */
struct EdgeListGraph
{
    struct Edge
    {
        uint32_t to;
        uint32_t latency;
    };
    std::vector<uint32_t> first;
    std::vector<Edge> edges;
    std::vector<uint32_t> numPreds; ///< edges in, parallel ones included
    std::vector<uint32_t> height;

    EdgeListGraph(const std::vector<Instruction> &instrs,
                  const std::vector<ExitInfo> &exits,
                  const machine::MachineModel &mm)
    {
        constexpr uint32_t kNone = UINT32_MAX;
        struct MemRef
        {
            uint32_t idx;
            bool isLoad, isStore, isBarrier;
            RegId base = ir::kNoReg;
            int64_t offset = 0;
            uint32_t baseVersion = kNone;
        };
        auto pinned = [](Opcode op) {
            return op == Opcode::St || op == Opcode::StFrame ||
                   op == Opcode::Emit;
        };
        std::vector<std::tuple<uint32_t, uint32_t, uint32_t>> raw;
        auto add_edge = [&raw](uint32_t from, uint32_t to, uint32_t lat) {
            raw.emplace_back(from, to, lat);
        };
        std::map<RegId, uint32_t> last_def;
        std::map<RegId, std::vector<uint32_t>> readers; // since last def
        std::vector<MemRef> mem_refs;
        std::vector<std::tuple<uint32_t, Opcode, int64_t>> frame_refs;
        std::vector<RegId> srcs;
        uint32_t last_control = kNone;
        size_t exit_pos = 0;
        const uint32_t n = uint32_t(instrs.size());
        for (uint32_t i = 0; i < n; ++i) {
            const Instruction &ins = instrs[i];
            const uint32_t lat = mm.latencyOf(ins.op);
            ins.sources(srcs);
            for (RegId r : srcs) {
                if (auto it = last_def.find(r); it != last_def.end())
                    add_edge(it->second, i,
                             mm.latencyOf(instrs[it->second].op));
            }
            if (ins.hasDst()) {
                for (uint32_t k : readers[ins.dst]) {
                    if (k != i)
                        add_edge(k, i, 0);
                }
                readers[ins.dst].clear();
                if (auto it = last_def.find(ins.dst); it != last_def.end()) {
                    const uint32_t ulat = mm.latencyOf(instrs[it->second].op);
                    add_edge(it->second, i, ulat > lat ? ulat - lat + 1 : 1);
                }
                last_def[ins.dst] = i;
            }
            for (RegId r : srcs)
                readers[r].push_back(i);

            const bool mem_read = ins.isLoad();
            const bool mem_write = ins.op == Opcode::St;
            const bool mem_barrier =
                ins.op == Opcode::Call || ins.op == Opcode::Emit;
            if (ins.isFrameOp()) {
                for (const auto &[prev, prev_op, slot] : frame_refs) {
                    if (slot == ins.imm && (prev_op == Opcode::StFrame ||
                                            ins.op == Opcode::StFrame))
                        add_edge(prev, i,
                                 prev_op == Opcode::StFrame ? 1 : 0);
                }
                frame_refs.emplace_back(i, ins.op, ins.imm);
            } else if (mem_read || mem_write || mem_barrier) {
                MemRef ref{i, mem_read, mem_write, mem_barrier};
                if (mem_read || mem_write) {
                    ref.base = ins.src1;
                    ref.offset = ins.imm;
                    if (auto it = last_def.find(ins.src1);
                        it != last_def.end())
                        ref.baseVersion = it->second;
                }
                for (const MemRef &prev : mem_refs) {
                    if (prev.isLoad && ref.isLoad)
                        continue;
                    if (!prev.isBarrier && !ref.isBarrier &&
                        prev.base == ref.base &&
                        prev.baseVersion == ref.baseVersion &&
                        prev.offset != ref.offset)
                        continue;
                    add_edge(prev.idx, i,
                             (prev.isStore || prev.isBarrier) ? 1 : 0);
                }
                mem_refs.push_back(ref);
            }

            if (ins.isControlSlot()) {
                if (last_control != kNone)
                    add_edge(last_control, i, 1);
                last_control = i;
            }

            const bool pinned_effect = pinned(ins.op);
            for (size_t e = 0; e < exit_pos; ++e) {
                const ExitInfo &x = exits[e];
                if (pinned_effect || (ins.hasDst() && x.liveAt(ins.dst)))
                    add_edge(x.instrIdx, i, 1);
            }
            if (exit_pos < exits.size() && exits[exit_pos].instrIdx == i) {
                const ExitInfo &x = exits[exit_pos++];
                for (uint32_t j = 0; j < i; ++j) {
                    const Instruction &prev = instrs[j];
                    if (pinned(prev.op)) {
                        add_edge(j, i, 0);
                    } else if (prev.hasDst() && x.liveAt(prev.dst)) {
                        const uint32_t plat = mm.latencyOf(prev.op);
                        add_edge(j, i, plat > 0 ? plat - 1 : 0);
                    }
                }
            }
        }

        // A 0-latency edge to the terminator from every node without
        // an edge to it.
        if (n > 0) {
            std::vector<uint8_t> has_term_edge(n, 0);
            for (const auto &[from, to, lat] : raw) {
                if (to == n - 1)
                    has_term_edge[from] = 1;
            }
            for (uint32_t i = 0; i + 1 < n; ++i) {
                if (!has_term_edge[i])
                    add_edge(i, n - 1, 0);
            }
        }

        // CSR: count, prefix-sum, place (stable per source).
        first.assign(size_t(n) + 1, 0);
        numPreds.assign(n, 0);
        for (const auto &[from, to, lat] : raw) {
            ++first[from + 1];
            ++numPreds[to];
        }
        for (uint32_t i = 0; i < n; ++i)
            first[i + 1] += first[i];
        std::vector<uint32_t> next(first.begin(), first.end() - 1);
        edges.resize(raw.size());
        for (const auto &[from, to, lat] : raw)
            edges[next[from]++] = {to, lat};

        height.assign(n, 0);
        for (uint32_t i = n; i-- > 0;) {
            uint32_t h = mm.latencyOf(instrs[i].op);
            for (uint32_t k = first[i]; k < first[i + 1]; ++k)
                h = std::max(h, edges[k].latency + height[edges[k].to]);
            height[i] = h;
        }
    }
};

/**
 * Compare the matrix for every block of @p proc with the edge-list
 * oracle: the same dependent pairs, each with the largest latency of
 * its parallel edges, the same distinct-predecessor counts and the
 * same heights.  Returns the pairs that had parallel edges.
 */
uint64_t
expectMatrixMatchesEdgeList(const ir::Procedure &proc,
                            const machine::MachineModel &mm,
                            const std::string &label)
{
    const analysis::Liveness live(proc);
    std::vector<ExitInfo> exits;
    DepGraph g; // rebuilt block after block, as the scheduler does
    uint64_t merged = 0;
    for (BlockId b = 0; b < proc.blocks.size(); ++b) {
        const auto &instrs = proc.blocks[b].instrs;
        if (instrs.empty())
            continue;
        collectExits(proc, b, live, exits);
        const EdgeListGraph want(instrs, exits, mm);
        g.build(instrs, exits, mm);
        const std::string where =
            label + " " + proc.name + " block " + std::to_string(b);
        const uint32_t n = uint32_t(instrs.size());
        EXPECT_EQ(g.size(), n) << where;
        if (g.size() != n)
            continue;
        std::vector<uint32_t> preds(n, 0);
        for (uint32_t u = 0; u < n; ++u) {
            std::map<uint32_t, uint32_t> pairs; // v -> largest latency
            for (uint32_t k = want.first[u]; k < want.first[u + 1]; ++k) {
                const auto &e = want.edges[k];
                auto [it, fresh] = pairs.emplace(e.to, e.latency);
                if (!fresh) {
                    it->second = std::max(it->second, e.latency);
                    ++merged;
                }
            }
            std::vector<std::pair<uint32_t, uint32_t>> got;
            g.forEachSucc(u, [&](uint32_t v, uint32_t lat) {
                got.emplace_back(v, lat);
            });
            const std::vector<std::pair<uint32_t, uint32_t>> want_pairs(
                pairs.begin(), pairs.end());
            EXPECT_EQ(got, want_pairs) << where << " node " << u;
            for (const auto &[v, lat] : pairs)
                ++preds[v];
        }
        for (uint32_t i = 0; i < n; ++i) {
            EXPECT_EQ(g.numPreds(i), preds[i]) << where << " node " << i;
            EXPECT_EQ(g.height(i), want.height[i]) << where << " node " << i;
        }
    }
    return merged;
}

/**
 * The bit matrix against the edge-list oracle on every block of the 14
 * workloads and of generated programs of all five branch families,
 * after each backend's formation and again after local opt and
 * renaming (the blocks the list scheduler sees), under the paper's
 * unit latencies and under realistic ones.
 */
TEST(DepGraph, MatrixMatchesEdgeList)
{
    const machine::MachineModel unit = machine::MachineModel::unitLatency();
    const machine::MachineModel real =
        machine::MachineModel::realisticLatency();
    uint64_t merged = 0;
    for (const pstest::TrainedProgram &s : pstest::workloadsAndFamilies()) {
        const Status st = pstest::forEachFormed(
            s, [&](Program &prog, ir::ProcId p, const std::string &label) {
                ir::Procedure &proc = prog.procs[p];
                proc.syncSideTables();
                merged += expectMatrixMatchesEdgeList(proc, unit, label);
                {
                    const analysis::Liveness live(proc);
                    const size_t original_blocks = proc.blocks.size();
                    for (BlockId b = 0; b < original_blocks; ++b) {
                        optimizeBlock(proc, b, live);
                        renameBlock(proc, b, live);
                    }
                }
                proc.syncSideTables();
                merged += expectMatrixMatchesEdgeList(proc, unit, label);
                merged += expectMatrixMatchesEdgeList(proc, real, label);
            });
        ASSERT_TRUE(st.ok()) << st.toString();
    }
    // Parallel edges occur, so the merge is exercised.
    EXPECT_GT(merged, 0u);
}

} // namespace
} // namespace pathsched::sched
