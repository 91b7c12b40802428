/**
 * @file
 * Tests for the compact pass: local optimization, renaming with
 * compensation stubs, the dependence graph / list scheduler (via
 * validateSchedule, and against a reference O(n^2) scan scheduler),
 * schedules pinned by hash on every workload, and differential
 * semantics preservation on random programs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "analysis/liveness.hpp"
#include "form/form.hpp"
#include "gen/generator.hpp"
#include "interp/interpreter.hpp"
#include "ir/builder.hpp"
#include "ir/verifier.hpp"
#include "machine/machine.hpp"
#include "pipeline/pipeline.hpp"
#include "profile/edge_profile.hpp"
#include "profile/path_profile.hpp"
#include "sched/compact.hpp"
#include "sched/depgraph.hpp"
#include "sched/exit_live.hpp"
#include "sched/local_opt.hpp"
#include "sched/renamer.hpp"
#include "sched/scheduler.hpp"
#include "support/hash.hpp"
#include "testutil.hpp"
#include "workloads/workloads.hpp"

namespace pstest = pathsched::testing;

namespace pathsched::sched {
namespace {

using ir::BlockId;
using ir::IrBuilder;
using ir::kNoReg;
using ir::Opcode;
using ir::Program;
using ir::RegId;

interp::RunResult
runProgram(const Program &prog, const interp::ProgramInput &in = {})
{
    interp::Interpreter interp(prog);
    return interp.run(in);
}

TEST(LocalOpt, CopyPropagationAndDce)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const RegId x = b.param(0);
    const RegId copy = b.mov(x);
    const RegId y = b.addi(copy, 1); // use of the copy
    b.ret(y);

    analysis::Liveness live(prog.proc(0));
    const LocalOptStats stats = optimizeBlock(prog.proc(0), 0, live);
    EXPECT_GE(stats.copiesPropagated, 1u);
    EXPECT_GE(stats.deadRemoved, 1u); // the mov becomes dead
    // The addi must now read the original register.
    const auto &instrs = prog.proc(0).blocks[0].instrs;
    ASSERT_EQ(instrs.size(), 2u);
    EXPECT_EQ(instrs[0].src1, x);
}

TEST(LocalOpt, ConstantsFoldIntoImmediates)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const RegId c = b.ldi(5);
    const RegId y = b.add(b.param(0), c);
    b.ret(y);

    analysis::Liveness live(prog.proc(0));
    const LocalOptStats stats = optimizeBlock(prog.proc(0), 0, live);
    EXPECT_GE(stats.constantsFolded, 1u);
    const auto &instrs = prog.proc(0).blocks[0].instrs;
    // ldi is dead after folding; add uses the immediate form.
    ASSERT_EQ(instrs.size(), 2u);
    EXPECT_TRUE(instrs[0].useImm);
    EXPECT_EQ(instrs[0].imm, 5);
}

TEST(LocalOpt, AddChainFolding)
{
    // i+1 then +1 then +1 collapses to base+k forms (what lets an
    // unrolled induction variable update in parallel).
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const RegId i0 = b.param(0);
    const RegId i1 = b.addi(i0, 1);
    const RegId i2 = b.addi(i1, 1);
    const RegId i3 = b.addi(i2, 1);
    b.emitValue(i1);
    b.emitValue(i2);
    b.emitValue(i3);
    b.ret(i3);

    analysis::Liveness live(prog.proc(0));
    const LocalOptStats stats = optimizeBlock(prog.proc(0), 0, live);
    EXPECT_GE(stats.chainsFolded, 2u);
    // All three adds now hang off the original register directly.
    for (const auto &ins : prog.proc(0).blocks[0].instrs) {
        if (ins.op == Opcode::Add) {
            EXPECT_EQ(ins.src1, i0);
        }
    }
}

TEST(LocalOpt, ChainFoldsIntoMemoryOffset)
{
    Program prog;
    prog.memWords = 16;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    const RegId base = b.ldi(0);
    const RegId p1 = b.addi(base, 4);
    const RegId v = b.ld(p1, 2); // -> ld [base + 6]
    b.ret(v);

    analysis::Liveness live(prog.proc(0));
    optimizeBlock(prog.proc(0), 0, live);
    const auto &instrs = prog.proc(0).blocks[0].instrs;
    bool found = false;
    for (const auto &ins : instrs) {
        if (ins.op == Opcode::Ld) {
            EXPECT_EQ(ins.imm, 6);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(LocalOpt, KeepsValuesLiveAtSideExits)
{
    // A value only read on the off-trace path of a mid-block exit must
    // survive DCE.
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const BlockId off = b.newBlock();
    const RegId t = b.addi(b.param(0), 7); // only used off-trace
    {
        ir::Instruction exit_br =
            ir::makeBr(Opcode::BrNz, b.param(0), off, ir::kNoBlock);
        prog.proc(0).blocks[0].instrs.push_back(exit_br);
    }
    b.ret(b.ldi(0));
    b.setBlock(off);
    b.ret(t);

    analysis::Liveness live(prog.proc(0));
    const size_t before = prog.proc(0).blocks[0].instrs.size();
    optimizeBlock(prog.proc(0), 0, live);
    EXPECT_EQ(prog.proc(0).blocks[0].instrs.size(), before);
}

TEST(Renamer, RenamesNonLastDefs)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const RegId a = b.freshReg();
    b.ldiTo(a, 1);
    b.emitValue(a);
    b.ldiTo(a, 2); // second def of the same register
    b.emitValue(a);
    b.ret(a);

    analysis::Liveness live(prog.proc(0));
    const RenameStats stats = renameBlock(prog.proc(0), 0, live);
    EXPECT_EQ(stats.defsRenamed, 1u);
    const auto &instrs = prog.proc(0).blocks[0].instrs;
    // First def got a fresh register; its use follows it.
    EXPECT_NE(instrs[0].dst, a);
    EXPECT_EQ(instrs[1].src1, instrs[0].dst);
    // Last def keeps the architectural register.
    EXPECT_EQ(instrs[2].dst, a);
    // Semantics unchanged.
    EXPECT_EQ(runProgram(prog).output, (std::vector<int64_t>{1, 2}));
}

TEST(Renamer, CompensationStubOnLiveExit)
{
    // r is live at the exit target between its two defs: renaming the
    // first def must create a stub that restores r on the exit edge.
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const BlockId off = b.newBlock();
    const RegId r = b.freshReg();
    b.ldiTo(r, 11);
    {
        ir::Instruction exit_br =
            ir::makeBr(Opcode::BrNz, b.param(0), off, ir::kNoBlock);
        prog.proc(0).blocks[0].instrs.push_back(exit_br);
    }
    b.ldiTo(r, 22);
    b.ret(r);
    b.setBlock(off);
    b.emitValue(r);
    b.ret(r);

    const size_t blocks_before = prog.proc(0).blocks.size();
    analysis::Liveness live(prog.proc(0));
    const RenameStats stats = renameBlock(prog.proc(0), 0, live);
    EXPECT_EQ(stats.defsRenamed, 1u);
    EXPECT_EQ(stats.stubsCreated, 1u);
    EXPECT_EQ(stats.copiesInserted, 1u);
    EXPECT_EQ(prog.proc(0).blocks.size(), blocks_before + 1);

    // Exit taken: the stub must deliver 11 to the off-trace path.
    interp::ProgramInput in;
    in.mainArgs = {1};
    auto res = runProgram(prog, in);
    EXPECT_EQ(res.output, (std::vector<int64_t>{11}));
    EXPECT_EQ(res.returnValue, 11);
    // Exit not taken: fall through to the second def.
    in.mainArgs = {0};
    res = runProgram(prog, in);
    EXPECT_EQ(res.returnValue, 22);
}

TEST(Renamer, NoStubWhenNotLiveAtExit)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const BlockId off = b.newBlock();
    const RegId r = b.freshReg();
    b.ldiTo(r, 11);
    b.emitValue(r);
    {
        ir::Instruction exit_br =
            ir::makeBr(Opcode::BrNz, b.param(0), off, ir::kNoBlock);
        prog.proc(0).blocks[0].instrs.push_back(exit_br);
    }
    b.ldiTo(r, 22);
    b.ret(r);
    b.setBlock(off);
    b.ret(b.ldi(0)); // off-trace path never reads r

    analysis::Liveness live(prog.proc(0));
    const RenameStats stats = renameBlock(prog.proc(0), 0, live);
    EXPECT_EQ(stats.stubsCreated, 0u);
}

bool
sameInstrs(const std::vector<ir::Instruction> &a,
           const std::vector<ir::Instruction> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      pstest::sameInstr);
}

/** Blocks and sweeps seen by expectSweepRuleMatchesFixpoint. */
struct SweepCounts
{
    uint64_t blocks = 0;
    uint64_t sweeps = 0;          ///< optimizeBlock's
    uint64_t fixpointSweeps = 0;  ///< the reference loop's
    uint64_t repeated = 0;        ///< blocks optimizeBlock swept again
};

/**
 * Optimize every block of @p proc with optimizeBlock and with the
 * reference loop that sweeps until a sweep changes nothing (at most
 * kMaxLocalOptSweeps times), and require the same instructions,
 * ordinals and counters.
 */
void
expectSweepRuleMatchesFixpoint(ir::Procedure &proc, const std::string &label,
                               SweepCounts &counts)
{
    proc.syncSideTables();
    const analysis::Liveness live(proc);
    for (BlockId b = 0; b < proc.blocks.size(); ++b) {
        std::vector<ir::Instruction> &instrs = proc.blocks[b].instrs;
        std::vector<uint32_t> &ordinals = proc.superblocks[b].srcOrdinalOf;
        const std::vector<ir::Instruction> before = instrs;
        const std::vector<uint32_t> ordinals_before = ordinals;

        LocalOptStats want;
        for (int i = 0; i < kMaxLocalOptSweeps; ++i) {
            if (!optimizeSweep(proc, b, live, want).changed)
                break;
        }
        const std::vector<ir::Instruction> want_instrs = instrs;
        const std::vector<uint32_t> want_ordinals = ordinals;

        instrs = before;
        ordinals = ordinals_before;
        const LocalOptStats got = optimizeBlock(proc, b, live);
        const std::string where =
            label + " " + proc.name + " block " + std::to_string(b);
        EXPECT_TRUE(sameInstrs(instrs, want_instrs)) << where;
        EXPECT_EQ(ordinals, want_ordinals) << where;
        EXPECT_EQ(got.copiesPropagated, want.copiesPropagated) << where;
        EXPECT_EQ(got.constantsFolded, want.constantsFolded) << where;
        EXPECT_EQ(got.chainsFolded, want.chainsFolded) << where;
        EXPECT_EQ(got.deadRemoved, want.deadRemoved) << where;
        EXPECT_LE(got.sweeps, want.sweeps) << where;
        ++counts.blocks;
        counts.sweeps += got.sweeps;
        counts.fixpointSweeps += want.sweeps;
        counts.repeated += got.sweeps > 1;
    }
}

/**
 * optimizeBlock runs another sweep only when the last one's dead-code
 * pass removed an instruction and its forward pass declined a stale
 * fact.  That must give what sweeping to a fixpoint gives, on every
 * block of the 14 workloads and of generated programs of all five
 * branch families after each backend's formation, and on a block
 * built to need the second sweep: a copy whose source's dead
 * redefinition hides it from the first.
 */
TEST(LocalOpt, SweepRuleMatchesFixpoint)
{
    SweepCounts counts;
    {
        Program prog;
        IrBuilder b(prog);
        prog.mainProc = b.newProc("main", 1);
        const RegId p = b.param(0);
        const RegId copy = b.mov(p);
        b.ldiTo(p, 5);          // dead: the copy is stale after it
        b.ret(b.addi(copy, 1)); // reads p once the ldi is gone
        expectSweepRuleMatchesFixpoint(prog.proc(0), "stale-copy", counts);
        const auto &instrs = prog.proc(0).blocks[0].instrs;
        ASSERT_EQ(instrs.size(), 2u);
        EXPECT_EQ(instrs[0].src1, p);
        EXPECT_EQ(counts.repeated, 1u);
    }
    for (const pstest::TrainedProgram &s : pstest::workloadsAndFamilies()) {
        const Status st = pstest::forEachFormed(
            s, [&](Program &prog, ir::ProcId p, const std::string &label) {
                expectSweepRuleMatchesFixpoint(prog.procs[p], label, counts);
            });
        ASSERT_TRUE(st.ok()) << st.toString();
    }
    EXPECT_GT(counts.blocks, 10000u);
    // The rule must skip sweeps, or this compares a loop with itself.
    EXPECT_LT(counts.sweeps, counts.fixpointSweeps);
}

/**
 * Renaming returns early from a block that defines no register twice.
 * Over every block that compaction renames (the 14 workloads and
 * generated programs of all five branch families, after each
 * backend's formation and local opt), such a block comes back
 * byte-identical, with zero stats, no new block and no new register;
 * every other block is counted as renamed and renames a def.
 */
TEST(Renamer, EarlyReturnIsANoOp)
{
    uint64_t skipped = 0, renamed = 0;
    for (const pstest::TrainedProgram &s : pstest::workloadsAndFamilies()) {
        const Status st = pstest::forEachFormed(
            s, [&](Program &prog, ir::ProcId p, const std::string &label) {
                ir::Procedure &proc = prog.procs[p];
                proc.syncSideTables();
                const analysis::Liveness live(proc);
                const size_t original_blocks = proc.blocks.size();
                for (BlockId b = 0; b < original_blocks; ++b) {
                    optimizeBlock(proc, b, live);
                    std::vector<uint8_t> defined(proc.numRegs, 0);
                    bool twice = false;
                    for (const ir::Instruction &ins : proc.blocks[b].instrs) {
                        if (ins.hasDst()) {
                            twice |= defined[ins.dst] != 0;
                            defined[ins.dst] = 1;
                        }
                    }
                    const std::vector<ir::Instruction> before =
                        proc.blocks[b].instrs;
                    const size_t num_blocks = proc.blocks.size();
                    const uint32_t num_regs = proc.numRegs;
                    const RenameStats got = renameBlock(proc, b, live);
                    const std::string where = label + " " + proc.name +
                                              " block " + std::to_string(b);
                    if (twice) {
                        ++renamed;
                        EXPECT_EQ(got.blocksRenamed, 1u) << where;
                        EXPECT_GE(got.defsRenamed, 1u) << where;
                        continue;
                    }
                    ++skipped;
                    EXPECT_TRUE(sameInstrs(proc.blocks[b].instrs, before))
                        << where;
                    EXPECT_EQ(proc.blocks.size(), num_blocks) << where;
                    EXPECT_EQ(proc.numRegs, num_regs) << where;
                    EXPECT_EQ(got.blocksRenamed, 0u) << where;
                    EXPECT_EQ(got.defsRenamed, 0u) << where;
                    EXPECT_EQ(got.stubsCreated, 0u) << where;
                    EXPECT_EQ(got.copiesInserted, 0u) << where;
                }
            });
        ASSERT_TRUE(st.ok()) << st.toString();
    }
    EXPECT_GT(skipped, 0u);
    EXPECT_GT(renamed, 0u);
}

/** Compact a whole program and check every block's schedule. */
void
compactAndValidate(Program &prog, const machine::MachineModel &mm)
{
    compactProgram(prog, mm);
    std::vector<std::string> errors;
    for (const auto &proc : prog.procs) {
        analysis::Liveness live(proc);
        for (BlockId b2 = 0; b2 < proc.blocks.size(); ++b2) {
            EXPECT_TRUE(validateSchedule(proc, b2, live, mm, errors))
                << proc.name << " block " << b2 << ": "
                << (errors.empty() ? "" : errors.back());
        }
    }
}

/**
 * Reference list scheduler: the original O(n^2) formulation, kept as
 * the oracle for the heap-driven scheduleBlock.  Every issue slot scans
 * all n instructions for the best ready one, each cycle advance scans
 * them again, and speculative-load marking compares every load with
 * every earlier branch.
 */
struct ReferenceSchedule
{
    std::vector<uint32_t> issueOrder; ///< original index per issue slot
    std::vector<uint32_t> cycleOf;    ///< cycle per issue slot
    std::vector<uint8_t> speculated;  ///< by original index
    uint64_t loadsSpeculated = 0;
};

ReferenceSchedule
referenceScan(const std::vector<ir::Instruction> &instrs,
              const DepGraph &graph, const machine::MachineModel &mm,
              SchedPriority priority)
{
    const uint32_t n = uint32_t(instrs.size());
    std::vector<uint32_t> preds_left(n), est(n, 0), cyc(n, 0);
    std::vector<uint8_t> done(n, 0);
    for (uint32_t i = 0; i < n; ++i)
        preds_left[i] = graph.numPreds(i);

    ReferenceSchedule ref;
    uint32_t cycle = 0;
    uint32_t scheduled = 0;
    while (scheduled < n) {
        uint32_t slots = 0;
        uint32_t control = 0;
        bool placed_any = true;
        while (placed_any && slots < mm.issueWidth) {
            placed_any = false;
            uint32_t best = UINT32_MAX;
            for (uint32_t i = 0; i < n; ++i) {
                if (done[i] || preds_left[i] != 0 || est[i] > cycle)
                    continue;
                if (instrs[i].isControlSlot() &&
                    control >= mm.controlPerCycle) {
                    continue;
                }
                if (best == UINT32_MAX) {
                    best = i;
                    if (priority == SchedPriority::SourceOrder)
                        break;
                } else if (priority == SchedPriority::CriticalPath &&
                           graph.height(i) > graph.height(best)) {
                    best = i;
                }
            }
            if (best == UINT32_MAX)
                break;
            done[best] = 1;
            cyc[best] = cycle;
            ref.issueOrder.push_back(best);
            ++scheduled;
            ++slots;
            if (instrs[best].isControlSlot())
                ++control;
            graph.forEachSucc(best, [&](uint32_t v, uint32_t lat) {
                --preds_left[v];
                est[v] = std::max(est[v], cycle + lat);
            });
            placed_any = true;
        }
        if (scheduled == n)
            break;
        uint32_t next = UINT32_MAX;
        for (uint32_t i = 0; i < n; ++i) {
            if (!done[i] && preds_left[i] == 0)
                next = std::min(next, est[i]);
        }
        EXPECT_NE(next, UINT32_MAX) << "reference scheduler wedged";
        if (next == UINT32_MAX)
            return ref;
        cycle = std::max(cycle + 1, next);
    }

    std::vector<uint32_t> issue_pos(n);
    for (uint32_t k = 0; k < n; ++k) {
        issue_pos[ref.issueOrder[k]] = k;
        ref.cycleOf.push_back(cyc[ref.issueOrder[k]]);
    }
    ref.speculated.assign(n, 0);
    for (uint32_t i = 0; i < n; ++i) {
        if (instrs[i].op != Opcode::Ld)
            continue;
        for (uint32_t e = 0; e < i; ++e) {
            if (instrs[e].isBranch() && issue_pos[i] < issue_pos[e]) {
                ref.speculated[i] = 1;
                ++ref.loadsSpeculated;
                break;
            }
        }
    }
    return ref;
}

/**
 * Schedule every block of @p proc (a copy) with scheduleBlock and with
 * the reference scan over the same DepGraph, and require the same issue
 * order, cycles and LdSpec conversions.  Returns the blocks compared.
 */
size_t
expectHeapMatchesScan(ir::Procedure proc, const machine::MachineModel &mm,
                      SchedPriority priority, const std::string &label)
{
    proc.syncSideTables();
    const analysis::Liveness live(proc);
    std::vector<ExitInfo> exits;
    size_t compared = 0;
    for (BlockId b = 0; b < proc.blocks.size(); ++b) {
        if (proc.blocks[b].instrs.empty())
            continue;
        const std::vector<ir::Instruction> before = proc.blocks[b].instrs;
        const std::vector<uint32_t> ordinals_before =
            proc.superblocks[b].srcOrdinalOf;
        collectExits(proc, b, live, exits);
        const DepGraph graph(before, exits, mm);
        const ReferenceSchedule ref =
            referenceScan(before, graph, mm, priority);
        const ScheduleStats got =
            scheduleBlock(proc, b, live, mm, priority);
        ++compared;

        const auto &after = proc.blocks[b].instrs;
        const ir::BlockSchedule &sched = proc.schedules[b];
        const std::string where =
            label + " " + proc.name + " block " + std::to_string(b);
        EXPECT_EQ(after.size(), before.size()) << where;
        EXPECT_EQ(ref.issueOrder.size(), before.size()) << where;
        if (after.size() != before.size() ||
            ref.issueOrder.size() != before.size()) {
            return compared;
        }
        EXPECT_EQ(sched.cycleOf, ref.cycleOf) << where;
        EXPECT_EQ(got.loadsSpeculated, ref.loadsSpeculated) << where;
        for (size_t k = 0; k < after.size(); ++k) {
            const uint32_t i = ref.issueOrder[k];
            const ir::Instruction &want = before[i];
            const Opcode want_op =
                ref.speculated[i] ? Opcode::LdSpec : want.op;
            const ir::Instruction &have = after[k];
            const bool same =
                have.op == want_op && have.dst == want.dst &&
                have.src1 == want.src1 && have.src2 == want.src2 &&
                have.imm == want.imm && have.useImm == want.useImm &&
                have.target0 == want.target0 &&
                have.target1 == want.target1 &&
                have.callee == want.callee && have.args == want.args;
            EXPECT_TRUE(same) << where << " slot " << k << ": expected "
                              << "instr " << i;
            if (proc.superblocks[b].isSuperblock) {
                EXPECT_EQ(proc.superblocks[b].srcOrdinalOf[k],
                          ordinals_before[i])
                    << where << " slot " << k;
            }
            if (!same)
                return compared;
        }
    }
    return compared;
}

/** The four scheduler settings of the differential test. */
size_t
expectHeapMatchesScanAllSettings(const ir::Program &prog,
                                 const std::string &label)
{
    size_t compared = 0;
    for (const bool realistic : {false, true}) {
        const auto mm = realistic
                            ? machine::MachineModel::realisticLatency()
                            : machine::MachineModel::unitLatency();
        for (const SchedPriority priority :
             {SchedPriority::CriticalPath, SchedPriority::SourceOrder}) {
            const std::string tag =
                label + (realistic ? " realistic" : " unit") +
                (priority == SchedPriority::CriticalPath ? " cp" : " src");
            for (const ir::Procedure &proc : prog.procs)
                compared += expectHeapMatchesScan(proc, mm, priority, tag);
        }
    }
    return compared;
}

TEST(Scheduler, HeapMatchesReferenceScan)
{
    size_t compared = 0;

    // Generated programs from every branch family, as generated and
    // after a full compaction (renamed, stubbed, already scheduled).
    for (const gen::BranchKind kind :
         {gen::BranchKind::Random, gen::BranchKind::Tttf,
          gen::BranchKind::Phased, gen::BranchKind::Correlated,
          gen::BranchKind::Mixed}) {
        for (uint64_t seed = 1; seed <= 6; ++seed) {
            gen::GenSpec spec;
            spec.seed = seed * 7919 + uint64_t(kind);
            spec.branch = kind;
            spec.stmts = 8;
            const gen::Workload w = gen::generate(spec);
            const std::string label = spec.toString();
            compared += expectHeapMatchesScanAllSettings(w.program, label);
            Program compacted = w.program;
            compactProgram(compacted, machine::MachineModel::unitLatency());
            compared += expectHeapMatchesScanAllSettings(
                compacted, label + " compacted");
        }
    }

    // The 14 workloads after P4e formation: the large superblocks.
    form::FormConfig cfg;
    cfg.mode = form::ProfileMode::Path;
    cfg.unrollFactor = 4;
    cfg.maxLoopHeads = 4;
    cfg.nonLoopStopsAtAnyHead = true;
    for (const workloads::Workload &w : workloads::standardBenchmarks()) {
        profile::EdgeProfiler edge(w.program);
        profile::PathProfiler path(w.program, {});
        interp::Interpreter interp(w.program);
        interp.addListener(&edge);
        interp.addListener(&path);
        interp.run(w.train);
        path.finalize();
        Program formed = w.program;
        form::formProgram(formed, &edge, &path, cfg);
        compared += expectHeapMatchesScanAllSettings(formed, w.name + "/P4e");
    }
    EXPECT_GT(compared, 10000u);
}

/** Schedule block 0 of a copy of @p proc under unit latency. */
ir::Procedure
scheduledCopy(const ir::Procedure &proc, ScheduleStats *stats = nullptr)
{
    ir::Procedure copy = proc;
    copy.syncSideTables();
    const analysis::Liveness live(copy);
    const ScheduleStats st = scheduleBlock(
        copy, 0, live, machine::MachineModel::unitLatency());
    if (stats != nullptr)
        *stats = st;
    return copy;
}

TEST(Scheduler, FullControlSlotLetsOrdinaryOpsIssue)
{
    // call; ldi x4; brnz (side exit); ret.  The call takes cycle 0's
    // only control slot.  The branch has the greatest height once the
    // call issues but must wait for cycle 1, while the lower-height
    // ldis fill cycle 0's ordinary slots.
    Program prog;
    IrBuilder b(prog);
    const ir::ProcId leaf = b.newProc("leaf", 0);
    b.ret(kNoReg);
    prog.mainProc = b.newProc("main", 1);
    const BlockId off = b.newBlock();
    b.setBlock(off);
    b.ret(b.param(0));
    ir::Procedure &proc = prog.procs[prog.mainProc];
    std::vector<ir::Instruction> &instrs = proc.blocks[0].instrs;
    instrs.push_back(ir::makeCall(kNoReg, leaf, {}));
    for (int i = 0; i < 4; ++i)
        instrs.push_back(ir::makeLdi(proc.newReg(), i));
    instrs.push_back(ir::makeBr(Opcode::BrNz, b.param(0), off, ir::kNoBlock));
    instrs.push_back(ir::makeRet(b.param(0)));

    for (const SchedPriority priority :
         {SchedPriority::CriticalPath, SchedPriority::SourceOrder}) {
        expectHeapMatchesScan(proc, machine::MachineModel::unitLatency(),
                              priority, "control-slot");
    }
    const ir::Procedure out = scheduledCopy(proc);
    const auto &sched = out.schedules[0];
    const auto &got = out.blocks[0].instrs;
    ASSERT_EQ(got.size(), 7u);
    EXPECT_EQ(got[0].op, Opcode::Call);
    for (size_t k = 0; k < got.size(); ++k) {
        if (got[k].op == Opcode::Ldi) {
            EXPECT_EQ(sched.cycleOf[k], 0u) << k;
        } else if (got[k].isBranch()) {
            EXPECT_EQ(sched.cycleOf[k], 1u);
        }
    }
}

TEST(Scheduler, LoadSpeculatedAboveOnlyTheLaterBranch)
{
    // brnz c1 (side exit); five adds to c2; brnz c2 (side exit);
    // base = 2 + 1; ld v = [base]; ret v.  c1 is ready at once, c2 at
    // the end of a long chain and the load's base after a short one, so
    // the load issues after the first branch but before the second: it
    // is hoisted above the second branch only, and still becomes LdSpec.
    Program prog;
    prog.memWords = 16;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const BlockId x1 = b.newBlock();
    const BlockId x2 = b.newBlock();
    const RegId p = b.param(0);
    b.setBlock(x1);
    b.ret(p);
    b.setBlock(x2);
    b.ret(p);
    ir::Procedure &proc = prog.procs[prog.mainProc];
    std::vector<ir::Instruction> &instrs = proc.blocks[0].instrs;
    const RegId c1 = proc.newReg();
    instrs.push_back(ir::makeLdi(c1, 0));
    instrs.push_back(ir::makeBr(Opcode::BrNz, c1, x1, ir::kNoBlock));
    RegId c2 = p;
    for (int i = 0; i < 5; ++i) {
        const RegId next = proc.newReg();
        instrs.push_back(ir::makeAluImm(Opcode::Add, next, c2, 1));
        c2 = next;
    }
    instrs.push_back(ir::makeBr(Opcode::BrNz, c2, x2, ir::kNoBlock));
    const RegId base0 = proc.newReg();
    const RegId base = proc.newReg();
    const RegId v = proc.newReg();
    instrs.push_back(ir::makeLdi(base0, 2));
    instrs.push_back(ir::makeAluImm(Opcode::Add, base, base0, 1));
    instrs.push_back(ir::makeLd(v, base, 0));
    instrs.push_back(ir::makeRet(v));

    for (const SchedPriority priority :
         {SchedPriority::CriticalPath, SchedPriority::SourceOrder}) {
        expectHeapMatchesScan(proc, machine::MachineModel::unitLatency(),
                              priority, "two-branch load");
    }
    ScheduleStats st;
    const ir::Procedure out = scheduledCopy(proc, &st);
    EXPECT_EQ(st.loadsSpeculated, 1u);
    const auto &got = out.blocks[0].instrs;
    size_t first_br = got.size(), second_br = got.size();
    size_t load = got.size();
    for (size_t k = 0; k < got.size(); ++k) {
        if (got[k].isBranch())
            (got[k].target0 == x1 ? first_br : second_br) = k;
        if (got[k].isLoad())
            load = k;
    }
    ASSERT_LT(load, got.size());
    EXPECT_LT(first_br, load);
    EXPECT_LT(load, second_br);
    EXPECT_EQ(got[load].op, Opcode::LdSpec);
}

TEST(Scheduler, PacksIndependentWork)
{
    // 8 independent ldi + a ret: one cycle of 8 plus the control op.
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    std::vector<RegId> vals;
    for (int i = 0; i < 8; ++i)
        vals.push_back(b.ldi(i));
    RegId acc = vals[0];
    b.ret(acc);

    const auto mm = machine::MachineModel::unitLatency();
    // Schedule only: local optimization would delete the dead ldis.
    scheduleProgram(prog, mm);
    const auto &sched = prog.proc(0).schedules[0];
    ASSERT_TRUE(sched.valid);
    EXPECT_EQ(sched.numCycles, 2u); // 8-wide cycle 0, ret in cycle 1
}

TEST(Scheduler, RespectsIssueWidth)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    for (int i = 0; i < 17; ++i)
        b.emitValue(b.ldi(i)); // emits serialize; ldis are free
    b.ret(kNoReg);

    const auto mm = machine::MachineModel::unitLatency();
    compactAndValidate(prog, mm);
}

TEST(Scheduler, SerialChainTakesLatencySum)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    RegId v = b.param(0);
    for (int i = 0; i < 5; ++i)
        v = b.addi(v, 1);
    b.emitValue(v);
    b.ret(v);

    const auto mm = machine::MachineModel::unitLatency();
    scheduleProgram(prog, mm); // schedule only: keep the chain intact
    const auto &sched = prog.proc(0).schedules[0];
    // 5 dependent adds + emit/ret: at least 6 cycles.
    EXPECT_GE(sched.numCycles, 6u);
}

TEST(Scheduler, RealisticLatenciesRespected)
{
    Program prog;
    prog.memWords = 8;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    const RegId base = b.ldi(0);
    const RegId v = b.ld(base, 0); // latency 3
    const RegId w = b.addi(v, 1);
    b.ret(w);

    const auto mm = machine::MachineModel::realisticLatency();
    compactProgram(prog, mm);
    const auto &proc = prog.proc(0);
    const auto &sched = proc.schedules[0];
    ASSERT_TRUE(sched.valid);
    // Find the load and its consumer in the flattened order.
    uint32_t ld_cycle = 0, add_cycle = 0;
    for (size_t i = 0; i < proc.blocks[0].instrs.size(); ++i) {
        if (proc.blocks[0].instrs[i].isLoad())
            ld_cycle = sched.cycleOf[i];
        if (proc.blocks[0].instrs[i].op == Opcode::Add)
            add_cycle = sched.cycleOf[i];
    }
    EXPECT_GE(add_cycle, ld_cycle + 3);

    std::vector<std::string> errors;
    analysis::Liveness live(proc);
    EXPECT_TRUE(validateSchedule(proc, 0, live, mm, errors));
}

TEST(Scheduler, HoistedLoadBecomesSpeculative)
{
    // A load after a side exit with a dead-at-exit destination should
    // hoist above the branch and turn into LdSpec.
    Program prog;
    prog.memWords = 8;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const BlockId off = b.newBlock();
    const RegId base = b.ldi(0);
    // Put the branch condition on a dependence chain so the exit
    // schedules late and the load has room to hoist above it.
    const RegId c1 = b.addi(b.param(0), 1);
    const RegId c2 = b.muli(c1, 3);
    const RegId c3 = b.alui(Opcode::And, c2, 1);
    {
        ir::Instruction exit_br =
            ir::makeBr(Opcode::BrNz, c3, off, ir::kNoBlock);
        prog.proc(0).blocks[0].instrs.push_back(exit_br);
    }
    const RegId v = b.ld(base, 3);
    const RegId w = b.addi(v, 1);
    b.emitValue(w);
    b.ret(w);
    b.setBlock(off);
    b.ret(b.ldi(0));

    const auto mm = machine::MachineModel::unitLatency();
    compactProgram(prog, mm);

    const auto &proc = prog.proc(0);
    const auto &sched = proc.schedules[0];
    bool found_spec = false;
    uint32_t br_cycle = 0, ld_cycle = 0;
    for (size_t i = 0; i < proc.blocks[0].instrs.size(); ++i) {
        const auto &ins = proc.blocks[0].instrs[i];
        if (ins.op == Opcode::LdSpec) {
            found_spec = true;
            ld_cycle = sched.cycleOf[i];
        }
        if (ins.isBranch())
            br_cycle = sched.cycleOf[i];
    }
    ASSERT_TRUE(found_spec);
    EXPECT_LE(ld_cycle, br_cycle);

    // Semantics on both paths: cond = ((arg+1)*3) & 1.
    interp::ProgramInput in;
    in.memImage = {0, 0, 0, 9};
    in.mainArgs = {1}; // cond 0: fall through, load feeds the add
    EXPECT_EQ(interp::Interpreter(prog).run(in).returnValue, 10);
    in.mainArgs = {0}; // cond 1: early exit
    EXPECT_EQ(interp::Interpreter(prog).run(in).returnValue, 0);
}

TEST(Scheduler, StoresNeverCrossExits)
{
    Program prog;
    prog.memWords = 8;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const BlockId off = b.newBlock();
    const RegId base = b.ldi(0);
    const RegId one = b.ldi(1);
    b.st(base, 0, one); // before the exit
    {
        ir::Instruction exit_br =
            ir::makeBr(Opcode::BrNz, b.param(0), off, ir::kNoBlock);
        prog.proc(0).blocks[0].instrs.push_back(exit_br);
    }
    b.st(base, 1, one); // after the exit
    b.ret(kNoReg);
    b.setBlock(off);
    const RegId v0 = b.ld(base, 0);
    const RegId v1 = b.ld(base, 1);
    b.emitValue(v0);
    b.emitValue(v1);
    b.ret(kNoReg);

    const auto mm = machine::MachineModel::unitLatency();
    compactProgram(prog, mm);

    // Taking the exit must observe the first store but not the second.
    interp::ProgramInput in;
    in.mainArgs = {1};
    const auto res = interp::Interpreter(prog).run(in);
    EXPECT_EQ(res.output, (std::vector<int64_t>{1, 0}));
}

TEST(Scheduler, WawWithLongerSecondLatency)
{
    // Regression: Ldi (1 cycle) then Ld (3 cycles) writing the same
    // register used to underflow the WAW edge latency and wedge the
    // scheduler.
    Program prog;
    prog.memWords = 8;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    const RegId base = b.ldi(0);
    const RegId r = b.freshReg();
    b.ldiTo(r, 5);
    b.emitValue(r);
    b.ldTo(r, base, 2); // second def, longer latency
    b.ret(r);

    const auto mm = machine::MachineModel::realisticLatency();
    scheduleProgram(prog, mm); // schedule only: keep the WAW pair intact

    interp::ProgramInput in;
    in.memImage = {0, 0, 42};
    const auto res = interp::Interpreter(prog).run(in);
    EXPECT_EQ(res.output, (std::vector<int64_t>{5}));
    EXPECT_EQ(res.returnValue, 42);
}

TEST(Compact, EveryBlockGetsValidSchedule)
{
    pstest::GeneratedProgram gen = pstest::makeRandomProgram(3);
    const auto mm = machine::MachineModel::unitLatency();
    compactAndValidate(gen.program, mm);
    std::vector<std::string> errors;
    EXPECT_TRUE(ir::verify(gen.program, ir::VerifyMode::Superblock,
                           errors))
        << (errors.empty() ? "" : errors.front());
}

/**
 * Pinned schedules: a hash of every block's issue-ordered instructions
 * (opcode, registers, immediate) and cycleOf after runPipeline, plus the
 * final blocks' dependence graphs (the number of dependent pairs, and a
 * hash of every edge's source, target and latency), for every workload
 * under BB, M4 and P4e.  Any scheduler, dependence-graph or liveness
 * change that moves a single instruction or edge fails here.  The edge
 * pins were computed from the edge-list graph this matrix replaced, with
 * each pair's parallel edges collapsed to their largest latency.
 */
TEST(Compact, SchedulesArePinned)
{
    struct Pin
    {
        const char *workload;
        pipeline::SchedConfig config;
        uint64_t hash;
        uint64_t edges;
        uint64_t edgeHash;
    };
    using pipeline::SchedConfig;
    static const Pin kPins[] = {
        {"alt", SchedConfig::BB, 0x88b7e1ce037501caULL, 23,
         0xadde450ff4c05a26ULL},
        {"alt", SchedConfig::M4, 0x89e181b9951e885dULL, 139,
         0x2d355646ba1bac96ULL},
        {"alt", SchedConfig::P4e, 0x9fe86f6f950139d7ULL, 179,
         0xc6676a2968790ec5ULL},
        {"ph", SchedConfig::BB, 0x6e2ae78f9fb8f9c1ULL, 20,
         0xe22944845d5c76e4ULL},
        {"ph", SchedConfig::M4, 0x115c6512fe1bb0c4ULL, 123,
         0x6ca51f1e276cd5d4ULL},
        {"ph", SchedConfig::P4e, 0x91b492c12bddc782ULL, 154,
         0xfe96e7821156eb5eULL},
        {"corr", SchedConfig::BB, 0x4be4b967eaf8c5a4ULL, 17,
         0x8825fe848e9d1945ULL},
        {"corr", SchedConfig::M4, 0xd45acf92cbd21555ULL, 147,
         0xe991b1b7ed598805ULL},
        {"corr", SchedConfig::P4e, 0x392f30291b6585b5ULL, 197,
         0x1c183ca05ef861c0ULL},
        {"wc", SchedConfig::BB, 0x7e44511e56fe63b4ULL, 38,
         0x2c6ffc73de7d6a87ULL},
        {"wc", SchedConfig::M4, 0xaa2e0621e606b437ULL, 159,
         0x475c80c1a7ce53deULL},
        {"wc", SchedConfig::P4e, 0x40a1b96418ea3553ULL, 198,
         0xee49e2864102024cULL},
        {"com", SchedConfig::BB, 0x42da605efc0d7fdaULL, 71,
         0xa6ca17f20f9ff681ULL},
        {"com", SchedConfig::M4, 0x59849dbde0fe9ef3ULL, 350,
         0x6bd35a1e4722cdc0ULL},
        {"com", SchedConfig::P4e, 0x485c0d452467ddb7ULL, 243,
         0xcd9012a0aa84686bULL},
        {"eqn", SchedConfig::BB, 0xf649d3e49bda96c5ULL, 44,
         0x12c33119b1eee442ULL},
        {"eqn", SchedConfig::M4, 0x0db6299463c263f0ULL, 153,
         0xbd5992aa15fef39fULL},
        {"eqn", SchedConfig::P4e, 0xdb874004e6d3ed6fULL, 145,
         0xbedd74c08b6332c8ULL},
        {"esp", SchedConfig::BB, 0x8823709c9756c644ULL, 53,
         0xc9f9c4cb36b61567ULL},
        {"esp", SchedConfig::M4, 0xf6cc146580e56026ULL, 162,
         0x3333155885dfef90ULL},
        {"esp", SchedConfig::P4e, 0x6263ceb05ea9df74ULL, 193,
         0x47818f6a582dd848ULL},
        {"gcc", SchedConfig::BB, 0xa967fdaee46a48f5ULL, 16744,
         0x670261d8f0e71433ULL},
        {"gcc", SchedConfig::M4, 0x3c8ab8faed4cd063ULL, 19094,
         0x6660ff391b263c9cULL},
        {"gcc", SchedConfig::P4e, 0x49dfcb47503e428cULL, 19400,
         0xe6fbcdc855354462ULL},
        {"go", SchedConfig::BB, 0xcd1e114c8b280548ULL, 12015,
         0xf4e79403008e69c3ULL},
        {"go", SchedConfig::M4, 0x02d77151842a588bULL, 94772,
         0x6f81674c3c74c4c4ULL},
        {"go", SchedConfig::P4e, 0x85ad3b1c0d2955b2ULL, 14739,
         0x694fe39503a2ba01ULL},
        {"ijpeg", SchedConfig::BB, 0xee5b3eb68b317b48ULL, 147,
         0x2b1a165352b44928ULL},
        {"ijpeg", SchedConfig::M4, 0xa6494b3fe505474fULL, 1051,
         0x1b43957b5ddcbd14ULL},
        {"ijpeg", SchedConfig::P4e, 0xcab438f2ff9c92c9ULL, 1567,
         0x3942f87201134465ULL},
        {"li", SchedConfig::BB, 0xc4d9717281a8848aULL, 68,
         0x4170b75b9da34ca7ULL},
        {"li", SchedConfig::M4, 0xa805e443676aa3e0ULL, 185,
         0x0f9983dd97041e6bULL},
        {"li", SchedConfig::P4e, 0x50f483ffa6979cfaULL, 187,
         0x166d9256e6eb48d1ULL},
        {"m88k", SchedConfig::BB, 0x163ede0089f44dfeULL, 88,
         0x4c484573f797af44ULL},
        {"m88k", SchedConfig::M4, 0x52ee3188e5b530d8ULL, 1106,
         0xbcaa7e1bf638726eULL},
        {"m88k", SchedConfig::P4e, 0x128d19067faae2e7ULL, 147,
         0x4bc9794b0eee05f0ULL},
        {"perl", SchedConfig::BB, 0x3d4a22edddf26bafULL, 103,
         0xcc323f438d1d5382ULL},
        {"perl", SchedConfig::M4, 0x782eb81d6a4a686aULL, 445,
         0x7c83c5237e6a1dc3ULL},
        {"perl", SchedConfig::P4e, 0x745e8143598ea837ULL, 174,
         0x2b39719af4eacaceULL},
        {"vortex", SchedConfig::BB, 0x9464176dbb96575bULL, 131,
         0x3cefa1755774ad8dULL},
        {"vortex", SchedConfig::M4, 0xf094123984b99f6fULL, 381,
         0x34e410381561bde0ULL},
        {"vortex", SchedConfig::P4e, 0x7a6b10cd32838e9cULL, 488,
         0x3876537d28730e9aULL},
    };

    std::map<std::string, workloads::Workload> suite;
    for (auto &w : workloads::standardBenchmarks())
        suite.emplace(w.name, std::move(w));
    ASSERT_EQ(suite.size(), 14u);

    for (const Pin &pin : kPins) {
        const workloads::Workload &w = suite.at(pin.workload);
        pipeline::PipelineOptions opts;
        opts.keepTransformed = true;
        const pipeline::PipelineResult res = pipeline::runPipeline(
            w.program, w.train, w.test, pin.config, opts);
        ASSERT_TRUE(res.status.ok()) << pin.workload;
        ASSERT_TRUE(res.transformed != nullptr) << pin.workload;

        uint64_t h = fnv1a64(nullptr, 0);
        uint64_t edges = 0;
        uint64_t eh = fnv1a64(nullptr, 0);
        std::vector<ExitInfo> exits;
        for (const ir::Procedure &proc : res.transformed->procs) {
            const analysis::Liveness live(proc);
            for (BlockId b = 0; b < proc.blocks.size(); ++b) {
                const auto &instrs = proc.blocks[b].instrs;
                const ir::BlockSchedule &sched = proc.schedules[b];
                h = fnv1a64Mix(h, instrs.size());
                h = fnv1a64Mix(h, sched.valid);
                for (size_t i = 0; i < instrs.size(); ++i) {
                    const ir::Instruction &ins = instrs[i];
                    h = fnv1a64Mix(h, uint64_t(ins.op));
                    h = fnv1a64Mix(h, ins.dst);
                    h = fnv1a64Mix(h, ins.src1);
                    h = fnv1a64Mix(h, ins.src2);
                    h = fnv1a64Mix(h, uint64_t(ins.imm));
                    for (RegId a : ins.args)
                        h = fnv1a64Mix(h, a);
                    if (i < sched.cycleOf.size())
                        h = fnv1a64Mix(h, sched.cycleOf[i]);
                }
                if (instrs.empty())
                    continue;
                collectExits(proc, b, live, exits);
                const DepGraph g(instrs, exits, opts.machine);
                for (uint32_t u = 0; u < g.size(); ++u) {
                    g.forEachSucc(u, [&](uint32_t v, uint32_t lat) {
                        ++edges;
                        eh = fnv1a64Mix(eh, u);
                        eh = fnv1a64Mix(eh, v);
                        eh = fnv1a64Mix(eh, lat);
                    });
                }
            }
        }
        EXPECT_EQ(h, pin.hash)
            << pin.workload << "/" << pipeline::configName(pin.config)
            << std::hex << " hash 0x" << h;
        EXPECT_EQ(edges, pin.edges)
            << pin.workload << "/" << pipeline::configName(pin.config);
        EXPECT_EQ(eh, pin.edgeHash)
            << pin.workload << "/" << pipeline::configName(pin.config)
            << std::hex << " edge hash 0x" << eh;
    }
}

/** Differential property: compaction preserves program behaviour. */
class CompactSemantics : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(CompactSemantics, OutputInvariant)
{
    pstest::GeneratedProgram gen = pstest::makeRandomProgram(GetParam());
    const auto ref = runProgram(gen.program, gen.input);

    for (const bool realistic : {false, true}) {
        Program prog = gen.program;
        const auto mm = realistic
                            ? machine::MachineModel::realisticLatency()
                            : machine::MachineModel::unitLatency();
        compactProgram(prog, mm);
        const auto got = runProgram(prog, gen.input);
        EXPECT_EQ(got.output, ref.output) << "seed " << GetParam();
        EXPECT_EQ(got.returnValue, ref.returnValue)
            << "seed " << GetParam();
        // Compaction must not slow programs down (unit latency).
        if (!realistic) {
            EXPECT_LE(got.cycles, ref.cycles);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompactSemantics,
                         ::testing::Range<uint64_t>(1, 41));

} // namespace
} // namespace pathsched::sched
