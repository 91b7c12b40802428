/**
 * @file
 * Tests for the compact pass: local optimization, renaming with
 * compensation stubs, the dependence graph / list scheduler (via
 * validateSchedule, and against a reference O(n^2) scan scheduler),
 * schedules pinned by hash on every workload, and differential
 * semantics preservation on random programs.
 */

#include <gtest/gtest.h>

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
            for (const DepGraph::Edge &e : graph.succs(best)) {
                --preds_left[e.to];
                est[e.to] = std::max(est[e.to], cycle + e.latency);
            }
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
    CompactOptions opts;
    opts.localOpt = false; // keep all the ldi alive? they are dead...
    opts.rename = false;
    compactProgram(prog, mm, opts);
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
    CompactOptions opts;
    opts.localOpt = false; // keep the serial chain intact
    opts.rename = false;
    compactProgram(prog, mm, opts);
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
    CompactOptions opts;
    opts.rename = false; // keep the WAW pair intact
    opts.localOpt = false;
    compactProgram(prog, mm, opts);

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
 * summed dependence-graph edge count of the final blocks, for every
 * workload under BB, M4 and P4e.  Any scheduler, dependence-graph or
 * liveness change that moves a single instruction or edge fails here.
 */
TEST(Compact, SchedulesArePinned)
{
    struct Pin
    {
        const char *workload;
        pipeline::SchedConfig config;
        uint64_t hash;
        uint64_t edges;
    };
    using pipeline::SchedConfig;
    static const Pin kPins[] = {
        {"alt", SchedConfig::BB, 0xc3a63300b85a8260ULL, 25},
        {"alt", SchedConfig::M4, 0x7094ea4a4ddd67e8ULL, 173},
        {"alt", SchedConfig::P4e, 0xa7841fc228d5ba96ULL, 231},
        {"ph", SchedConfig::BB, 0x8b512f0fc29b50d4ULL, 20},
        {"ph", SchedConfig::M4, 0x35dca7ddc1d1f864ULL, 143},
        {"ph", SchedConfig::P4e, 0x83480d5d7ab1c9e1ULL, 180},
        {"corr", SchedConfig::BB, 0xf7c75ca6621fa78cULL, 19},
        {"corr", SchedConfig::M4, 0x39c753b5ab5a76d2ULL, 176},
        {"corr", SchedConfig::P4e, 0x224f601ce9473f4dULL, 230},
        {"wc", SchedConfig::BB, 0x8f7633327004cc0cULL, 40},
        {"wc", SchedConfig::M4, 0x722a0d12d036fba0ULL, 179},
        {"wc", SchedConfig::P4e, 0x17dcfbc7e669a832ULL, 224},
        {"com", SchedConfig::BB, 0x75587994a6a87060ULL, 92},
        {"com", SchedConfig::M4, 0xa9e34f17e40732f2ULL, 406},
        {"com", SchedConfig::P4e, 0x8c40cf612decb809ULL, 325},
        {"eqn", SchedConfig::BB, 0x3115e402e56f52fdULL, 54},
        {"eqn", SchedConfig::M4, 0xf8d4826f21dd3baaULL, 196},
        {"eqn", SchedConfig::P4e, 0x522019f10b47b5b1ULL, 195},
        {"esp", SchedConfig::BB, 0x64fe8ba90f3c82a3ULL, 59},
        {"esp", SchedConfig::M4, 0xb3bc4eccd0f48abfULL, 199},
        {"esp", SchedConfig::P4e, 0x73f7c25001394cf9ULL, 239},
        {"gcc", SchedConfig::BB, 0x0e037443af687895ULL, 27899},
        {"gcc", SchedConfig::M4, 0xabd4250cd59ad067ULL, 32394},
        {"gcc", SchedConfig::P4e, 0x6f1a13b0d3bb35efULL, 32535},
        {"go", SchedConfig::BB, 0x61c3c24bff1fba44ULL, 18897},
        {"go", SchedConfig::M4, 0x199fd4e8e396cc14ULL, 115592},
        {"go", SchedConfig::P4e, 0xb7ae6a702e6c0350ULL, 22991},
        {"ijpeg", SchedConfig::BB, 0xaf4d9dd997f66ec7ULL, 213},
        {"ijpeg", SchedConfig::M4, 0x6e78de9c5c08dadbULL, 1435},
        {"ijpeg", SchedConfig::P4e, 0x6652c2fd6ba7ef93ULL, 1968},
        {"li", SchedConfig::BB, 0x375e77c58bfa0cffULL, 88},
        {"li", SchedConfig::M4, 0xa15bd44d4db2e57bULL, 248},
        {"li", SchedConfig::P4e, 0x6e4df0827e9d00f0ULL, 260},
        {"m88k", SchedConfig::BB, 0x562ebab4e7b84aebULL, 101},
        {"m88k", SchedConfig::M4, 0x3bb4ba4f065d35b4ULL, 1240},
        {"m88k", SchedConfig::P4e, 0xf99f2b8a3d470863ULL, 175},
        {"perl", SchedConfig::BB, 0x205347533a945f9eULL, 120},
        {"perl", SchedConfig::M4, 0xb29ca2772813be6dULL, 535},
        {"perl", SchedConfig::P4e, 0xdfcd66ec66d7c4bfULL, 202},
        {"vortex", SchedConfig::BB, 0x562e60fae7cf895fULL, 171},
        {"vortex", SchedConfig::M4, 0x19a579e33e9678a8ULL, 511},
        {"vortex", SchedConfig::P4e, 0xf2e996bc486a9ca2ULL, 646},
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
                for (uint32_t u = 0; u < g.size(); ++u)
                    edges += g.succs(u).size();
            }
        }
        EXPECT_EQ(h, pin.hash)
            << pin.workload << "/" << pipeline::configName(pin.config)
            << std::hex << " hash 0x" << h;
        EXPECT_EQ(edges, pin.edges)
            << pin.workload << "/" << pipeline::configName(pin.config);
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
