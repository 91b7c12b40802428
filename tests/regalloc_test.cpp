/**
 * @file
 * Tests for linear-scan register allocation.
 */

#include <set>

#include <gtest/gtest.h>

#include "interp/interpreter.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "ir/builder.hpp"
#include "machine/machine.hpp"
#include "obs/stats.hpp"
#include "obs/timer.hpp"
#include "pipeline/pipeline.hpp"
#include "regalloc/linear_scan.hpp"
#include "sched/compact.hpp"
#include "sched/scheduler.hpp"
#include "testutil.hpp"

namespace pstest = pathsched::testing;

namespace pathsched::regalloc {
namespace {

using ir::BlockId;
using ir::IrBuilder;
using ir::Opcode;
using ir::Program;
using ir::RegId;

TEST(RegAlloc, MapsOntoSmallFile)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    RegId v = b.param(0);
    for (int i = 0; i < 40; ++i)
        v = b.addi(v, 1); // 40 short-lived temporaries
    b.ret(v);

    const AllocStats stats = allocateProgram(prog, 8);
    EXPECT_EQ(stats.procsAllocated, 1u);
    EXPECT_EQ(stats.procsSkipped, 0u);
    EXPECT_LE(stats.maxPressure, 8u);
    for (const auto &ins : prog.proc(0).blocks[0].instrs) {
        if (ins.hasDst()) {
            EXPECT_LT(ins.dst, 8u);
        }
    }
    interp::ProgramInput in;
    in.mainArgs = {2};
    EXPECT_EQ(interp::Interpreter(prog).run(in).returnValue, 42);
}

TEST(RegAlloc, ParamsKeepTheirRegisters)
{
    Program prog;
    IrBuilder b(prog);
    const auto callee = b.newProc("f", 2);
    b.ret(b.sub(b.param(0), b.param(1)));
    const auto main = b.newProc("main", 0);
    const RegId a = b.ldi(10);
    const RegId c = b.ldi(3);
    b.ret(b.callValue(callee, {a, c}));
    prog.mainProc = main;

    allocateProgram(prog, 16);
    // Callee must still read params from registers 0 and 1.
    const auto &f = prog.proc(callee);
    EXPECT_EQ(f.numParams, 2u);
    interp::ProgramInput in;
    EXPECT_EQ(interp::Interpreter(prog).run(in).returnValue, 7);
}

TEST(RegAlloc, HighPressureSpillsAndSucceeds)
{
    // 40 simultaneously live values cannot fit 8 registers: the
    // allocator spills to the frame, and data memory does not grow.
    Program prog;
    prog.memWords = 4;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    std::vector<RegId> vals;
    for (int i = 0; i < 40; ++i)
        vals.push_back(b.ldi(i));
    RegId acc = b.ldi(0);
    for (const RegId v : vals)
        acc = b.add(acc, v); // all 40 live at the first add
    b.ret(acc);

    const uint64_t mem_before = prog.memWords;
    const AllocStats stats = allocateProgram(prog, 8);
    EXPECT_EQ(stats.procsAllocated, 1u);
    EXPECT_EQ(stats.procsSkipped, 0u);
    EXPECT_GT(stats.regsSpilled, 0u);
    EXPECT_EQ(prog.memWords, mem_before);
    EXPECT_EQ(prog.proc(0).frameSlots, stats.regsSpilled);
    for (const auto &ins : prog.proc(0).blocks[0].instrs) {
        if (ins.hasDst()) {
            EXPECT_LT(ins.dst, 8u);
        }
    }
    EXPECT_EQ(interp::Interpreter(prog).run({}).returnValue,
              40 * 39 / 2);
}

/** A recursive procedure with 20 values live at once, called from
 *  main: more pressure than a small register file can hold. */
Program
recursiveHighPressureProgram()
{
    Program prog;
    IrBuilder b(prog);
    const auto rec = b.newProc("rec", 1);
    {
        const auto base = b.newBlock();
        const auto deep = b.newBlock();
        const RegId n = b.param(0);
        std::vector<RegId> vals;
        for (int i = 0; i < 20; ++i)
            vals.push_back(b.addi(n, i)); // 20 live at once
        const RegId c = b.cmpLti(n, 1);
        b.brnz(c, base, deep);
        b.setBlock(base);
        {
            RegId acc = b.ldi(0);
            for (const RegId v : vals)
                acc = b.add(acc, v);
            b.ret(acc);
        }
        b.setBlock(deep);
        {
            const RegId m = b.alui(Opcode::Sub, n, 1);
            const RegId sub = b.callValue(rec, {m});
            RegId acc = sub;
            for (const RegId v : vals)
                acc = b.add(acc, v);
            b.ret(acc);
        }
    }
    const auto main = b.newProc("main", 0);
    b.ret(b.callValue(rec, {b.ldi(3)}));
    prog.mainProc = main;
    return prog;
}

/** Every register @p proc names is below @p num_regs. */
void
expectOnRegisters(const ir::Procedure &proc, uint32_t num_regs)
{
    EXPECT_LE(proc.numRegs, num_regs) << proc.name;
    for (const auto &bb : proc.blocks) {
        for (const auto &ins : bb.instrs) {
            if (ins.hasDst()) {
                EXPECT_LT(ins.dst, num_regs) << proc.name;
            }
            ins.forEachSource(
                [&](RegId r) { EXPECT_LT(r, num_regs) << proc.name; });
        }
    }
}

TEST(RegAlloc, RecursiveProcNeverUsesStaticSpillSlots)
{
    // A recursive procedure over pressure spills to its own frame:
    // every activation has its slots, so it allocates like any other.
    Program prog = recursiveHighPressureProgram();
    interp::Interpreter ref(prog);
    const int64_t expect = ref.run({}).returnValue;
    const uint64_t mem_before = prog.memWords;

    const AllocStats stats = allocateProgram(prog, 8);
    EXPECT_EQ(stats.procsAllocated, 2u);
    EXPECT_EQ(stats.procsSkipped, 0u);
    EXPECT_GT(stats.regsSpilled, 0u);
    EXPECT_EQ(prog.memWords, mem_before);
    EXPECT_GT(prog.proc(prog.findProc("rec")).frameSlots, 0u);
    for (const auto &proc : prog.procs)
        expectOnRegisters(proc, 8);
    EXPECT_EQ(interp::Interpreter(prog).run({}).returnValue, expect);
}

TEST(RegAlloc, PipelineCountsSkippedProcs)
{
    // Through the pipeline too: the recursive procedure spills, the
    // output matches, nothing degrades and nothing is skipped.
    const Program prog = recursiveHighPressureProgram();
    obs::StatRegistry registry;
    obs::Observer observer;
    observer.stats = &registry;
    pipeline::PipelineOptions opts;
    opts.machine.numRegs = 8;
    opts.observability.observer = &observer;
    opts.keepTransformed = true;
    const pipeline::PipelineResult r = pipeline::runPipeline(
        prog, {}, {}, pipeline::SchedConfig::BB, opts);
    ASSERT_TRUE(r.status.ok()) << r.status.toString();
    EXPECT_TRUE(r.outputMatches);
    EXPECT_FALSE(r.degradedRun());
    EXPECT_EQ(registry.counter("robust.BB.degraded"), 0u);
    EXPECT_EQ(r.alloc.procsSkipped, 0u);
    EXPECT_GT(registry.counter("alloc.BB.regsSpilled"), 0u);
    EXPECT_EQ(registry.counter("alloc.BB.regsSpilled"), r.alloc.regsSpilled);
    ASSERT_NE(r.transformed, nullptr);
    for (const auto &proc : r.transformed->procs)
        expectOnRegisters(proc, 8);
}

TEST(RegAlloc, OperandsOverflowingTheFileFailTyped)
{
    // main passes ten arguments to one call: with eight registers no
    // spill can make room for them, so allocation fails typed and
    // leaves the procedure as it was.
    Program prog;
    IrBuilder b(prog);
    const auto callee = b.newProc("sum", 10);
    {
        RegId acc = b.param(0);
        for (RegId k = 1; k < 10; ++k)
            acc = b.add(acc, b.param(k));
        b.ret(acc);
    }
    prog.mainProc = b.newProc("main", 0);
    std::vector<RegId> args;
    for (int k = 0; k < 10; ++k)
        args.push_back(b.ldi(k));
    b.ret(b.callValue(callee, args));
    const ir::Procedure before = prog.proc(prog.mainProc);

    AllocStats stats;
    const Status st =
        allocateProcedure(prog, prog.mainProc, 8, stats, AllocOptions());
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.kind(), ErrorKind::ScheduleFailed) << st.toString();
    EXPECT_EQ(stats.procsAllocated, 0u);
    const ir::Procedure &after = prog.proc(prog.mainProc);
    EXPECT_EQ(ir::toString(after), ir::toString(before));
    EXPECT_EQ(after.frameSlots, 0u);

    // So does the callee, with more parameters than registers.
    const Status callee_st =
        allocateProcedure(prog, callee, 8, stats, AllocOptions());
    EXPECT_EQ(callee_st.kind(), ErrorKind::ScheduleFailed);
}

TEST(RegAlloc, VerifyRejectsMoreRegistersThanTheMachine)
{
    // The chain's verify step bounds every procedure by the machine's
    // register file: one left on virtual registers cannot pass it.
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    RegId v = b.param(0);
    for (int i = 0; i < 20; ++i)
        v = b.addi(v, 1);
    b.ret(v);
    const uint32_t num_regs = prog.proc(0).numRegs;
    ASSERT_GT(num_regs, 8u);
    EXPECT_TRUE(ir::verifyProcStatus(prog, 0, ir::VerifyMode::Superblock)
                    .ok());
    EXPECT_TRUE(ir::verifyProcStatus(prog, 0, ir::VerifyMode::Superblock,
                                     num_regs)
                    .ok());
    const Status st =
        ir::verifyProcStatus(prog, 0, ir::VerifyMode::Superblock, 8);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.kind(), ErrorKind::VerifyFailed);
    EXPECT_NE(st.message().find("the machine has 8"), std::string::npos)
        << st.toString();

    allocateProgram(prog, 8);
    EXPECT_TRUE(ir::verifyProcStatus(prog, 0, ir::VerifyMode::Superblock, 8)
                    .ok());

    // A frame op must address a slot of the procedure's frame.
    auto &entry = prog.proc(0).blocks[0].instrs;
    entry.insert(entry.begin(), ir::makeStFrame(0, 0));
    EXPECT_EQ(ir::verifyProcStatus(prog, 0, ir::VerifyMode::Superblock, 8)
                  .kind(),
              ErrorKind::VerifyFailed);
    prog.proc(0).frameSlots = 1;
    EXPECT_TRUE(ir::verifyProcStatus(prog, 0, ir::VerifyMode::Superblock, 8)
                    .ok());
}

TEST(RegAlloc, LiveAcrossBlocksSurvives)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const auto next = b.newBlock();
    const RegId keep = b.ldi(99);
    RegId v = b.param(0);
    for (int i = 0; i < 10; ++i)
        v = b.addi(v, 1);
    b.jmp(next);
    b.setBlock(next);
    b.ret(b.add(keep, v));

    allocateProgram(prog, 6);
    interp::ProgramInput in;
    in.mainArgs = {1};
    EXPECT_EQ(interp::Interpreter(prog).run(in).returnValue, 110);
}

/**
 * main(x) takes one of @p arms arms: arm i computes a value in its def
 * block and returns it from its use block.  The def blocks come first
 * and the use blocks last, in reverse order, so every arm's value spans
 * the blocks of all the others: @p arms spans overlap, yet at most
 * three registers are live at any point.
 */
Program
nestedArmsProgram(int arms)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    std::vector<BlockId> select, def, use(arms);
    for (int i = 0; i < arms; ++i)
        select.push_back(b.newBlock());
    for (int i = 0; i < arms; ++i)
        def.push_back(b.newBlock());
    for (int i = arms; i-- > 0;)
        use[i] = b.newBlock();
    const BlockId none = b.newBlock();
    const RegId x = b.param(0);
    b.jmp(select[0]);
    for (int i = 0; i < arms; ++i) {
        b.setBlock(select[i]);
        b.brnz(b.cmpEqi(x, i), def[i], i + 1 < arms ? select[i + 1] : none);
    }
    std::vector<RegId> value(arms);
    for (int i = 0; i < arms; ++i) {
        b.setBlock(def[i]);
        value[i] = b.muli(x, 100 + i);
        b.jmp(use[i]);
    }
    for (int i = 0; i < arms; ++i) {
        b.setBlock(use[i]);
        b.ret(b.addi(value[i], 1));
    }
    b.setBlock(none);
    b.ret(b.ldi(-1));
    return prog;
}

TEST(RegAlloc, ExactLivenessFitsWhereSpansOverflow)
{
    // Twelve overlapping spans do not fit eight registers, but the
    // values' lifetime holes do: no spill, nothing left on virtual
    // registers, and every arm still returns its value.
    const Program ref = nestedArmsProgram(12);
    Program prog = ref;
    const AllocStats stats = allocateProgram(prog, 8);
    EXPECT_EQ(stats.procsAllocated, 1u);
    EXPECT_EQ(stats.procsSkipped, 0u);
    EXPECT_EQ(stats.regsSpilled, 0u);
    EXPECT_EQ(stats.rounds, 1u);
    EXPECT_EQ(prog.proc(0).numRegs, 8u);
    for (int64_t x = -1; x <= 12; ++x) {
        interp::ProgramInput in;
        in.mainArgs = {x};
        EXPECT_EQ(interp::Interpreter(prog).run(in).returnValue,
                  interp::Interpreter(ref).run(in).returnValue)
            << "x = " << x;
    }
}

/** Give every block of @p proc a one-instruction-per-cycle schedule in
 *  its current order, standing in for compaction's. */
void
markScheduled(ir::Procedure &proc)
{
    proc.syncSideTables();
    for (BlockId b = 0; b < proc.blocks.size(); ++b) {
        ir::BlockSchedule &sch = proc.schedules[b];
        const uint32_t n = uint32_t(proc.blocks[b].instrs.size());
        sch.valid = true;
        sch.cycleOf.resize(n);
        for (uint32_t i = 0; i < n; ++i)
            sch.cycleOf[i] = i;
        sch.numCycles = n;
    }
}

TEST(RegAlloc, DyingAndDefinedValuesGetDistinctRegisters)
{
    // Each add reads a value for the last time and defines the next.
    // The freed register goes to the back of the free list, so no two
    // values of the block share a register and its schedule stands.
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    RegId v = b.param(0);
    for (int i = 1; i <= 6; ++i)
        v = b.addi(v, i);
    b.ret(v);
    sched::scheduleProgram(prog, machine::MachineModel::unitLatency());
    ASSERT_TRUE(prog.proc(0).schedules[0].valid);

    const AllocStats stats = allocateProgram(prog, 8);
    EXPECT_EQ(stats.regsSpilled, 0u);
    std::set<RegId> regs = {0}; // the parameter's
    for (const auto &ins : prog.proc(0).blocks[0].instrs) {
        if (ins.hasDst()) {
            EXPECT_TRUE(regs.insert(ins.dst).second)
                << "register " << ins.dst << " reused in the block";
        }
    }
    EXPECT_TRUE(prog.proc(0).schedules[0].valid);
    interp::ProgramInput in;
    in.mainArgs = {2};
    EXPECT_EQ(interp::Interpreter(prog).run(in).returnValue, 2 + 21);
}

TEST(RegAlloc, LiveOutRegisterInAHoleClearsTheSchedule)
{
    // Block `mid` leaves early for `out`, which returns `kept`; after
    // that exit `kept` is dead in `mid`.  With three registers, `late`
    // (defined after the exit) can only share `kept`'s register: `c`
    // and `t` hold the other two across it.  The names of `mid` stay
    // injective, but a def that shares a register live at an exit may
    // no longer move above that exit, so the schedule must go.
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const BlockId mid = b.newBlock();
    const BlockId out = b.newBlock();
    const RegId x = b.param(0);
    const RegId c = b.cmpLti(x, 3);
    const RegId kept = b.addi(x, 5);
    const RegId t = b.ldi(1);
    b.emitValue(t);
    b.jmp(mid);
    b.setBlock(mid);
    // A side exit: a branch without fallthrough target in mid-block.
    prog.proc(0).blocks[mid].instrs.push_back(
        ir::makeBr(Opcode::BrNz, c, out, ir::kNoBlock));
    const RegId late = b.ldi(7);
    b.ldiTo(t, 2);
    b.emitValue(late);
    b.emitValue(t);
    b.emitValue(c);
    b.ret();
    b.setBlock(out);
    b.ret(kept);
    const Program ref = prog;
    markScheduled(prog.proc(0));

    const AllocStats stats = allocateProgram(prog, 3);
    ASSERT_EQ(stats.regsSpilled, 0u);
    ASSERT_EQ(stats.procsSkipped, 0u);
    const auto &mid_code = prog.proc(0).blocks[mid].instrs;
    const RegId late_reg = mid_code[1].dst;
    const RegId kept_reg = prog.proc(0).blocks[out].instrs[0].src1;
    EXPECT_EQ(late_reg, kept_reg);
    std::set<RegId> names;
    for (const auto &ins : mid_code) {
        if (ins.hasDst())
            names.insert(ins.dst);
        ins.forEachSource([&](RegId r) { names.insert(r); });
    }
    EXPECT_EQ(names.size(), 3u) << "the names of mid share a register";
    EXPECT_FALSE(prog.proc(0).schedules[mid].valid);
    for (const int64_t arg : {1, 5}) {
        interp::ProgramInput in;
        in.mainArgs = {arg};
        const auto want = interp::Interpreter(ref).run(in);
        const auto got = interp::Interpreter(prog).run(in);
        EXPECT_EQ(got.returnValue, want.returnValue) << arg;
        EXPECT_EQ(got.output, want.output) << arg;
    }
}

/** Property: allocation (after compaction) preserves behaviour. */
class AllocSemantics : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(AllocSemantics, OutputInvariantAndBounded)
{
    pstest::GeneratedProgram gen = pstest::makeRandomProgram(GetParam());
    const auto ref = interp::Interpreter(gen.program).run(gen.input);

    Program prog = gen.program;
    const auto mm = machine::MachineModel::unitLatency();
    sched::compactProgram(prog, mm);
    const AllocStats stats = allocateProgram(prog, mm.numRegs);
    sched::scheduleProgram(prog, mm);

    for (const auto &proc : prog.procs) {
        EXPECT_LE(proc.numRegs, mm.numRegs);
        for (const auto &bb : proc.blocks) {
            for (const auto &ins : bb.instrs) {
                if (ins.hasDst()) {
                    EXPECT_LT(ins.dst, mm.numRegs);
                }
            }
        }
    }
    (void)stats;

    const auto got = interp::Interpreter(prog).run(gen.input);
    EXPECT_EQ(got.output, ref.output) << "seed " << GetParam();
    EXPECT_EQ(got.returnValue, ref.returnValue) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocSemantics,
                         ::testing::Range<uint64_t>(1, 21));

/** Property: a tiny register file forces spilling on random programs
 *  and behaviour still holds. */
class SpillSemantics : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(SpillSemantics, OutputInvariantUnderForcedSpills)
{
    pstest::GeneratedProgram gen = pstest::makeRandomProgram(GetParam());
    const auto ref = interp::Interpreter(gen.program).run(gen.input);

    Program prog = gen.program;
    const auto mm = machine::MachineModel::unitLatency();
    sched::compactProgram(prog, mm);
    const AllocStats stats = allocateProgram(prog, 12);
    sched::scheduleProgram(prog, mm);
    // With 12 registers and renaming-scale pressure, something spills
    // (or everything fits — both are legal; semantics must hold).
    (void)stats;

    const auto got = interp::Interpreter(prog).run(gen.input);
    EXPECT_EQ(got.output, ref.output) << "seed " << GetParam();
    EXPECT_EQ(got.returnValue, ref.returnValue) << "seed " << GetParam();
    EXPECT_EQ(stats.procsSkipped, 0u)
        << "every procedure allocates, spilling if it must";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpillSemantics,
                         ::testing::Range<uint64_t>(1, 21));

} // namespace
} // namespace pathsched::regalloc
