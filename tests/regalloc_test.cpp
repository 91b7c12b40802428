/**
 * @file
 * Tests for linear-scan register allocation.
 */

#include <gtest/gtest.h>

#include "interp/interpreter.hpp"
#include "ir/builder.hpp"
#include "machine/machine.hpp"
#include "obs/stats.hpp"
#include "obs/timer.hpp"
#include "pipeline/pipeline.hpp"
#include "regalloc/linear_scan.hpp"
#include "sched/compact.hpp"
#include "testutil.hpp"

namespace pstest = pathsched::testing;

namespace pathsched::regalloc {
namespace {

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
    // allocator spills the longest ranges to memory slots and retries.
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
    EXPECT_EQ(prog.memWords, mem_before + stats.regsSpilled);
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

TEST(RegAlloc, RecursiveProcNeverUsesStaticSpillSlots)
{
    // A recursive procedure with high pressure must fall back (static
    // slots would be shared across live activations).
    Program prog = recursiveHighPressureProgram();
    interp::Interpreter ref(prog);
    const int64_t expect = ref.run({}).returnValue;

    const AllocStats stats = allocateProgram(prog, 8);
    EXPECT_EQ(stats.procsSkipped, 1u); // rec falls back
    EXPECT_EQ(interp::Interpreter(prog).run({}).returnValue, expect);
}

TEST(RegAlloc, PipelineCountsSkippedProcs)
{
    // A procedure left on virtual registers must show up in --stats,
    // not only in the v1 report's alloc block.
    const Program prog = recursiveHighPressureProgram();
    obs::StatRegistry registry;
    obs::Observer observer;
    observer.stats = &registry;
    pipeline::PipelineOptions opts;
    opts.machine.numRegs = 8;
    opts.observability.observer = &observer;
    const pipeline::PipelineResult r = pipeline::runPipeline(
        prog, {}, {}, pipeline::SchedConfig::BB, opts);
    ASSERT_TRUE(r.status.ok()) << r.status.toString();
    EXPECT_TRUE(r.outputMatches);
    const uint64_t skipped = registry.counter("alloc.BB.procsSkipped");
    EXPECT_GE(skipped, 1u);
    EXPECT_EQ(skipped, r.alloc.procsSkipped);
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
        if (proc.numRegs > mm.numRegs)
            continue; // skipped proc (pressure fallback)
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
 *  (acyclic call graphs, so every procedure is spill-eligible) and
 *  behaviour still holds. */
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
        << "acyclic call graphs must always allocate via spilling";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpillSemantics,
                         ::testing::Range<uint64_t>(1, 21));

} // namespace
} // namespace pathsched::regalloc
