/**
 * @file
 * Unit tests for the interpreter: opcode semantics (parameterized),
 * control flow, calls and recursion, memory, non-excepting loads,
 * cycle accounting against schedules, I-cache charging, and the run
 * counters against a listener's tallies.
 */

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "gen/generator.hpp"
#include "gen/spec.hpp"
#include "interp/interpreter.hpp"
#include "ir/builder.hpp"
#include "layout/code_layout.hpp"
#include "pipeline/pipeline.hpp"
#include "workloads/workloads.hpp"

namespace pathsched::interp {
namespace {

using ir::BlockId;
using ir::IrBuilder;
using ir::kNoReg;
using ir::Opcode;
using ir::ProcId;
using ir::Program;
using ir::RegId;

/** Build main(){ return a OP b; } and run it. */
int64_t
runAlu(Opcode op, int64_t a, int64_t b_val)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    const RegId ra = b.ldi(a);
    const RegId rb = b.ldi(b_val);
    const RegId r = b.alu(op, ra, rb);
    b.ret(r);
    Interpreter interp(prog);
    return interp.run({}).returnValue;
}

/**
 * One opcode case. The opcode is stored in a full word so the struct has
 * no padding: gtest names each case after the raw bytes of its parameter,
 * and padding bytes are indeterminate, which would make the names vary
 * from build to build.
 */
struct AluCase
{
    AluCase(Opcode op, int64_t a, int64_t b, int64_t expected)
        : opWord(static_cast<int64_t>(op)), a(a), b(b), expected(expected)
    {}

    Opcode op() const { return static_cast<Opcode>(opWord); }

    int64_t opWord;
    int64_t a, b, expected;
};
static_assert(sizeof(AluCase) == 4 * sizeof(int64_t),
              "AluCase must have no padding bytes");

class AluSemantics : public ::testing::TestWithParam<AluCase>
{};

TEST_P(AluSemantics, MatchesReference)
{
    const AluCase &c = GetParam();
    EXPECT_EQ(runAlu(c.op(), c.a, c.b), c.expected)
        << opcodeName(c.op()) << "(" << c.a << ", " << c.b << ")";
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, AluSemantics,
    ::testing::Values(
        AluCase{Opcode::Add, 2, 3, 5},
        AluCase{Opcode::Add, INT64_MAX, 1, INT64_MIN}, // wraps
        AluCase{Opcode::Sub, 2, 3, -1},
        AluCase{Opcode::Mul, -4, 3, -12},
        AluCase{Opcode::Div, 7, 2, 3},
        AluCase{Opcode::Div, -7, 2, -3}, // truncates toward zero
        AluCase{Opcode::Div, 5, 0, 0},   // total definition
        AluCase{Opcode::Div, INT64_MIN, -1, INT64_MIN},
        AluCase{Opcode::Rem, 7, 3, 1},
        AluCase{Opcode::Rem, 5, 0, 0},
        AluCase{Opcode::Rem, INT64_MIN, -1, 0},
        AluCase{Opcode::And, 0b1100, 0b1010, 0b1000},
        AluCase{Opcode::Or, 0b1100, 0b1010, 0b1110},
        AluCase{Opcode::Xor, 0b1100, 0b1010, 0b0110},
        AluCase{Opcode::Shl, 3, 2, 12},
        AluCase{Opcode::Shl, 1, 64, 1},   // shift count masked to 0
        AluCase{Opcode::Shr, -8, 1, -4},  // arithmetic shift
        AluCase{Opcode::Shr, 8, 2, 2},
        AluCase{Opcode::CmpEq, 4, 4, 1},
        AluCase{Opcode::CmpEq, 4, 5, 0},
        AluCase{Opcode::CmpNe, 4, 5, 1},
        AluCase{Opcode::CmpLt, -1, 0, 1},
        AluCase{Opcode::CmpLe, 3, 3, 1},
        AluCase{Opcode::CmpGt, 3, 3, 0},
        AluCase{Opcode::CmpGe, 4, 3, 1}));

TEST(Interp, ImmediateOperands)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    const RegId a = b.ldi(10);
    const RegId r = b.alui(Opcode::Sub, a, 4);
    b.ret(r);
    EXPECT_EQ(Interpreter(prog).run({}).returnValue, 6);
}

TEST(Interp, MainArgsArriveInParams)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 2);
    const RegId r = b.sub(b.param(0), b.param(1));
    b.ret(r);
    ProgramInput in;
    in.mainArgs = {9, 4};
    EXPECT_EQ(Interpreter(prog).run(in).returnValue, 5);
}

TEST(Interp, BranchDirections)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const BlockId t = b.newBlock();
    const BlockId f = b.newBlock();
    b.brnz(b.param(0), t, f);
    b.setBlock(t);
    b.ret(b.ldi(100));
    b.setBlock(f);
    b.ret(b.ldi(200));

    ProgramInput in;
    in.mainArgs = {1};
    EXPECT_EQ(Interpreter(prog).run(in).returnValue, 100);
    in.mainArgs = {0};
    EXPECT_EQ(Interpreter(prog).run(in).returnValue, 200);
}

TEST(Interp, LoopComputesSum)
{
    // sum 1..n via a loop.
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const BlockId head = b.newBlock();
    const BlockId body = b.newBlock();
    const BlockId done = b.newBlock();
    const RegId n = b.param(0);
    const RegId i = b.freshReg();
    const RegId sum = b.freshReg();
    b.ldiTo(i, 1);
    b.ldiTo(sum, 0);
    b.jmp(head);
    b.setBlock(head);
    const RegId c = b.alu(Opcode::CmpLe, i, n);
    b.brnz(c, body, done);
    b.setBlock(body);
    b.aluTo(Opcode::Add, sum, sum, i);
    b.aluiTo(Opcode::Add, i, i, 1);
    b.jmp(head);
    b.setBlock(done);
    b.ret(sum);

    ProgramInput in;
    in.mainArgs = {10};
    const RunResult r = Interpreter(prog).run(in);
    EXPECT_EQ(r.returnValue, 55);
    EXPECT_EQ(r.dynBranches, 11u);
    // entry: 3 ops; head: 2 ops x 11; body: 3 ops x 10; done: 1 op.
    EXPECT_EQ(r.dynInstrs, 56u);
    // entry->head, body->head x 10.
    EXPECT_EQ(r.dynJumps, 11u);
    EXPECT_EQ(r.dynRets, 1u);
    EXPECT_EQ(r.dynMemOps, 0u);
    // The jumps, plus head->body x 10 and head->done.
    EXPECT_EQ(r.dynEdges, 22u);
}

TEST(Interp, CallsAndReturnValues)
{
    Program prog;
    IrBuilder b(prog);
    const ProcId twice = b.newProc("twice", 1);
    b.ret(b.muli(b.param(0), 2));
    const ProcId main = b.newProc("main", 0);
    const RegId v = b.callValue(twice, {b.ldi(21)});
    b.ret(v);
    prog.mainProc = main;
    const RunResult r = Interpreter(prog).run({});
    EXPECT_EQ(r.returnValue, 42);
    EXPECT_EQ(r.dynCalls, 1u);
}

TEST(Interp, RecursionFactorial)
{
    Program prog;
    IrBuilder b(prog);
    const ProcId fact = b.newProc("fact", 1);
    {
        const BlockId base = b.newBlock();
        const BlockId rec = b.newBlock();
        const RegId n = b.param(0);
        const RegId c = b.cmpLti(n, 2);
        b.brnz(c, base, rec);
        b.setBlock(base);
        b.ret(b.ldi(1));
        b.setBlock(rec);
        const RegId sub = b.callValue(fact, {b.alui(Opcode::Sub, n, 1)});
        b.ret(b.mul(n, sub));
    }
    const ProcId main = b.newProc("main", 1);
    b.ret(b.callValue(fact, {b.param(0)}));
    prog.mainProc = main;

    ProgramInput in;
    in.mainArgs = {6};
    EXPECT_EQ(Interpreter(prog).run(in).returnValue, 720);
}

TEST(Interp, CallCountsCollected)
{
    Program prog;
    IrBuilder b(prog);
    const ProcId f = b.newProc("f", 0);
    b.ret(b.ldi(0));
    const ProcId main = b.newProc("main", 0);
    b.callVoid(f, {});
    b.callVoid(f, {});
    b.ret(kNoReg);
    prog.mainProc = main;

    InterpOptions opts;
    opts.collectCallCounts = true;
    Interpreter interp(prog, opts);
    const RunResult r = interp.run({});
    EXPECT_EQ(r.callCounts.at({main, f}), 2u);
}

TEST(Interp, MemoryRoundTripAndImage)
{
    Program prog;
    prog.memWords = 8;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    const RegId base = b.ldi(0);
    const RegId v = b.ld(base, 3); // from the image
    b.st(base, 4, v);
    const RegId w = b.ld(base, 4);
    b.ret(w);
    ProgramInput in;
    in.memImage = {0, 0, 0, 77};
    const RunResult r = Interpreter(prog).run(in);
    EXPECT_EQ(r.returnValue, 77);
    EXPECT_EQ(r.dynMemOps, 3u);
    EXPECT_EQ(r.dynJumps, 0u);
    EXPECT_EQ(r.dynEdges, 0u);
}

TEST(Interp, SpeculativeLoadOutOfRangeYieldsZero)
{
    Program prog;
    prog.memWords = 4;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    const RegId base = b.ldi(0);
    const RegId bad = b.ldSpec(base, 1000);
    const RegId neg = b.ldSpec(base, -5);
    b.ret(b.add(bad, neg));
    EXPECT_EQ(Interpreter(prog).run({}).returnValue, 0);
}

TEST(Interp, EmitProducesOrderedOutput)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    b.emitValue(b.ldi(3));
    b.emitValue(b.ldi(1));
    b.emitValue(b.ldi(2));
    b.ret(kNoReg);
    const RunResult r = Interpreter(prog).run({});
    EXPECT_EQ(r.output, (std::vector<int64_t>{3, 1, 2}));
}

TEST(Interp, UnscheduledBlockCostsOneCyclePerInstr)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    const RegId a = b.ldi(1);
    const RegId c = b.addi(a, 1);
    b.ret(c); // 3 instructions in one block
    const RunResult r = Interpreter(prog).run({});
    EXPECT_EQ(r.cycles, 3u);
    EXPECT_EQ(r.dynInstrs, 3u);
}

TEST(Interp, ScheduledBlockChargedByExitCycle)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    const RegId a = b.ldi(1);
    const RegId c = b.ldi(2);
    const RegId d = b.add(a, c);
    b.ret(d);
    // Hand schedule: both ldi in cycle 0, add in 1, ret in 1.
    auto &proc = prog.proc(0);
    proc.syncSideTables();
    proc.schedules[0].valid = true;
    proc.schedules[0].cycleOf = {0, 0, 1, 1};
    proc.schedules[0].numCycles = 2;
    const RunResult r = Interpreter(prog).run({});
    EXPECT_EQ(r.cycles, 2u);
}

TEST(Interp, EarlyExitChargesExitCycle)
{
    // Superblock-form block: mid-block exit in cycle 0 taken; the
    // remaining cycles never execute.
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    const BlockId off = b.newBlock();
    const RegId one = b.ldi(1);
    {
        ir::Instruction exit_br = ir::makeBr(Opcode::BrNz, one, off,
                                             ir::kNoBlock);
        exit_br.target1 = ir::kNoBlock;
        prog.proc(0).blocks[0].instrs.push_back(exit_br);
    }
    b.emitValue(one); // skipped
    b.ret(one);
    b.setBlock(off);
    b.ret(b.ldi(9));

    auto &proc = prog.proc(0);
    proc.syncSideTables();
    proc.schedules[0].valid = true;
    proc.schedules[0].cycleOf = {0, 0, 5, 5};
    proc.schedules[0].numCycles = 6;

    const RunResult r = Interpreter(prog).run({});
    EXPECT_EQ(r.returnValue, 9);
    EXPECT_TRUE(r.output.empty()); // emit after taken exit skipped
    // Exit cycle 0 -> 1 cycle, plus the off-trace block (2 instrs).
    EXPECT_EQ(r.cycles, 3u);
}

TEST(Interp, SuperblockStatsTrackExitOrdinals)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 1);
    const BlockId off = b.newBlock();
    const RegId x = b.param(0);
    {
        ir::Instruction exit_br = ir::makeBr(Opcode::BrNz, x, off,
                                             ir::kNoBlock);
        prog.proc(0).blocks[0].instrs.push_back(exit_br);
    }
    b.ret(b.ldi(1));
    b.setBlock(off);
    b.ret(b.ldi(2));

    auto &proc = prog.proc(0);
    proc.syncSideTables();
    auto &sb = proc.superblocks[0];
    sb.isSuperblock = true;
    sb.numSrcBlocks = 3;
    sb.srcOrdinalOf = {1, 2, 2}; // br from trace block 1, tail block 2

    ProgramInput in;
    in.mainArgs = {1}; // take the early exit
    RunResult r = Interpreter(prog).run(in);
    EXPECT_EQ(r.sbEntries, 1u);
    EXPECT_EQ(r.sbBlocksExecuted, 2u); // ordinal 1 + 1
    EXPECT_EQ(r.sbBlocksInSb, 3u);
    EXPECT_EQ(r.sbCompletions, 0u);

    in.mainArgs = {0}; // fall through to the end
    r = Interpreter(prog).run(in);
    EXPECT_EQ(r.sbBlocksExecuted, 3u);
    EXPECT_EQ(r.sbCompletions, 1u);
}

TEST(Interp, ICacheChargesMissPenalty)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    const RegId a = b.ldi(1);
    b.ret(a); // two instructions, same 32B line

    const layout::CodeLayout layout = layout::layoutProgram(prog);
    icache::ICache cache; // 32KB, 32B lines, 6-cycle penalty
    InterpOptions opts;
    opts.codeLayout = &layout;
    opts.cache = &cache;
    const RunResult r = Interpreter(prog, opts).run({});
    EXPECT_EQ(r.icacheAccesses, 2u);
    EXPECT_EQ(r.icacheMisses, 1u); // cold line, then a hit
    EXPECT_EQ(r.stallCycles, 6u);
    EXPECT_EQ(r.cycles, 2u + 6u);
}

TEST(Interp, ListenersSeeEdgesAndActivations)
{
    class Recorder : public TraceListener
    {
      public:
        int enters = 0, exits = 0;
        std::vector<std::pair<ir::BlockId, ir::BlockId>> edges;
        void onProcEnter(ir::ProcId) override { ++enters; }
        void onProcExit(ir::ProcId) override { ++exits; }
        void
        onEdge(ir::ProcId, ir::BlockId from, ir::BlockId to) override
        {
            edges.push_back({from, to});
        }
    };

    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    const BlockId next = b.newBlock();
    b.jmp(next);
    b.setBlock(next);
    b.ret(kNoReg);

    Recorder rec;
    Interpreter interp(prog);
    interp.addListener(&rec);
    interp.run({});
    EXPECT_EQ(rec.enters, 1);
    EXPECT_EQ(rec.exits, 1);
    ASSERT_EQ(rec.edges.size(), 1u);
    EXPECT_EQ(rec.edges[0], (std::pair<ir::BlockId, ir::BlockId>{0, 1}));
}

/** The reference tallies for RunResult's activation and edge counters:
 *  what a profiler attached to the same run observes. */
class CountingListener : public TraceListener
{
  public:
    uint64_t enters = 0, exits = 0, edges = 0;
    void onProcEnter(ir::ProcId) override { ++enters; }
    void onProcExit(ir::ProcId) override { ++exits; }
    void onEdge(ir::ProcId, ir::BlockId, ir::BlockId) override { ++edges; }
};

/** Run @p prog on @p in with a counting listener attached and check
 *  RunResult's counters against its tallies. */
RunResult
expectCountersMatchListener(const Program &prog, const ProgramInput &in,
                            const std::string &what,
                            InterpOptions opts = InterpOptions())
{
    CountingListener tally;
    Interpreter interp(prog, opts);
    interp.addListener(&tally);
    const RunResult r = interp.run(in);
    EXPECT_EQ(tally.enters, r.dynCalls + 1) << what;
    EXPECT_EQ(tally.exits, r.dynRets) << what;
    EXPECT_EQ(tally.edges, r.dynEdges) << what;
    EXPECT_GT(r.dynEdges, 0u) << what;
    return r;
}

TEST(Interp, RunCountersMatchListenerTallies)
{
    for (const workloads::Workload &w : workloads::standardBenchmarks()) {
        expectCountersMatchListener(w.program, w.train, w.name + " train");
        expectCountersMatchListener(w.program, w.test, w.name + " test");
        pipeline::PipelineOptions opts;
        opts.keepTransformed = true;
        const pipeline::PipelineResult res = pipeline::runPipeline(
            w.program, w.train, w.test, pipeline::SchedConfig::P4, opts);
        ASSERT_TRUE(res.status.ok()) << w.name;
        ASSERT_NE(res.transformed, nullptr) << w.name;
        expectCountersMatchListener(*res.transformed, w.test,
                                    w.name + " P4 test");
    }

    // A generated call-heavy program from the fuzz corpus.
    std::ifstream spec_file(PATHSCHED_CORPUS_DIR "/callheavy.spec");
    std::string line;
    ASSERT_TRUE(std::getline(spec_file, line));
    gen::GenSpec spec;
    std::string err;
    ASSERT_TRUE(gen::GenSpec::parse(line, spec, err)) << err;
    const gen::Workload g = gen::generate(spec);
    const RunResult full =
        expectCountersMatchListener(g.program, g.test, "callheavy");
    EXPECT_GT(full.dynCalls, 0u);

    // A run cut short by the step budget, mid-activation.
    InterpOptions cut;
    cut.budgetSteps = full.dynInstrs / 2;
    const RunResult r = expectCountersMatchListener(
        g.program, g.test, "callheavy budget-cut", cut);
    EXPECT_TRUE(r.budgetStop);
    EXPECT_LT(r.dynRets, r.dynCalls + 1);
}

} // namespace
} // namespace pathsched::interp
