/**
 * @file
 * Unit tests for the interpreter: opcode semantics (parameterized),
 * control flow, calls and recursion, memory, non-excepting loads,
 * cycle accounting against schedules, I-cache charging, the run
 * counters against a listener's tallies, and pinned tables: the P4e
 * I-cache counters per workload, every field of three runs per
 * workload, budget stops before each op kind, and a cache whose line
 * count is not a power of two.
 */

#include <algorithm>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "gen/generator.hpp"
#include "gen/spec.hpp"
#include "interp/interpreter.hpp"
#include "ir/builder.hpp"
#include "layout/code_layout.hpp"
#include "pipeline/backend.hpp"
#include "pipeline/pipeline.hpp"
#include "profile/edge_profile.hpp"
#include "profile/path_profile.hpp"
#include "support/hash.hpp"
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
    EXPECT_EQ(r.icacheProbes, 1u); // the second fetch is on the same line
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

    // A run cut short by the step bound, mid-activation.
    InterpOptions cut;
    cut.maxSteps = full.dynInstrs / 2;
    const RunResult r = expectCountersMatchListener(
        g.program, g.test, "callheavy step-cut", cut);
    EXPECT_TRUE(r.stepLimit);
    EXPECT_LT(r.dynRets, r.dynCalls + 1);
}

/** main(n){ sum 1..n } through a loop: a program that fits the cache. */
Program
sumLoopProgram()
{
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
    b.brnz(b.alu(Opcode::CmpLe, i, n), body, done);
    b.setBlock(body);
    b.aluTo(Opcode::Add, sum, sum, i);
    b.aluiTo(Opcode::Add, i, i, 1);
    b.jmp(head);
    b.setBlock(done);
    b.ret(sum);
    return prog;
}

TEST(Interp, ICacheCountersArePerRun)
{
    const Program prog = sumLoopProgram();
    const layout::CodeLayout layout = layout::layoutProgram(prog);
    icache::ICache cache;
    InterpOptions opts;
    opts.codeLayout = &layout;
    opts.cache = &cache;
    ProgramInput in;
    in.mainArgs = {10};

    const RunResult first = Interpreter(prog, opts).run(in);
    EXPECT_EQ(first.icacheAccesses, first.dynInstrs);
    EXPECT_GT(first.icacheMisses, 0u);

    // The warm cache holds the whole program: every fetch hits.
    const RunResult second = Interpreter(prog, opts).run(in);
    EXPECT_EQ(second.icacheAccesses, second.dynInstrs);
    EXPECT_EQ(second.icacheMisses, 0u);
    EXPECT_EQ(second.stallCycles, 0u);
    EXPECT_EQ(cache.accesses(), first.dynInstrs + second.dynInstrs);
}

TEST(InterpDeathTest, BlockEndingInCallFallsOff)
{
    Program prog;
    IrBuilder b(prog);
    const ProcId f = b.newProc("f", 0);
    b.ret(kNoReg);
    prog.mainProc = b.newProc("main", 0);
    b.callVoid(f, {}); // no terminator after the call
    EXPECT_DEATH(Interpreter(prog).run({}),
                 "fell off the end of proc main block 0");
}

TEST(InterpDeathTest, NotTakenSideExitEndingBlockFallsOff)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    const BlockId off = b.newBlock();
    const RegId zero = b.ldi(0);
    // A side exit (no fall-through target) as the block's last op.
    prog.proc(prog.mainProc)
        .blocks[0]
        .instrs.push_back(ir::makeBr(Opcode::BrNz, zero, off, ir::kNoBlock));
    b.setBlock(off);
    b.ret(kNoReg);
    EXPECT_DEATH(Interpreter(prog).run({}),
                 "fell off the end of proc main block 0");
}

/** One workload's P4e test run with the I-cache attached. */
struct PinnedCounters
{
    const char *workload;
    uint64_t cycles, dynInstrs, icacheAccesses, icacheMisses, stallCycles,
        sbEntries, sbCompletions;
};

TEST(Interp, PinnedWorkloadCounters)
{
    // Measured with the instruction-at-a-time interpreter that the
    // decoded one replaced (pathsched_cli --workload all --config P4e
    // --icache); the decoded interpreter must reproduce them exactly.
    // vortex's instruction and access counts were re-measured when
    // allocation stopped reusing registers inside blocks: it keeps
    // compaction's schedules, which speculate a few more instructions
    // in the same cycles.
    static const PinnedCounters kPinned[] = {
        {"alt", 287563, 1212507, 1212507, 10, 60, 37500, 25000},
        {"ph", 360045, 900008, 900008, 7, 42, 110000, 60000},
        {"corr", 271312, 875005, 875005, 10, 60, 26250, 17500},
        {"wc", 391225, 1339547, 1339547, 14, 84, 59272, 32588},
        {"com", 310130, 970986, 970986, 16, 96, 23226, 15341},
        {"eqn", 172361, 513711, 513711, 10, 60, 16452, 14051},
        {"esp", 555171, 2071589, 2071589, 15, 90, 92341, 51750},
        {"gcc", 1752770, 2539931, 2539931, 31559, 189354, 242150, 88823},
        {"go", 1697289, 3772468, 3772468, 2863, 17178, 235652, 68817},
        {"ijpeg", 286703, 1323516, 1323516, 41, 246, 40720, 21787},
        {"li", 1576277, 2442731, 2442731, 12, 72, 304921, 165840},
        {"m88k", 877842, 2311119, 2311119, 10, 60, 200000, 100000},
        {"perl", 2357575, 4858757, 4858757, 12, 72, 574998, 230000},
        {"vortex", 398523, 1114303, 1114303, 29, 174, 44522, 23599},
    };
    const std::vector<workloads::Workload> all =
        workloads::standardBenchmarks();
    ASSERT_EQ(all.size(), std::size(kPinned));
    for (size_t i = 0; i < all.size(); ++i) {
        const workloads::Workload &w = all[i];
        const PinnedCounters &want = kPinned[i];
        ASSERT_EQ(w.name, want.workload);
        pipeline::PipelineOptions opts;
        opts.useICache = true;
        const pipeline::PipelineResult res = pipeline::runPipeline(
            w.program, w.train, w.test, pipeline::SchedConfig::P4e, opts);
        ASSERT_TRUE(res.status.ok()) << w.name;
        const RunResult &r = res.test;
        EXPECT_EQ(r.cycles, want.cycles) << w.name;
        EXPECT_EQ(r.dynInstrs, want.dynInstrs) << w.name;
        EXPECT_EQ(r.icacheAccesses, want.icacheAccesses) << w.name;
        EXPECT_EQ(r.icacheMisses, want.icacheMisses) << w.name;
        EXPECT_EQ(r.stallCycles, want.stallCycles) << w.name;
        EXPECT_EQ(r.sbEntries, want.sbEntries) << w.name;
        EXPECT_EQ(r.sbCompletions, want.sbCompletions) << w.name;
    }
}

/** Every field of @p r folded into one hash (FNV-1a over u64 words). */
uint64_t
hashRun(const RunResult &r)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](uint64_t v) { h = fnv1a64Mix(h, v); };
    mix(uint64_t(r.returnValue));
    mix(r.output.size());
    for (int64_t v : r.output)
        mix(uint64_t(v));
    for (uint64_t v : {r.dynInstrs, r.dynBranches, r.dynCalls, r.dynJumps,
                       r.dynRets, r.dynMemOps, r.dynEdges, r.cycles,
                       r.stallCycles, r.icacheAccesses, r.icacheMisses,
                       r.icacheProbes})
        mix(v);
    // Bit 1 is unused: the pinned hashes below fix this layout.
    mix(uint64_t(r.stepLimit) | uint64_t(r.deadlineStop) << 2);
    mix(r.stopProc);
    for (uint64_t v : {r.sbEntries, r.sbBlocksExecuted, r.sbBlocksInSb,
                       r.sbCompletions})
        mix(v);
    mix(r.callCounts.size());
    for (const auto &[edge, count] : r.callCounts) {
        mix(edge.first);
        mix(edge.second);
        mix(count);
    }
    return h;
}

/** Folds every listener event, in order, into one hash. */
class HashingListener : public TraceListener
{
  public:
    uint64_t hash = 0xcbf29ce484222325ULL;
    void onProcEnter(ir::ProcId p) override { mix(1, p); }
    void onProcExit(ir::ProcId p) override { mix(2, p); }
    void
    onEdge(ir::ProcId p, ir::BlockId from, ir::BlockId to) override
    {
        mix(3, p);
        hash = fnv1a64Mix(hash, uint64_t(from) << 32 | to);
    }

  private:
    void
    mix(uint64_t kind, ir::ProcId p)
    {
        hash = fnv1a64Mix(hash, kind << 32 | p);
    }
};

/** One workload's three interpreter runs, each hashed whole. */
struct PinnedRunHashes
{
    const char *workload;
    /** The original program on the test input, nothing attached. */
    uint64_t reference;
    /** The training run with call counts, an edge profiler, a path
     *  profiler and a hashing listener attached, and that listener's
     *  event sequence. */
    uint64_t training, trainingEvents;
    /** The P4e-compiled program's measured run with the I-cache. */
    uint64_t icacheTest;
};

TEST(Interp, PinnedRunsOfEveryWorkload)
{
    // Computed with the switch-dispatched interpreter that resolved
    // every exit through its target's block table; the threaded one
    // must reproduce every field of every run.
    static const PinnedRunHashes kPinned[] = {
        {"alt", 0x5ee78549fc8d775bULL, 0x40b0b800d0898325ULL,
         0xf1d5799edbae7ec0ULL, 0x05d2d3bbc8a0d7abULL},
        {"ph", 0x2c45853beae2104fULL, 0xbb191df863371cadULL,
         0xbf39514b9f20e140ULL, 0xf49d1dee84c3d69eULL},
        {"corr", 0x1cd44686ef048c5aULL, 0xd8e85e9309ee9ac9ULL,
         0x83429d55f026a2edULL, 0x7ebbb9ba3e51b500ULL},
        {"wc", 0x259cf270c9b31bafULL, 0x65ed0ec31e624d68ULL,
         0xad957b9dbdce0660ULL, 0x2306039c22029358ULL},
        {"com", 0xb9d2c3ff315ee824ULL, 0xa63d186cffe7f07eULL,
         0x26035d2d9758754dULL, 0x59b42f85d96e26abULL},
        {"eqn", 0x3c2d658130e65c61ULL, 0x8257092b6604a81bULL,
         0xd24634dcbdb80491ULL, 0x45f5d7870236755eULL},
        {"esp", 0xa363e0d1638b68feULL, 0x5d37218a7e9c060bULL,
         0x3ab2ae3b90a8b2e9ULL, 0x92c4ba550e9b044fULL},
        {"gcc", 0x5870a56dd0ff1b92ULL, 0x11a0858a4ccc118cULL,
         0xb246657e3b13a7a1ULL, 0x80a7d1a7d239f607ULL},
        {"go", 0xfac3f3101a8de980ULL, 0x3b8c3ce78f416268ULL,
         0xb3bb173ae9484a9eULL, 0x825cc14b0684945bULL},
        {"ijpeg", 0x4f62612025ae438cULL, 0xe37d83b9ff165aceULL,
         0xc9ee0837f668c8efULL, 0xe11c5eb47df79060ULL},
        {"li", 0x333a32216663ed74ULL, 0x381a1058f2fe56d8ULL,
         0x159f55e3ca3b3623ULL, 0x391f20bcc5935225ULL},
        {"m88k", 0x5603ddc9cc512498ULL, 0xeb7660dbcac657f8ULL,
         0x3c0e4dcfdfa1ce88ULL, 0x1b857ef63e2810b0ULL},
        {"perl", 0xe299eae1e8d8ce19ULL, 0x15f3e083c0ddf050ULL,
         0xef80b749e5fa5445ULL, 0xa5b9c8870e9ee847ULL},
        {"vortex", 0x6236bb1743498505ULL, 0x1f3b60bf76a05901ULL,
         0x2e83befe8d66909bULL, 0x06a62d3c7b523ec4ULL},
    };
    const std::vector<workloads::Workload> all =
        workloads::standardBenchmarks();
    ASSERT_EQ(all.size(), std::size(kPinned));
    for (size_t i = 0; i < all.size(); ++i) {
        const workloads::Workload &w = all[i];
        const PinnedRunHashes &want = kPinned[i];
        ASSERT_EQ(w.name, want.workload);

        const RunResult ref = Interpreter(w.program).run(w.test);
        EXPECT_FALSE(ref.truncated()) << w.name;

        InterpOptions topts;
        topts.collectCallCounts = true;
        profile::EdgeProfiler edges(w.program);
        profile::PathProfiler paths(w.program);
        HashingListener events;
        Interpreter train(w.program, topts);
        train.addListener(&edges);
        train.addListener(&paths);
        train.addListener(&events);
        const RunResult tr = train.run(w.train);

        pipeline::PipelineOptions opts;
        opts.useICache = true;
        const pipeline::PipelineResult res = pipeline::runPipeline(
            w.program, w.train, w.test, pipeline::SchedConfig::P4e, opts);
        ASSERT_TRUE(res.status.ok()) << w.name;
        EXPECT_GT(res.test.icacheMisses, 0u) << w.name;

        EXPECT_EQ(hashRun(ref), want.reference) << w.name;
        EXPECT_EQ(hashRun(tr), want.training) << w.name;
        EXPECT_EQ(events.hash, want.trainingEvents) << w.name;
        EXPECT_EQ(hashRun(res.test), want.icacheTest) << w.name;
    }
}

TEST(Interp, BudgetStopsArePinnedOnEveryOpKind)
{
    // A call-dense generated program compiled for P4e and run with the
    // I-cache, stopped by maxSteps = k before every op but the
    // first of its 799: the runs stop before each kind of op, exits
    // and calls included.  Pinned from the switch-dispatched
    // interpreter.
    std::ifstream spec_file(PATHSCHED_CORPUS_DIR "/callheavy.spec");
    std::string line;
    ASSERT_TRUE(std::getline(spec_file, line));
    gen::GenSpec spec;
    std::string err;
    ASSERT_TRUE(gen::GenSpec::parse(line, spec, err)) << err;
    const gen::Workload g = gen::generate(spec);
    pipeline::PipelineOptions popts;
    popts.keepTransformed = true;
    const pipeline::PipelineResult res = pipeline::runPipeline(
        g.program, g.train, g.test, pipeline::SchedConfig::P4e, popts);
    ASSERT_TRUE(res.status.ok());
    ASSERT_NE(res.transformed, nullptr);
    const Program &prog = *res.transformed;
    const layout::CodeLayout layout = layout::layoutProgram(prog);
    constexpr uint64_t kMax = 798;
    ASSERT_EQ(res.test.dynInstrs, kMax + 1);

    uint64_t h = 0xcbf29ce484222325ULL;
    RunResult prev;
    // The kind of the op a run stops before is the counter that the
    // next budget's run adds to.
    uint64_t stops_before_branch = 0, stops_before_jump = 0,
             stops_before_call = 0, stops_before_ret = 0;
    for (uint64_t k = 1; k <= kMax; ++k) {
        icache::ICache cache;
        InterpOptions opts;
        opts.maxSteps = k;
        opts.codeLayout = &layout;
        opts.cache = &cache;
        const RunResult r = Interpreter(prog, opts).run(g.test);
        ASSERT_TRUE(r.stepLimit) << k;
        ASSERT_EQ(r.dynInstrs, k);
        ASSERT_EQ(r.icacheAccesses, k);
        if (k > 1) {
            stops_before_branch += r.dynBranches != prev.dynBranches;
            stops_before_jump += r.dynJumps != prev.dynJumps;
            stops_before_call += r.dynCalls != prev.dynCalls;
            stops_before_ret += r.dynRets != prev.dynRets;
        }
        for (uint64_t v : {r.dynInstrs, r.dynEdges, r.cycles,
                           uint64_t(r.stopProc)})
            h = fnv1a64Mix(h, v);
        prev = r;
    }
    EXPECT_GT(stops_before_branch, 0u);
    EXPECT_GT(stops_before_jump, 0u);
    EXPECT_GT(stops_before_call, 0u);
    EXPECT_GT(stops_before_ret, 0u);
    EXPECT_EQ(h, 0x75810344d9488bd2ULL);
    EXPECT_EQ(prev.dynEdges, 43u);
    EXPECT_EQ(prev.cycles, 459u);
    EXPECT_EQ(prev.stopProc, 6u);
}

TEST(Interp, NonPowerOfTwoICacheIsPinned)
{
    // 48 KB of 32 B lines is 1,536 lines, so the cache indexes by
    // modulo.  Pinned from the interpreter that probed out of line.
    const workloads::Workload w = workloads::makeGcc();
    pipeline::PipelineOptions opts;
    opts.useICache = true;
    opts.cacheParams.sizeBytes = 48 * 1024;
    const pipeline::PipelineResult res = pipeline::runPipeline(
        w.program, w.train, w.test, pipeline::SchedConfig::P4e, opts);
    ASSERT_TRUE(res.status.ok());
    EXPECT_EQ(res.test.icacheAccesses, 2539931u);
    EXPECT_EQ(res.test.icacheMisses, 1314u);
    EXPECT_EQ(res.test.stallCycles, 7884u);
    EXPECT_EQ(res.test.cycles, 1571300u);
}

} // namespace
} // namespace pathsched::interp
