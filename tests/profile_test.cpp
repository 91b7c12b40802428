/**
 * @file
 * Tests for the edge and general-path profilers, including a
 * brute-force differential property test of path frequencies on random
 * programs.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "analysis/dominators.hpp"
#include "analysis/loops.hpp"
#include "interp/interpreter.hpp"
#include "ir/builder.hpp"
#include "profile/edge_profile.hpp"
#include "profile/path_profile.hpp"
#include "support/rng.hpp"
#include "testutil.hpp"

namespace pstest = pathsched::testing;

namespace pathsched::profile {
namespace {

using ir::BlockId;
using ir::IrBuilder;
using ir::Opcode;
using ir::ProcId;
using ir::Program;
using ir::RegId;

/** Records the per-activation block sequences of a run. */
class TraceRecorder : public interp::TraceListener
{
  public:
    void
    onProcEnter(ProcId proc) override
    {
        stack_.push_back({proc, {0}});
    }

    void
    onProcExit(ProcId) override
    {
        finished.push_back(std::move(stack_.back()));
        stack_.pop_back();
    }

    void
    onEdge(ProcId, BlockId, BlockId to) override
    {
        stack_.back().second.push_back(to);
    }

    std::vector<std::pair<ProcId, std::vector<BlockId>>> finished;

  private:
    std::vector<std::pair<ProcId, std::vector<BlockId>>> stack_;
};

using EdgeSet = std::set<std::pair<BlockId, BlockId>>;

/** Back edges of @p p, for the forward-path reference. */
EdgeSet
backEdgesOf(const ir::Procedure &p)
{
    const ir::Cfg cfg(p);
    const analysis::LoopInfo loops(cfg, analysis::Dominators(cfg));
    EdgeSet out;
    for (BlockId b = 0; b < p.blocks.size(); ++b) {
        for (BlockId s : cfg.succs(b)) {
            if (loops.isBackEdge(b, s))
                out.insert({b, s});
        }
    }
    return out;
}

/**
 * Length of the budget-bounded window ending at trace position @p i.
 * With @p chop (forward paths), the window also never reaches back
 * across a back edge.
 */
size_t
windowLen(const ir::Procedure &p, const std::vector<BlockId> &trace,
          size_t i, const PathProfileParams &params,
          const EdgeSet *chop = nullptr)
{
    auto is_cond = [&](BlockId b2) {
        return !p.blocks[b2].empty() &&
               p.blocks[b2].terminator().isBranch();
    };
    size_t len = 1;
    uint32_t branches = 0;
    while (len <= i) {
        const BlockId older = trace[i - len];
        if (chop != nullptr && chop->count({older, trace[i - len + 1]}))
            break;
        const uint32_t cost = is_cond(older) ? 1 : 0;
        if (branches + cost > params.maxBranches ||
            len + 1 > params.maxBlocks) {
            break;
        }
        branches += cost;
        ++len;
    }
    return len;
}

/**
 * Reference implementation of the general-path frequency: the number
 * of trace positions whose budget-bounded window ends with @p seq.
 */
uint64_t
bruteForceFreq(const ir::Program &prog,
               const std::vector<std::pair<ProcId, std::vector<BlockId>>>
                   &activations,
               ProcId proc, const std::vector<BlockId> &seq,
               const PathProfileParams &params,
               const EdgeSet *chop = nullptr)
{
    const auto &p = prog.procs[proc];
    uint64_t count = 0;
    for (const auto &[ap, trace] : activations) {
        if (ap != proc)
            continue;
        for (size_t i = 0; i < trace.size(); ++i) {
            const size_t len = windowLen(p, trace, i, params, chop);
            if (seq.size() > len)
                continue;
            bool match = true;
            for (size_t k = 0; k < seq.size(); ++k) {
                if (trace[i - k] != seq[seq.size() - 1 - k]) {
                    match = false;
                    break;
                }
            }
            count += match;
        }
    }
    return count;
}

using WindowCounts =
    std::map<std::pair<ProcId, std::vector<BlockId>>, uint64_t>;

/** Reference for forEachPath(): each position's whole window, counted
 *  (oldest block first). */
WindowCounts
bruteForceWindows(const ir::Program &prog,
                  const std::vector<std::pair<ProcId, std::vector<BlockId>>>
                      &activations,
                  const PathProfileParams &params,
                  const EdgeSet *chop = nullptr)
{
    WindowCounts out;
    for (const auto &[proc, trace] : activations) {
        const auto &p = prog.procs[proc];
        for (size_t i = 0; i < trace.size(); ++i) {
            const size_t len = windowLen(p, trace, i, params, chop);
            std::vector<BlockId> w(trace.begin() + ptrdiff_t(i + 1 - len),
                                   trace.begin() + ptrdiff_t(i + 1));
            ++out[{proc, std::move(w)}];
        }
    }
    return out;
}

/** The suffix of @p seq that the trie's budget walk reaches: queries
 *  deeper than the budget answer for this suffix. */
std::vector<BlockId>
budgetSuffix(const ir::Procedure &p, std::vector<BlockId> seq,
             const PathProfileParams &params)
{
    auto is_cond = [&](BlockId b2) {
        return b2 < p.blocks.size() && !p.blocks[b2].empty() &&
               p.blocks[b2].terminator().isBranch();
    };
    size_t keep = 1;
    uint32_t branches = 0;
    while (keep < seq.size()) {
        const BlockId older = seq[seq.size() - 1 - keep];
        const uint32_t cost = is_cond(older) ? 1 : 0;
        if (branches + cost > params.maxBranches ||
            keep + 1 > params.maxBlocks) {
            break;
        }
        branches += cost;
        ++keep;
    }
    seq.erase(seq.begin(), seq.begin() + ptrdiff_t(seq.size() - keep));
    return seq;
}

/** alt-style loop: head -> (left|right) -> latch -> head, TTTF. */
Program
makePatternLoop(int64_t trips)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    const BlockId head = b.newBlock();   // 1
    const BlockId left = b.newBlock();   // 2
    const BlockId right = b.newBlock();  // 3
    const BlockId latch = b.newBlock();  // 4
    const BlockId done = b.newBlock();   // 5
    const RegId i = b.freshReg();
    const RegId n = b.ldi(trips);
    b.ldiTo(i, 0);
    b.jmp(head);
    b.setBlock(head);
    const RegId t = b.alui(Opcode::And, i, 3);
    const RegId c = b.alui(Opcode::CmpNe, t, 3);
    b.brnz(c, left, right);
    b.setBlock(left);
    b.jmp(latch);
    b.setBlock(right);
    b.jmp(latch);
    b.setBlock(latch);
    b.aluiTo(Opcode::Add, i, i, 1);
    const RegId more = b.alu(Opcode::CmpLt, i, n);
    b.brnz(more, head, done);
    b.setBlock(done);
    b.ret(i);
    return prog;
}

/**
 * Switch dispatch: `head` leaves through one of @p cases mid-block
 * exits, picked by an LCG; every arm jumps to `join`, which loops
 * back.  The window [join] gets @p cases children and every window
 * ending in `head` up to @p cases memoised successors, so most of the
 * trie's links live in its overflow table.
 */
Program
makeSwitchLoop(int64_t trips, int cases)
{
    Program prog;
    IrBuilder b(prog);
    prog.mainProc = b.newProc("main", 0);
    const BlockId head = b.newBlock();
    std::vector<BlockId> arms;
    for (int k = 0; k < cases; ++k)
        arms.push_back(b.newBlock());
    const BlockId join = b.newBlock();
    const BlockId done = b.newBlock();
    const RegId i = b.freshReg();
    const RegId s = b.freshReg();
    const RegId n = b.ldi(trips);
    b.ldiTo(i, 0);
    b.ldiTo(s, 12345);
    b.jmp(head);
    b.setBlock(head);
    b.aluiTo(Opcode::Mul, s, s, 1103515245);
    b.aluiTo(Opcode::Add, s, s, 12345);
    b.aluiTo(Opcode::And, s, s, 0x7fffffff);
    const RegId sel =
        b.alui(Opcode::Rem, b.alui(Opcode::Shr, s, 16), cases);
    for (int k = 0; k + 1 < cases; ++k)
        b.brnz(b.cmpEqi(sel, k), arms[size_t(k)], ir::kNoBlock);
    b.jmp(arms.back());
    for (BlockId arm : arms) {
        b.setBlock(arm);
        b.jmp(join);
    }
    b.setBlock(join);
    b.aluiTo(Opcode::Add, i, i, 1);
    b.brnz(b.cmpLt(i, n), head, done);
    b.setBlock(done);
    b.ret(i);
    return prog;
}

TEST(EdgeProfiler, CountsEdgesAndBlocks)
{
    Program prog = makePatternLoop(8); // pattern TTTF TTTF
    EdgeProfiler ep(prog);
    interp::Interpreter interp(prog);
    interp.addListener(&ep);
    interp.run({});

    EXPECT_EQ(ep.blockFreq(0, 0), 1u);
    EXPECT_EQ(ep.blockFreq(0, 1), 8u); // head, once per iteration
    EXPECT_EQ(ep.edgeFreq(0, 1, 2), 6u); // left taken 3 of 4
    EXPECT_EQ(ep.edgeFreq(0, 1, 3), 2u);
    EXPECT_EQ(ep.edgeFreq(0, 4, 1), 7u); // back edge
    EXPECT_EQ(ep.edgeFreq(0, 4, 5), 1u);
    EXPECT_EQ(ep.edgeFreq(0, 1, 5), 0u); // never an edge
}

TEST(PathProfiler, ExactPatternFrequencies)
{
    Program prog = makePatternLoop(16); // 4 periods of TTTF
    PathProfiler pp(prog);
    interp::Interpreter interp(prog);
    interp.addListener(&pp);
    interp.run({});
    pp.finalize();

    EXPECT_EQ(pp.blockFreq(0, 1), 16u);
    // Within a period, head->left happens 3 times, head->right once.
    EXPECT_EQ(pp.pathFreq(0, {1, 2}), 12u);
    EXPECT_EQ(pp.pathFreq(0, {1, 3}), 4u);
    // The paper's Fig. 3 point: after right, the next iteration goes
    // left (pattern knowledge an edge profile cannot express).
    EXPECT_EQ(pp.pathFreq(0, {3, 4, 1, 2}), 3u);
    EXPECT_EQ(pp.pathFreq(0, {3, 4, 1, 3}), 0u);
    // After two lefts following a right, still left.
    EXPECT_EQ(pp.pathFreq(0, {3, 4, 1, 2, 4, 1, 2}), 3u);
}

TEST(PathProfiler, LongestSuffixFallback)
{
    Program prog = makePatternLoop(32);
    PathProfileParams params;
    params.maxBranches = 3; // shallow profile
    PathProfiler pp(prog, params);
    interp::Interpreter interp(prog);
    interp.addListener(&pp);
    interp.run({});
    pp.finalize();

    // A query longer than the depth falls back to its longest suffix
    // with exact frequencies instead of returning 0.
    const std::vector<BlockId> longq = {1, 2, 4, 1, 2, 4, 1, 2, 4};
    const uint64_t f_long = pp.pathFreq(0, longq);
    EXPECT_GT(f_long, 0u);
    // ... and equals the frequency of the suffix the budget admits.
    const std::vector<BlockId> shallow = {1, 2, 4, 1, 2, 4};
    EXPECT_EQ(f_long, pp.pathFreq(0, shallow));
}

TEST(PathProfiler, NeverExecutedPathIsZero)
{
    Program prog = makePatternLoop(8);
    PathProfiler pp(prog);
    interp::Interpreter interp(prog);
    interp.addListener(&pp);
    interp.run({});
    pp.finalize();
    EXPECT_EQ(pp.pathFreq(0, {2, 3}), 0u); // left never precedes right
    EXPECT_EQ(pp.blockFreq(0, 5), 1u);
}

TEST(PathProfiler, PerActivationWindows)
{
    // Recursive procedure: windows must not leak across activations.
    Program prog;
    IrBuilder b(prog);
    const ProcId rec = b.newProc("rec", 1);
    {
        const BlockId base = b.newBlock(); // 1
        const BlockId deeper = b.newBlock(); // 2
        const RegId n = b.param(0);
        b.brnz(n, deeper, base);
        b.setBlock(base);
        b.ret(b.ldi(0));
        b.setBlock(deeper);
        const RegId m = b.alui(Opcode::Sub, n, 1);
        const RegId v = b.callValue(rec, {m});
        b.ret(v);
    }
    const ProcId main = b.newProc("main", 0);
    b.ret(b.callValue(rec, {b.ldi(3)}));
    prog.mainProc = main;

    PathProfiler pp(prog);
    interp::Interpreter interp(prog);
    interp.addListener(&pp);
    interp.run({});
    pp.finalize();

    // Each activation sees entry(0) then one successor; a cross-
    // activation sequence like [2, 2] along the recursion must not be
    // recorded as a path.
    EXPECT_EQ(pp.pathFreq(rec, {0, 2}), 3u);
    EXPECT_EQ(pp.pathFreq(rec, {0, 1}), 1u);
    EXPECT_EQ(pp.pathFreq(rec, {2, 2}), 0u);
}

TEST(PathProfiler, ForwardModeChopsAtBackEdges)
{
    Program prog = makePatternLoop(16);
    PathProfileParams params;
    params.forwardPathsOnly = true;
    PathProfiler pp(prog, params);
    interp::Interpreter interp(prog);
    interp.addListener(&pp);
    interp.run({});
    pp.finalize();

    // Within-iteration paths survive...
    EXPECT_EQ(pp.pathFreq(0, {1, 2, 4}), 12u);
    // ... but any path spanning the back edge (4 -> 1) is chopped.
    EXPECT_EQ(pp.pathFreq(0, {4, 1}), 0u);
    EXPECT_EQ(pp.pathFreq(0, {3, 4, 1, 2}), 0u);
}

/** A memo miss reads the window from the history of the activation
 *  alone: a callee's windows never reach into its caller's blocks. */
TEST(PathProfiler, MissWalksStopAtTheActivation)
{
    Program prog;
    IrBuilder b(prog);
    const ProcId callee = b.newProc("callee", 1);
    {
        const BlockId head = b.newBlock();  // 1
        const BlockId odd = b.newBlock();   // 2
        const BlockId even = b.newBlock();  // 3
        const BlockId latch = b.newBlock(); // 4
        const BlockId done = b.newBlock();  // 5
        const RegId n = b.param(0);
        const RegId i = b.freshReg();
        b.ldiTo(i, 0);
        b.jmp(head);
        b.setBlock(head);
        b.brnz(b.alui(Opcode::And, i, 1), odd, even);
        b.setBlock(odd);
        b.jmp(latch);
        b.setBlock(even);
        b.jmp(latch);
        b.setBlock(latch);
        b.aluiTo(Opcode::Add, i, i, 1);
        b.brnz(b.alu(Opcode::CmpLt, i, n), head, done);
        b.setBlock(done);
        b.ret(i);
    }
    prog.mainProc = b.newProc("main", 0);
    {
        const BlockId loop = b.newBlock(); // 1
        const BlockId done = b.newBlock(); // 2
        const RegId j = b.freshReg();
        b.ldiTo(j, 0);
        b.jmp(loop);
        b.setBlock(loop);
        b.callValue(callee, {b.ldi(3)});
        b.aluiTo(Opcode::Add, j, j, 1);
        b.brnz(b.alui(Opcode::CmpLt, j, 5), loop, done);
        b.setBlock(done);
        b.ret(j);
    }

    for (const bool forward : {false, true}) {
        PathProfileParams params;
        params.forwardPathsOnly = forward;
        PathProfiler pp(prog, params);
        TraceRecorder rec;
        interp::Interpreter interp(prog);
        interp.addListener(&pp);
        interp.addListener(&rec);
        interp.run({});
        WindowCounts got;
        pp.forEachPath([&](ProcId p, const std::vector<BlockId> &seq,
                           uint64_t n) { got[{p, seq}] += n; });
        WindowCounts want;
        for (const auto &[proc, trace] : rec.finished) {
            const EdgeSet chop = backEdgesOf(prog.procs[proc]);
            const std::vector<std::pair<ProcId, std::vector<BlockId>>>
                one{{proc, trace}};
            for (const auto &[key, n] : bruteForceWindows(
                     prog, one, params, forward ? &chop : nullptr))
                want[key] += n;
        }
        EXPECT_EQ(got, want) << (forward ? "forward" : "sliding");
    }
}

TEST(PathProfiler, StepAndPathCounters)
{
    Program prog = makePatternLoop(512);
    PathProfiler pp(prog);
    interp::Interpreter interp(prog);
    interp.addListener(&pp);
    interp.run({});
    pp.finalize();
    EXPECT_GT(pp.numSteps(), 0u);
    EXPECT_GT(pp.numPaths(), 0u);
    // Dynamic steps far exceed distinct paths on looping programs —
    // the precondition of the paper's O(1)-per-edge claim.
    EXPECT_GT(pp.numSteps(), uint64_t(pp.numPaths()));
}

/** Sliding (false) and forward (true) windows over a 64-way switch. */
class SwitchDispatch : public ::testing::TestWithParam<bool>
{};

TEST_P(SwitchDispatch, WideNodesMatchBruteForce)
{
    constexpr int kCases = 64;
    const Program prog = makeSwitchLoop(1500, kCases);
    PathProfileParams params;
    params.maxBranches = 4;
    params.maxBlocks = 10;
    params.forwardPathsOnly = GetParam();
    const EdgeSet chop = backEdgesOf(prog.procs[0]);
    const EdgeSet *chopp = params.forwardPathsOnly ? &chop : nullptr;

    PathProfiler pp(prog, params);
    TraceRecorder rec;
    interp::Interpreter interp(prog);
    interp.addListener(&pp);
    interp.addListener(&rec);
    interp.run({});
    pp.finalize();
    ASSERT_EQ(rec.finished.size(), 1u);
    const std::vector<BlockId> &trace = rec.finished[0].second;

    // Every raw window count, in both directions.
    WindowCounts got;
    pp.forEachPath([&](ProcId p, const std::vector<BlockId> &seq,
                       uint64_t n) { got[{p, seq}] += n; });
    EXPECT_EQ(got, bruteForceWindows(prog, rec.finished, params, chopp));

    // Every block, including the arms that hang off one wide node.
    const BlockId head = 1;
    const BlockId join = BlockId(kCases) + 2;
    for (BlockId b = 0; b < prog.procs[0].blocks.size(); ++b) {
        EXPECT_EQ(pp.blockFreq(0, b),
                  bruteForceFreq(prog, rec.finished, 0, {b}, params,
                                 chopp))
            << "block " << b;
    }
    for (int k = 0; k < kCases; ++k) {
        const BlockId arm = head + 1 + BlockId(k);
        EXPECT_GT(pp.pathFreq(0, {arm, join}), 0u) << "arm " << k;
        EXPECT_GT(pp.pathFreq(0, {head, arm}), 0u) << "arm " << k;
    }

    // Every suffix of every 12th window, over-budget ones included.
    for (size_t end = 0; end < trace.size(); end += 12) {
        for (size_t len = 1; len <= std::min<size_t>(end + 1, 12); ++len) {
            const std::vector<BlockId> seq = budgetSuffix(
                prog.procs[0],
                std::vector<BlockId>(trace.begin() + ptrdiff_t(end + 1 - len),
                                     trace.begin() + ptrdiff_t(end + 1)),
                params);
            EXPECT_EQ(pp.pathFreq(0, seq),
                      bruteForceFreq(prog, rec.finished, 0, seq, params,
                                     chopp))
                << "end " << end << " len " << len;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Windows, SwitchDispatch, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return info.param ? "Forward" : "Sliding";
                         });

TEST(PathProfiler, BlocksBeyondTheProfiledProcedureAreZero)
{
    // Formation asks about blocks tail duplication created after the
    // training run; the profiled procedure never had them.
    Program prog = makePatternLoop(64);
    PathProfiler pp(prog);
    interp::Interpreter interp(prog);
    interp.addListener(&pp);
    interp.run({});
    pp.finalize();

    const BlockId head = 1;
    const BlockId latch = 4;
    ASSERT_GT(pp.blockFreq(0, head), 0u);
    ASSERT_GT(pp.pathFreq(0, {latch, head}), 0u);
    const BlockId nblocks = BlockId(prog.procs[0].blocks.size());
    for (BlockId b : {nblocks, nblocks + 1, nblocks + 1000, ir::kNoBlock}) {
        EXPECT_EQ(pp.blockFreq(0, b), 0u) << b;
        EXPECT_EQ(pp.pathFreq(0, {b}), 0u) << b;
        EXPECT_EQ(pp.pathFreq(0, {latch, b}), 0u) << b;
        EXPECT_EQ(pp.pathFreq(0, {b, head}), 0u) << b;
        EXPECT_EQ(pp.pathFreq(0, {latch, b, head}), 0u) << b;
    }
}

TEST(PathProfiler, TrieBytesIsDeterministic)
{
    const Program prog = makeSwitchLoop(500, 64);
    PathProfiler a(prog);
    PathProfiler b(prog);
    interp::Interpreter interp(prog);
    interp.addListener(&a);
    interp.addListener(&b);
    interp.run({});
    EXPECT_EQ(a.trieBytes(), b.trieBytes());
    // A node is 32 bytes; the figure covers at least every node.
    EXPECT_GE(a.trieBytes(), 32 * a.numPaths());
    const size_t before = a.trieBytes();
    a.finalize();
    // The subtree sums reuse the dead successor-memo word.
    EXPECT_EQ(a.trieBytes(), before);
}

TEST(PathProfiler, CopiesAndMovesOwnTheirNodes)
{
    const Program prog = makeSwitchLoop(200, 16);
    PathProfiler trained(prog);
    interp::Interpreter interp(prog);
    interp.addListener(&trained);
    interp.run({});

    PathProfiler copy = trained;
    EXPECT_EQ(copy.numPaths(), trained.numPaths());
    EXPECT_LE(copy.trieBytes(), trained.trieBytes()); // exact-size copy
    PathProfiler moved = std::move(copy);
    copy = trained; // assignable after being moved from
    trained.finalize();
    moved.finalize();
    copy.finalize();
    for (BlockId b = 0; b < prog.procs[0].blocks.size(); ++b) {
        EXPECT_EQ(moved.blockFreq(0, b), trained.blockFreq(0, b)) << b;
        EXPECT_EQ(copy.blockFreq(0, b), trained.blockFreq(0, b)) << b;
    }
}

TEST(PathProfilerDeathTest, StepAfterFinalizeAsserts)
{
    const Program prog = makePatternLoop(4);
    PathProfiler pp(prog);
    interp::Interpreter interp(prog);
    interp.addListener(&pp);
    interp.run({});
    pp.finalize();
    EXPECT_DEATH(pp.onProcEnter(0), "step after finalize");
}

/** A memo miss is the first time a window meets a next block; entering
 *  a procedure and leaving a back edge in forward mode start from the
 *  empty window and consult no memo. */
TEST_P(SwitchDispatch, MemoMissesAreFirstMeetings)
{
    const Program prog = makeSwitchLoop(300, 16);
    PathProfileParams params;
    params.maxBranches = 3;
    params.forwardPathsOnly = GetParam();
    const EdgeSet chop = backEdgesOf(prog.procs[0]);
    const EdgeSet *chopp = params.forwardPathsOnly ? &chop : nullptr;

    PathProfiler pp(prog, params);
    TraceRecorder rec;
    interp::Interpreter interp(prog);
    interp.addListener(&pp);
    interp.addListener(&rec);
    interp.run({});

    std::set<std::pair<std::vector<BlockId>, BlockId>> meetings;
    for (const auto &[proc, trace] : rec.finished) {
        for (size_t i = 0; i + 1 < trace.size(); ++i) {
            if (chopp != nullptr && chopp->count({trace[i], trace[i + 1]}))
                continue;
            const size_t len =
                windowLen(prog.procs[proc], trace, i, params, chopp);
            meetings.insert(
                {std::vector<BlockId>(trace.begin() + ptrdiff_t(i + 1 - len),
                                      trace.begin() + ptrdiff_t(i + 1)),
                 trace[i + 1]});
        }
    }
    EXPECT_EQ(pp.memoMisses(), meetings.size());
    EXPECT_LT(pp.memoMisses(), pp.numSteps());
}

/** Differential property test against the brute-force reference. */
class PathProfileProperty : public ::testing::TestWithParam<uint64_t>
{};

/**
 * Profile random program @p seed under @p params and check sampled
 * pathFreq() queries against the brute-force reference.
 */
void
expectSampledQueriesMatch(uint64_t seed, const PathProfileParams &params)
{
    pstest::GeneratedProgram gen = pstest::makeRandomProgram(seed);

    PathProfiler pp(gen.program, params);
    TraceRecorder rec;
    interp::Interpreter interp(gen.program);
    interp.addListener(&pp);
    interp.addListener(&rec);
    interp.run(gen.input);
    pp.finalize();

    // Sample query sequences from real trace windows plus mutations.
    Rng rng(seed ^ 0xabcdef);
    int checked = 0;
    for (const auto &[proc, trace] : rec.finished) {
        if (trace.empty() || checked > 40)
            continue;
        for (int q = 0; q < 6; ++q) {
            const size_t end = rng.below(trace.size());
            const size_t len = 1 + rng.below(std::min<size_t>(end + 1, 8));
            std::vector<BlockId> seq(trace.begin() + ptrdiff_t(end + 1 - len),
                                     trace.begin() + ptrdiff_t(end + 1));
            if (rng.chance(0.2) && !seq.empty())
                seq[rng.below(seq.size())] ^= 1; // likely-bogus mutation
            // The trie returns longest-suffix counts for over-budget
            // queries; truncate the query by the same budget rule so
            // the brute-force reference answers the same question.
            seq = budgetSuffix(gen.program.procs[proc], std::move(seq),
                               params);
            const uint64_t expect = bruteForceFreq(
                gen.program, rec.finished, proc, seq, params);
            const uint64_t got = pp.pathFreq(proc, seq);
            if (expect > 0 || got > 0) {
                EXPECT_EQ(got, expect)
                    << "seed " << seed << " proc " << proc << " len "
                    << seq.size();
            }
            ++checked;
        }
    }
    EXPECT_GT(checked, 0);
}

TEST_P(PathProfileProperty, MatchesBruteForce)
{
    PathProfileParams params;
    params.maxBranches = 4; // small depth stresses the budget logic
    params.maxBlocks = 10;
    expectSampledQueriesMatch(GetParam(), params);
}

/** Three blocks per path: the block cap, not the branch budget, ends
 *  the windows, so a memo-miss walk stops on length. */
TEST_P(PathProfileProperty, MatchesBruteForceWithBindingMaxBlocks)
{
    const uint64_t seed = GetParam();
    PathProfileParams params;
    params.maxBlocks = 3;
    expectSampledQueriesMatch(seed, params);

    // Every raw window matches, and the cap really ends some of them
    // wherever an activation runs longer than it (some seeds generate
    // straight-line programs).
    pstest::GeneratedProgram gen = pstest::makeRandomProgram(seed);
    PathProfiler pp(gen.program, params);
    TraceRecorder rec;
    interp::Interpreter interp(gen.program);
    interp.addListener(&pp);
    interp.addListener(&rec);
    interp.run(gen.input);
    WindowCounts got;
    pp.forEachPath([&](ProcId p, const std::vector<BlockId> &seq,
                       uint64_t n) { got[{p, seq}] += n; });
    EXPECT_EQ(got, bruteForceWindows(gen.program, rec.finished, params));
    size_t longest = 0;
    for (const auto &[proc, trace] : rec.finished)
        longest = std::max(longest, trace.size());
    if (longest > params.maxBlocks) {
        PathProfileParams uncapped = params;
        uncapped.maxBlocks = PathProfileParams().maxBlocks;
        EXPECT_NE(got,
                  bruteForceWindows(gen.program, rec.finished, uncapped));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathProfileProperty,
                         ::testing::Range<uint64_t>(1, 21));

} // namespace
} // namespace pathsched::profile
