/**
 * The shortcuts of the compact -> regalloc -> postsched chain, each
 * checked against the work it skips:
 *  - the postschedule keeps every block schedule register allocation
 *    left valid, which must equal rescheduling that block;
 *  - compaction hands its final liveness solve to allocation, which
 *    must equal a fresh solve of the compacted procedure;
 *  - the liveness worklist re-solves a block only when a successor's
 *    live-in grew, which must equal sweeping every block until nothing
 *    changes (the round-robin solver it replaced, kept here).
 * Subjects: the 14 workloads under the paper's five backends, the fuzz
 * corpus, 200 generated programs shaped like perfbench's gen-mix, and
 * one program with more values live at once than the machine has
 * registers, the only subject whose allocation spills.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/liveness.hpp"
#include "gen/generator.hpp"
#include "interp/interpreter.hpp"
#include "ir/builder.hpp"
#include "pipeline/backend.hpp"
#include "profile/edge_profile.hpp"
#include "profile/path_profile.hpp"
#include "regalloc/linear_scan.hpp"
#include "sched/compact.hpp"
#include "sched/local_opt.hpp"
#include "sched/renamer.hpp"
#include "support/bitvec.hpp"
#include "workloads/workloads.hpp"

namespace pathsched {
namespace {

struct Subject
{
    std::string name;
    ir::Program program;
    interp::ProgramInput train;
};

/**
 * A loop with a branch in its body, run while 140 values computed
 * before it stay live until after it: more than the machine's 128
 * registers, so allocation spills, but the loop's blocks name none of
 * the 140.
 */
Subject
highPressure()
{
    Subject s{"high-pressure", {}, {}};
    ir::IrBuilder b(s.program);
    s.program.mainProc = b.newProc("main", 1);
    const ir::BlockId head = b.newBlock();
    const ir::BlockId odd = b.newBlock();
    const ir::BlockId even = b.newBlock();
    const ir::BlockId latch = b.newBlock();
    const ir::BlockId done = b.newBlock();
    const ir::RegId n = b.param(0);
    std::vector<ir::RegId> vals;
    for (int k = 0; k < 140; ++k)
        vals.push_back(b.addi(n, k));
    const ir::RegId i = b.ldi(0);
    const ir::RegId acc = b.ldi(0);
    b.jmp(head);
    b.setBlock(head);
    b.brnz(b.alui(ir::Opcode::And, i, 1), odd, even);
    b.setBlock(odd);
    b.aluiTo(ir::Opcode::Add, acc, acc, 3);
    b.jmp(latch);
    b.setBlock(even);
    b.aluTo(ir::Opcode::Xor, acc, acc, i);
    b.jmp(latch);
    b.setBlock(latch);
    b.aluiTo(ir::Opcode::Add, i, i, 1);
    b.brnz(b.cmpLt(i, n), head, done);
    b.setBlock(done);
    ir::RegId sum = acc;
    for (const ir::RegId v : vals)
        sum = b.add(sum, v);
    b.ret(sum);
    s.train.mainArgs = {50};
    return s;
}

/** The 14 workloads, every corpus spec, 200 generated programs, and
 *  the high-pressure program. */
std::vector<Subject>
subjects()
{
    std::vector<Subject> out;
    for (workloads::Workload &w : workloads::standardBenchmarks())
        out.push_back({w.name, std::move(w.program), std::move(w.train)});

    std::vector<std::filesystem::path> specs;
    for (const auto &de :
         std::filesystem::directory_iterator(PATHSCHED_CORPUS_DIR)) {
        if (de.path().extension() == ".spec")
            specs.push_back(de.path());
    }
    std::sort(specs.begin(), specs.end());
    for (const auto &path : specs) {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line) && (line.empty() || line[0] == '#')) {
        }
        gen::GenSpec spec;
        std::string err;
        EXPECT_TRUE(gen::GenSpec::parse(line, spec, err))
            << path << ": " << err;
        gen::Workload w = gen::generate(spec);
        out.push_back({path.filename().string(), std::move(w.program),
                       std::move(w.train)});
    }

    static const gen::BranchKind kFamilies[] = {
        gen::BranchKind::Random, gen::BranchKind::Tttf,
        gen::BranchKind::Phased, gen::BranchKind::Correlated,
        gen::BranchKind::Mixed};
    for (uint32_t i = 0; i < 200; ++i) {
        gen::GenSpec spec;
        spec.seed = 1 + i;
        spec.branch = kFamilies[i % 5];
        spec.procs = 3 + (i / 5) % 12;
        spec.stmts = 8;
        spec.maxTrips = 12;
        gen::Workload w = gen::generate(spec);
        out.push_back({spec.toString(), std::move(w.program),
                       std::move(w.train)});
    }
    out.push_back(highPressure());
    return out;
}

/**
 * Run @p s through each paper backend's transform and compaction, one
 * procedure at a time as the pipeline's chain does, and call
 * @p compacted(prog, proc, live, label) with compaction's handed-off
 * liveness solve after each procedure compacts.  Then call
 * @p finished(prog, label) once every procedure has compacted.  When
 * given, @p transformed(prog, proc, label) sees each procedure between
 * its transform and its compaction.
 */
void
forEachCompacted(
    const Subject &s,
    const std::function<void(ir::Program &, ir::ProcId,
                             const analysis::Liveness &,
                             const std::string &)> &compacted,
    const std::function<void(ir::Program &, const std::string &)>
        &finished,
    const std::function<void(ir::Program &, ir::ProcId,
                             const std::string &)> &transformed = {})
{
    const pipeline::PipelineOptions opt;
    profile::EdgeProfiler edge(s.program);
    profile::PathProfiler path(s.program, opt.pathParams);
    {
        interp::InterpOptions iopts;
        iopts.maxSteps = opt.maxSteps;
        interp::Interpreter it(s.program, iopts);
        it.addListener(&edge);
        it.addListener(&path);
        ASSERT_FALSE(it.run(s.train).truncated()) << s.name;
    }
    path.finalize();
    profile::EdgeProfiler projected(s.program);
    const obs::Observer no_sink;

    for (const char *name : {"BB", "M4", "M16", "P4", "P4e"}) {
        const pipeline::BackendDesc *be = pipeline::findBackend(name);
        ASSERT_NE(be, nullptr) << name;
        const std::string label = s.name + "/" + name;
        ir::Program prog = s.program;
        pipeline::TransformContext tc;
        tc.config = be->config;
        tc.opt = &opt;
        tc.edge = &edge;
        tc.path = &path;
        tc.projectedEdge = &projected;
        tc.timed = &no_sink;
        pipeline::TransformStats xf;
        sched::CompactOptions copts;
        std::optional<analysis::Liveness> live;
        copts.liveness = &live;
        for (ir::ProcId p = 0; p < prog.procs.size(); ++p) {
            if (be->hasTransform()) {
                const char *stage = be->transformLabel;
                ASSERT_TRUE(be->transform(prog, p, tc, xf, &stage).ok())
                    << label;
            }
            if (transformed)
                transformed(prog, p, label);
            sched::CompactStats cs;
            ASSERT_TRUE(sched::compactProcedure(prog, p, opt.machine,
                                                copts, cs)
                            .ok())
                << label;
            ASSERT_TRUE(live.has_value()) << label;
            compacted(prog, p, *live, label);
        }
        finished(prog, label);
    }
}

bool
sameInstr(const ir::Instruction &a, const ir::Instruction &b)
{
    return a.op == b.op && a.useImm == b.useImm && a.dst == b.dst &&
           a.src1 == b.src1 && a.src2 == b.src2 && a.imm == b.imm &&
           a.target0 == b.target0 && a.target1 == b.target1 &&
           a.callee == b.callee && a.args == b.args;
}

/**
 * The round-robin liveness solver analysis::Liveness used before its
 * worklist: sweep every block in reverse index order until a sweep
 * changes nothing.  Kept as the oracle for the worklist.
 */
struct RoundRobinLiveness
{
    std::vector<BitVec> liveIn, liveOut;

    explicit RoundRobinLiveness(const ir::Procedure &proc)
    {
        const size_t n = proc.blocks.size();
        const size_t nregs = proc.numRegs;
        // Per exit: its targets and the block's defs before it.
        struct Exit
        {
            ir::BlockId target0, target1;
            BitVec defsBefore;
        };
        std::vector<BitVec> use(n, BitVec(nregs));
        std::vector<std::vector<Exit>> exits(n);
        std::vector<ir::RegId> srcs;
        for (ir::BlockId b = 0; b < n; ++b) {
            BitVec defs(nregs);
            for (const ir::Instruction &ins : proc.blocks[b].instrs) {
                ins.sources(srcs);
                for (ir::RegId r : srcs) {
                    if (!defs.test(r))
                        use[b].set(r);
                }
                if (ins.isBranch() || ins.op == ir::Opcode::Jmp)
                    exits[b].push_back({ins.target0,
                                        ins.isBranch() ? ins.target1
                                                       : ir::kNoBlock,
                                        defs});
                if (ins.hasDst())
                    defs.set(ins.dst);
            }
        }
        liveIn.assign(n, BitVec(nregs));
        liveOut.assign(n, BitVec(nregs));
        BitVec out(nregs), in(nregs), flow(nregs);
        for (bool changed = true; changed;) {
            changed = false;
            for (size_t i = n; i-- > 0;) {
                out.clear();
                in = use[i];
                for (const Exit &e : exits[i]) {
                    flow = liveIn[e.target0];
                    if (e.target1 != ir::kNoBlock)
                        flow.unionWith(liveIn[e.target1]);
                    out.unionWith(flow);
                    flow.subtract(e.defsBefore);
                    in.unionWith(flow);
                }
                if (!(out == liveOut[i])) {
                    liveOut[i] = out;
                    changed = true;
                }
                if (!(in == liveIn[i])) {
                    liveIn[i] = in;
                    changed = true;
                }
            }
        }
    }
};

bool
sameSet(const analysis::Liveness::Row &row, const BitVec &want)
{
    return row.size() == want.size() &&
           std::equal(row.words(), row.words() + row.numWords(),
                      want.words());
}

/** Solve @p proc both ways and require every row equal. */
void
expectWorklistMatchesRoundRobin(const ir::Procedure &proc,
                                const std::string &where,
                                uint64_t &rows)
{
    const analysis::Liveness live(proc);
    const RoundRobinLiveness want(proc);
    ASSERT_EQ(live.numRegs(), proc.numRegs) << where;
    ASSERT_GE(live.visits(), proc.blocks.size()) << where;
    for (ir::BlockId b = 0; b < proc.blocks.size(); ++b) {
        ASSERT_TRUE(sameSet(live.liveIn(b), want.liveIn[b]))
            << where << " " << proc.name << " live-in of block " << b;
        ASSERT_TRUE(sameSet(live.liveOut(b), want.liveOut[b]))
            << where << " " << proc.name << " live-out of block " << b;
        rows += 2;
    }
}

/**
 * Every live-in and live-out row of the worklist solve equals the
 * round-robin solve at the three points the pipeline solves at: before
 * compaction, after compaction's phase 1 (locally optimized and
 * renamed, stubs appended) and after register allocation.
 */
TEST(Liveness, WorklistMatchesRoundRobin)
{
    const machine::MachineModel mm = pipeline::PipelineOptions().machine;
    uint64_t rows = 0;
    for (const Subject &s : subjects()) {
        regalloc::AllocStats alloc;
        forEachCompacted(
            s,
            [&](ir::Program &prog, ir::ProcId p,
                const analysis::Liveness &live, const std::string &label) {
                regalloc::AllocOptions ao;
                ao.liveness = &live;
                ASSERT_TRUE(regalloc::allocateProcedure(
                                prog, p, mm.numRegs, alloc, ao)
                                .ok())
                    << label;
                expectWorklistMatchesRoundRobin(
                    prog.procs[p], label + " after regalloc", rows);
            },
            [](ir::Program &, const std::string &) {},
            [&](ir::Program &prog, ir::ProcId p, const std::string &label) {
                expectWorklistMatchesRoundRobin(
                    prog.procs[p], label + " before compaction", rows);
                if (HasFatalFailure())
                    return;
                // Compaction's phase 1 on a copy, as compactProcedure
                // runs it.
                ir::Procedure phase1 = prog.procs[p];
                phase1.syncSideTables();
                const size_t original = phase1.blocks.size();
                {
                    const analysis::Liveness live(phase1);
                    for (ir::BlockId b = 0; b < original; ++b) {
                        sched::optimizeBlock(phase1, b, live);
                        sched::renameBlock(phase1, b, live);
                    }
                }
                phase1.syncSideTables();
                expectWorklistMatchesRoundRobin(
                    phase1, label + " after phase 1", rows);
            });
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(rows, 600000u);
}

TEST(Liveness, HandoffEqualsFreshSolve)
{
    uint64_t blocks = 0;
    for (const Subject &s : subjects()) {
        forEachCompacted(
            s,
            [&](ir::Program &prog, ir::ProcId p,
                const analysis::Liveness &handed, const std::string &label) {
                const ir::Procedure &proc = prog.procs[p];
                const analysis::Liveness fresh(proc);
                ASSERT_EQ(handed.numRegs(), fresh.numRegs()) << label;
                for (ir::BlockId b = 0; b < proc.blocks.size(); ++b) {
                    ASSERT_TRUE(handed.liveIn(b) == fresh.liveIn(b))
                        << label << " " << proc.name << " block " << b;
                    ASSERT_TRUE(handed.liveOut(b) == fresh.liveOut(b))
                        << label << " " << proc.name << " block " << b;
                    ++blocks;
                }
            },
            [](ir::Program &, const std::string &) {});
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(blocks, 100000u);
}

/**
 * Allocate each procedure with the handed-off solve, as the pipeline
 * does, then postschedule the program twice: as the pipeline does
 * (keeping every schedule allocation left valid), and on a copy with
 * every schedule cleared (rescheduling everything).  Every block must
 * come out with the same instructions, order, cycles and superblock
 * ordinals, and the two ScheduleStats must agree.
 */
TEST(Postsched, KeptBlocksMatchAReschedule)
{
    const machine::MachineModel mm = pipeline::PipelineOptions().machine;
    uint64_t blocks = 0, kept = 0, keptInSpilled = 0;
    for (const Subject &s : subjects()) {
        regalloc::AllocStats alloc;
        // Per backend: the procedures allocation spilled in.
        std::vector<uint8_t> spilled;
        forEachCompacted(
            s,
            [&](ir::Program &prog, ir::ProcId p,
                const analysis::Liveness &live, const std::string &label) {
                regalloc::AllocOptions ao;
                ao.liveness = &live;
                const uint64_t before = alloc.regsSpilled;
                ASSERT_TRUE(regalloc::allocateProcedure(
                                prog, p, mm.numRegs, alloc, ao)
                                .ok())
                    << label;
                spilled.resize(prog.procs.size());
                spilled[p] = alloc.regsSpilled != before;
            },
            [&](ir::Program &prog, const std::string &label) {
                // The schedules the postschedule will keep in
                // procedures that spilled: a spill clears only the
                // blocks it inserts code into.
                for (ir::ProcId p = 0; p < spilled.size(); ++p) {
                    if (!spilled[p])
                        continue;
                    const ir::Procedure &proc = prog.procs[p];
                    for (ir::BlockId b = 0; b < proc.blocks.size(); ++b) {
                        const ir::BlockSchedule &sch = proc.schedules[b];
                        keptInSpilled +=
                            sch.valid && sch.cycleOf.size() ==
                                             proc.blocks[b].instrs.size();
                    }
                }
                spilled.clear();
                ir::Program fresh = prog;
                for (ir::Procedure &proc : fresh.procs) {
                    for (ir::BlockSchedule &sch : proc.schedules)
                        sch.valid = false;
                }
                const sched::ScheduleStats got =
                    sched::scheduleProgram(prog, mm);
                const sched::ScheduleStats want =
                    sched::scheduleProgram(fresh, mm);
                EXPECT_EQ(got.blocksScheduled, want.blocksScheduled)
                    << label;
                EXPECT_EQ(got.totalCycles, want.totalCycles) << label;
                EXPECT_EQ(got.loadsSpeculated, want.loadsSpeculated)
                    << label;
                EXPECT_EQ(want.blocksKept, 0u) << label;
                kept += got.blocksKept;
                for (ir::ProcId p = 0; p < prog.procs.size(); ++p) {
                    const ir::Procedure &a = prog.procs[p];
                    const ir::Procedure &b = fresh.procs[p];
                    for (ir::BlockId k = 0; k < a.blocks.size(); ++k) {
                        const std::string where = label + " " + a.name +
                                                  " block " +
                                                  std::to_string(k);
                        const auto &ia = a.blocks[k].instrs;
                        const auto &ib = b.blocks[k].instrs;
                        ASSERT_EQ(ia.size(), ib.size()) << where;
                        for (size_t i = 0; i < ia.size(); ++i)
                            ASSERT_TRUE(sameInstr(ia[i], ib[i]))
                                << where << " slot " << i;
                        ASSERT_EQ(a.schedules[k].cycleOf,
                                  b.schedules[k].cycleOf)
                            << where;
                        ASSERT_EQ(a.schedules[k].numCycles,
                                  b.schedules[k].numCycles)
                            << where;
                        ASSERT_EQ(a.superblocks[k].srcOrdinalOf,
                                  b.superblocks[k].srcOrdinalOf)
                            << where;
                        ++blocks;
                    }
                }
            });
        if (HasFatalFailure())
            return;
    }
    // Most blocks are kept; a rule that keeps none proves nothing.
    EXPECT_GT(kept, blocks / 2);
    EXPECT_LT(kept, blocks);
    EXPECT_GT(keptInSpilled, 0u);
}

} // namespace
} // namespace pathsched
