#include "sched/scheduler.hpp"

#include <algorithm>
#include <functional>

#include "sched/depgraph.hpp"
#include "sched/exit_live.hpp"
#include "support/logging.hpp"
#include "support/strutil.hpp"

namespace pathsched::sched {

using ir::BlockId;
using ir::Instruction;
using ir::Opcode;

namespace {

/**
 * Per-thread scheduling scratch, reused block after block so that a
 * block's scheduling allocates nothing once the buffers have grown.
 *
 * Ready ops wait in two max-heaps of priority keys, one for control-slot
 * ops and one for the rest, so a saturated control slot never hides a
 * lower-priority ordinary op.  Ops whose predecessors are all issued but
 * whose earliest start lies in the future wait in a min-heap keyed on
 * (earliest start, index).
 */
struct SchedScratch
{
    std::vector<ExitInfo> exits;
    DepGraph graph;
    std::vector<uint32_t> predsLeft, est, cyc, issueOrder, issuePos;
    std::vector<uint64_t> ready[2]; ///< [0] ordinary, [1] control-slot
    std::vector<uint64_t> waiting;
    std::vector<Instruction> instrs;
    std::vector<uint32_t> ordinals;
};

} // namespace

ScheduleStats
scheduleBlock(ir::Procedure &proc, BlockId b,
              const analysis::Liveness &live,
              const machine::MachineModel &mm, SchedPriority priority)
{
    ScheduleStats stats;
    ir::BasicBlock &bb = proc.blocks[b];
    const uint32_t n = uint32_t(bb.instrs.size());
    ps_assert(n > 0);

    thread_local SchedScratch scratch;
    SchedScratch &s = scratch;
    collectExits(proc, b, live, s.exits);
    s.graph.build(bb.instrs, s.exits, mm);
    const DepGraph &graph = s.graph;

    // Priority key, larger first.  Default: highest critical-path height
    // first, original order breaking ties (deterministic).  SourceOrder
    // takes the earliest ready instruction instead (ablation).
    const bool by_height = priority == SchedPriority::CriticalPath;
    auto key_of = [&](uint32_t i) {
        const uint64_t h = by_height ? graph.height(i) : 0;
        return (h << 32) | uint32_t(~i);
    };
    auto make_ready = [&](uint32_t i) {
        std::vector<uint64_t> &q = s.ready[bb.instrs[i].isControlSlot()];
        q.push_back(key_of(i));
        std::push_heap(q.begin(), q.end());
    };
    // Called once all of i's predecessors have issued.
    auto release = [&](uint32_t i, uint32_t cycle) {
        if (s.est[i] <= cycle) {
            make_ready(i);
        } else {
            s.waiting.push_back((uint64_t(s.est[i]) << 32) | i);
            std::push_heap(s.waiting.begin(), s.waiting.end(),
                           std::greater<>());
        }
    };

    s.predsLeft.resize(n);
    s.est.assign(n, 0);
    s.cyc.resize(n);
    s.issueOrder.clear();
    s.ready[0].clear();
    s.ready[1].clear();
    s.waiting.clear();
    for (uint32_t i = 0; i < n; ++i) {
        s.predsLeft[i] = graph.numPreds(i);
        if (s.predsLeft[i] == 0)
            release(i, 0);
    }

    uint32_t cycle = 0;
    while (s.issueOrder.size() < n) {
        while (!s.waiting.empty() && (s.waiting.front() >> 32) <= cycle) {
            const uint32_t i = uint32_t(s.waiting.front());
            std::pop_heap(s.waiting.begin(), s.waiting.end(),
                          std::greater<>());
            s.waiting.pop_back();
            make_ready(i);
        }
        uint32_t slots = 0;
        uint32_t control = 0;
        while (slots < mm.issueWidth) {
            const bool control_ok =
                control < mm.controlPerCycle && !s.ready[1].empty();
            if (!control_ok && s.ready[0].empty())
                break;
            const bool take_control =
                control_ok && (s.ready[0].empty() ||
                               s.ready[1].front() > s.ready[0].front());
            std::vector<uint64_t> &q = s.ready[take_control];
            std::pop_heap(q.begin(), q.end());
            const uint32_t best = ~uint32_t(q.back()); // see key_of
            q.pop_back();
            s.cyc[best] = cycle;
            s.issueOrder.push_back(best);
            ++slots;
            if (take_control)
                ++control;
            // Zero-latency successors become ready in this same cycle.
            for (const DepGraph::Edge &e : graph.succs(best)) {
                s.est[e.to] = std::max(s.est[e.to], cycle + e.latency);
                if (--s.predsLeft[e.to] == 0)
                    release(e.to, cycle);
            }
        }
        if (s.issueOrder.size() == n)
            break;
        // Advance to the earliest cycle at which anything can start.
        if (!s.ready[0].empty() || !s.ready[1].empty()) {
            ++cycle;
        } else {
            ps_assert_msg(!s.waiting.empty(),
                          "scheduler wedged: dependence cycle in block");
            cycle = std::max(cycle + 1,
                             uint32_t(s.waiting.front() >> 32));
        }
    }

    // Flatten into issue order (through the scratch copy, so the
    // block keeps its own storage) and fill the schedule side table.
    ir::SuperblockInfo &sb = proc.superblocks[b];
    ir::BlockSchedule &sched = proc.schedules[b];
    s.instrs.clear();
    s.ordinals.clear();
    s.issuePos.resize(n);
    sched.cycleOf.resize(n);
    for (uint32_t k = 0; k < n; ++k) {
        const uint32_t i = s.issueOrder[k];
        s.issuePos[i] = k;
        s.instrs.push_back(std::move(bb.instrs[i]));
        sched.cycleOf[k] = s.cyc[i];
        if (sb.isSuperblock)
            s.ordinals.push_back(sb.srcOrdinalOf[i]);
    }
    std::move(s.instrs.begin(), s.instrs.end(), bb.instrs.begin());
    if (sb.isSuperblock)
        std::copy(s.ordinals.begin(), s.ordinals.end(),
                  sb.srcOrdinalOf.begin());

    // Convert loads hoisted above an earlier conditional branch into
    // non-excepting speculative loads (§2.3, §3.2): walking the original
    // order, a load is speculative when some earlier branch issues after
    // it, i.e. when it issues before the latest-issued earlier branch.
    uint32_t branch_bound = 0; // 1 + latest issue position of a branch
    for (uint32_t i = 0; i < n; ++i) {
        Instruction &ins = bb.instrs[s.issuePos[i]];
        if (ins.op == Opcode::Ld && s.issuePos[i] + 1 < branch_bound) {
            ins.op = Opcode::LdSpec;
            ++stats.loadsSpeculated;
        } else if (ins.isBranch()) {
            branch_bound = std::max(branch_bound, s.issuePos[i] + 1);
        }
    }

    sched.valid = true;
    sched.numCycles = sched.cycleOf.back() + 1;

    ++stats.blocksScheduled;
    stats.totalCycles += sched.numCycles;
    return stats;
}

bool
validateSchedule(const ir::Procedure &proc, BlockId b,
                 const analysis::Liveness &live,
                 const machine::MachineModel &mm,
                 std::vector<std::string> &errors)
{
    const ir::BasicBlock &bb = proc.blocks[b];
    const ir::BlockSchedule &sched = proc.schedules[b];
    const size_t before = errors.size();

    if (!sched.valid) {
        errors.push_back(strfmt("block %u: no schedule", b));
        return false;
    }
    if (sched.cycleOf.size() != bb.instrs.size()) {
        errors.push_back(strfmt("block %u: schedule size mismatch", b));
        return false;
    }

    // Cycles must be non-decreasing in linear order.
    for (size_t i = 1; i < bb.instrs.size(); ++i) {
        if (sched.cycleOf[i] < sched.cycleOf[i - 1]) {
            errors.push_back(
                strfmt("block %u: cycle order violated at %zu", b, i));
        }
    }

    // Re-derive the dependence graph from the (current) linear order
    // and check every edge against the recorded cycles.
    std::vector<ExitInfo> exits;
    collectExits(proc, b, live, exits);
    const DepGraph graph(bb.instrs, exits, mm);
    for (uint32_t u = 0; u < bb.instrs.size(); ++u) {
        for (const DepGraph::Edge &e : graph.succs(u)) {
            if (e.latency > 0 &&
                sched.cycleOf[e.to] < sched.cycleOf[u] + e.latency) {
                errors.push_back(strfmt(
                    "block %u: edge %u->%u latency %u violated "
                    "(cycles %u, %u)",
                    b, u, e.to, e.latency, sched.cycleOf[u],
                    sched.cycleOf[e.to]));
            }
        }
    }

    // Resource limits per cycle.
    const uint32_t cycles = sched.numCycles;
    std::vector<uint32_t> slots(cycles, 0), control(cycles, 0);
    for (size_t i = 0; i < bb.instrs.size(); ++i) {
        ++slots[sched.cycleOf[i]];
        if (bb.instrs[i].isControlSlot())
            ++control[sched.cycleOf[i]];
    }
    for (uint32_t c = 0; c < cycles; ++c) {
        if (slots[c] > mm.issueWidth) {
            errors.push_back(
                strfmt("block %u: %u ops in cycle %u", b, slots[c], c));
        }
        if (control[c] > mm.controlPerCycle) {
            errors.push_back(strfmt("block %u: %u control ops in cycle %u",
                                    b, control[c], c));
        }
    }

    return errors.size() == before;
}

} // namespace pathsched::sched
