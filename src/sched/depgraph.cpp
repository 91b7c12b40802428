#include "sched/depgraph.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "support/logging.hpp"
#include "support/mutation.hpp"

namespace pathsched::sched {

using ir::Instruction;
using ir::kNoReg;
using ir::Opcode;
using ir::RegId;

namespace {

/** Memory-op summary for simple base+offset disambiguation. */
struct MemRef
{
    uint32_t idx;
    bool isLoad;     // Ld/LdSpec
    bool isStore;    // St
    bool isBarrier;  // Call or Emit: never disambiguated
    RegId base = kNoReg;
    int64_t offset = 0;
    /** Index of the in-block def of `base`, or UINT32_MAX (live-in). */
    uint32_t baseVersion = UINT32_MAX;
};

/**
 * True when the two references provably touch different words: same
 * base register value (same in-block version) with different offsets.
 */
bool
provablyDisjoint(const MemRef &a, const MemRef &b)
{
    if (a.isBarrier || b.isBarrier)
        return false;
    return a.base == b.base && a.baseVersion == b.baseVersion &&
           a.offset != b.offset;
}

/** One gathered edge, before the CSR layout. */
struct RawEdge
{
    uint32_t from;
    uint32_t to;
    uint32_t latency;
};

constexpr uint32_t kNone = UINT32_MAX;

/** Stores and emits: their effects may cross no exit.  A frame store
 *  may not either, as the exit's target may read the slot. */
bool
pinned(Opcode op)
{
    return op == Opcode::St || op == Opcode::StFrame || op == Opcode::Emit;
}

/**
 * Per-thread build scratch.  The register-indexed arrays hold kNone
 * between builds: every register a build writes is on `touched`, and
 * reset() restores exactly those entries.
 */
struct BuildScratch
{
    std::vector<RawEdge> edges;
    /** Index of the register's last def in the block so far. */
    std::vector<uint32_t> lastDef;
    /** Head of the register's reader list since that def (in `readers`). */
    std::vector<uint32_t> readerHead;
    std::vector<RegId> touched;
    /** Reader-list nodes: (reading instruction, next node). */
    std::vector<std::pair<uint32_t, uint32_t>> readers;
    std::vector<MemRef> memRefs;
    /** (instruction, LdFrame or StFrame, slot) of each frame op. */
    std::vector<std::tuple<uint32_t, Opcode, int64_t>> frameRefs;
    std::vector<uint8_t> hasTermEdge;
    std::vector<RegId> srcs;

    void
    ensure(RegId r)
    {
        if (r >= lastDef.size()) {
            lastDef.resize(size_t(r) + 1, kNone);
            readerHead.resize(size_t(r) + 1, kNone);
        }
        if (lastDef[r] == kNone && readerHead[r] == kNone)
            touched.push_back(r);
    }

    void
    reset()
    {
        for (RegId r : touched)
            lastDef[r] = readerHead[r] = kNone;
        touched.clear();
        edges.clear();
        readers.clear();
        memRefs.clear();
        frameRefs.clear();
    }
};

} // namespace

void
DepGraph::build(const std::vector<Instruction> &instrs,
                const std::vector<ExitInfo> &exits,
                const machine::MachineModel &mm)
{
    thread_local BuildScratch scratch;
    BuildScratch &s = scratch;
    s.reset();
    std::vector<RawEdge> &raw = s.edges;
    auto add_edge = [&raw](uint32_t from, uint32_t to, uint32_t latency) {
        ps_assert(from < to || latency == 0);
        ps_assert(from != to);
        raw.push_back({from, to, latency});
    };

    const uint32_t n = uint32_t(instrs.size());

    // Planted bug for harness self-tests (support/mutation.hpp): with
    // the mutation armed, store->load dependences are dropped in
    // multi-exit (superblock) blocks only, so single-exit blocks — and
    // with them the BB quarantine fallback — keep scheduling correctly.
    const bool drop_memdep =
        exits.size() > 1 && mutationArmed("compact-drop-memdep");

    uint32_t last_control = kNone;
    std::vector<RegId> &srcs = s.srcs;

    size_t exit_pos = 0; // exits processed so far (all before instr i)

    for (uint32_t i = 0; i < n; ++i) {
        const Instruction &ins = instrs[i];
        const uint32_t lat = mm.latencyOf(ins.op);

        // --- register dependences ---
        ins.sources(srcs);
        for (RegId r : srcs) {
            s.ensure(r);
            if (const uint32_t d = s.lastDef[r]; d != kNone)
                add_edge(d, i, mm.latencyOf(instrs[d].op)); // RAW
        }
        if (ins.hasDst()) {
            const RegId d = ins.dst;
            s.ensure(d);
            for (uint32_t k = s.readerHead[d]; k != kNone;
                 k = s.readers[k].second) {
                // WAR: same cycle, ordered.
                if (s.readers[k].first != i)
                    add_edge(s.readers[k].first, i, 0);
            }
            s.readerHead[d] = kNone;
            if (const uint32_t prev = s.lastDef[d]; prev != kNone) {
                // WAW: the later def's write must land after the
                // earlier one's.  Guard the subtraction: the second
                // def may have the longer latency.
                const uint32_t ulat = mm.latencyOf(instrs[prev].op);
                const uint32_t waw = ulat > lat ? ulat - lat + 1 : 1;
                add_edge(prev, i, waw);
            }
            s.lastDef[d] = i;
        }
        for (RegId r : srcs) {
            s.readers.push_back({i, s.readerHead[r]});
            s.readerHead[r] = uint32_t(s.readers.size() - 1);
        }

        // --- memory / output dependences ---
        const bool mem_read = ins.isLoad();
        const bool mem_write = ins.op == Opcode::St;
        const bool mem_barrier =
            ins.op == Opcode::Call || ins.op == Opcode::Emit;
        if (ins.isFrameOp()) {
            // A frame slot is the activation's own: only frame ops on
            // the same slot touch it.
            for (const auto &[prev, prev_op, slot] : s.frameRefs) {
                if (slot == ins.imm && (prev_op == Opcode::StFrame ||
                                        ins.op == Opcode::StFrame))
                    add_edge(prev, i, prev_op == Opcode::StFrame ? 1 : 0);
            }
            s.frameRefs.push_back({i, ins.op, ins.imm});
        } else if (mem_read || mem_write || mem_barrier) {
            MemRef ref;
            ref.idx = i;
            ref.isLoad = mem_read;
            ref.isStore = mem_write;
            ref.isBarrier = mem_barrier;
            if (mem_read || mem_write) {
                ref.base = ins.src1;
                s.ensure(ins.src1);
                ref.offset = ins.imm;
                ref.baseVersion = s.lastDef[ins.src1];
            }
            for (const MemRef &prev : s.memRefs) {
                if (prev.isLoad && ref.isLoad)
                    continue; // loads commute
                if (drop_memdep && prev.isStore && ref.isLoad)
                    continue; // deliberately wrong (mutation armed)
                if (provablyDisjoint(prev, ref))
                    continue; // limited load/store reordering
                // Reads may share the consumer's cycle (ordered);
                // writes and barriers force the next cycle.
                const uint32_t mlat =
                    (prev.isStore || prev.isBarrier) ? 1 : 0;
                add_edge(prev.idx, i, mlat);
            }
            s.memRefs.push_back(ref);
        }

        // --- control ordering ---
        if (ins.isControlSlot()) {
            if (last_control != kNone)
                add_edge(last_control, i, 1);
            last_control = i;
        }

        // --- exit constraints ---
        // (a) this instruction vs. exits *before* it.
        const bool pinned_effect = pinned(ins.op);
        for (size_t e = 0; e < exit_pos; ++e) {
            const ExitInfo &x = exits[e];
            if (pinned_effect || (ins.hasDst() && x.liveAt(ins.dst)))
                add_edge(x.instrIdx, i, 1); // may not move above the exit
        }
        // (b) if this instruction *is* an exit, constrain earlier ops.
        if (exit_pos < exits.size() && exits[exit_pos].instrIdx == i) {
            const ExitInfo &x = exits[exit_pos++];
            for (uint32_t j = 0; j < i; ++j) {
                const Instruction &prev = instrs[j];
                if (pinned(prev.op)) {
                    add_edge(j, i, 0); // side effects may not sink below
                } else if (prev.hasDst() && x.liveAt(prev.dst)) {
                    // Value observable off-trace: must be complete (and
                    // issued, for the 0 case) when the exit is taken.
                    const uint32_t plat = mm.latencyOf(prev.op);
                    add_edge(j, i, plat > 0 ? plat - 1 : 0);
                }
            }
        }
    }

    // Everything must issue no later than the terminator's cycle, and
    // before it in issue order.
    if (n > 0) {
        const uint32_t term = n - 1;
        s.hasTermEdge.assign(n, 0);
        for (const RawEdge &e : raw) {
            if (e.to == term)
                s.hasTermEdge[e.from] = 1;
        }
        for (uint32_t i = 0; i < term; ++i) {
            if (!s.hasTermEdge[i])
                add_edge(i, term, 0);
        }
    }

    // CSR layout, stable per source: count, prefix-sum, place.
    first_.assign(size_t(n) + 1, 0);
    numPreds_.assign(n, 0);
    for (const RawEdge &e : raw) {
        ++first_[e.from + 1];
        ++numPreds_[e.to];
    }
    for (uint32_t i = 0; i < n; ++i)
        first_[i + 1] += first_[i];
    edges_.resize(raw.size());
    for (const RawEdge &e : raw)
        edges_[first_[e.from]++] = {e.to, e.latency};
    // Placing advanced each first_[i] to the start of node i+1; shift back.
    for (uint32_t i = n; i > 0; --i)
        first_[i] = first_[i - 1];
    first_[0] = 0;

    // Critical-path heights: edges always point to larger indices, so a
    // single reverse sweep suffices.
    height_.assign(n, 0);
    for (uint32_t i = n; i-- > 0;) {
        uint32_t h = mm.latencyOf(instrs[i].op);
        for (const Edge &e : succs(i))
            h = std::max(h, e.latency + height_[e.to]);
        height_[i] = h;
    }
}

} // namespace pathsched::sched
