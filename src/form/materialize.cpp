#include "form/materialize.hpp"

#include "support/logging.hpp"
#include "support/strutil.hpp"

namespace pathsched::form {

using ir::BasicBlock;
using ir::BlockId;
using ir::Instruction;
using ir::kNoBlock;
using ir::Opcode;

Status
materializeTraces(ProcFormState &state, FormStats &stats)
{
    ir::Procedure &proc = state.proc;
    proc.syncSideTables();

    // Enlarged traces may revisit another trace's head, so every merge
    // reads the blocks as formation found them, and the heads' new
    // bodies are installed only after the last merge.
    std::vector<std::pair<BlockId, std::vector<Instruction>>> bodies;

    auto broken = [&](const std::string &msg) {
        return Status::error(
            ErrorKind::VerifyFailed,
            strfmt("proc %s: %s", proc.name.c_str(), msg.c_str()));
    };

    for (size_t ti = 0; ti < state.traces.size(); ++ti) {
        const Trace &t = state.traces[ti];
        if (t.size() < 2)
            continue;
        const BlockId head = t[0];

        size_t total = 0;
        for (const BlockId tb : t)
            total += proc.blocks[tb].instrs.size();
        std::vector<Instruction> merged;
        std::vector<uint32_t> ordinals;
        merged.reserve(total);
        ordinals.reserve(total);
        for (size_t i = 0; i < t.size(); ++i) {
            const BasicBlock &src = proc.blocks[t[i]];
            if (src.instrs.empty())
                return broken(strfmt("trace block %u is empty", t[i]));
            for (size_t j = 0; j < src.instrs.size(); ++j) {
                const bool last = j + 1 == src.instrs.size();
                Instruction ins = src.instrs[j];
                if (last && i + 1 < t.size()) {
                    // Internal terminator: turn into a side exit (or
                    // drop) so the trace falls through within the
                    // merged block.
                    const BlockId on_trace = t[i + 1];
                    if (ins.isBranch()) {
                        if (ins.target0 != on_trace &&
                            ins.target1 != on_trace) {
                            return broken(strfmt(
                                "trace successor %u is not a CFG "
                                "successor of block %u",
                                on_trace, t[i]));
                        }
                        if (ins.target0 == on_trace &&
                            ins.target1 == on_trace) {
                            continue; // both ways continue the trace
                        }
                        if (ins.target0 == on_trace) {
                            // Trace follows the taken edge: invert so
                            // "taken" means "leave the superblock".
                            ins.op = ir::invertBranch(ins.op);
                            ins.target0 = ins.target1;
                        }
                        ins.target1 = kNoBlock; // side-exit form
                    } else if (ins.op == Opcode::Jmp) {
                        if (ins.target0 != on_trace) {
                            return broken(strfmt(
                                "trace jumps past successor %u from "
                                "block %u",
                                on_trace, t[i]));
                        }
                        continue; // pure fallthrough inside the block
                    } else {
                        return broken(strfmt(
                            "block %u cannot be a trace interior "
                            "(terminator %s)",
                            t[i], opcodeName(ins.op)));
                    }
                }
                merged.push_back(std::move(ins));
                ordinals.push_back(uint32_t(i));
            }
        }
        if (merged.empty())
            return broken(strfmt("trace at head %u merged to nothing",
                                 head));

        ir::SuperblockInfo &sb = proc.superblocks[head];
        sb.isSuperblock = true;
        sb.numSrcBlocks = uint32_t(t.size());
        sb.srcOrdinalOf = std::move(ordinals);
        const Instruction &term = merged.back();
        sb.isLoop = term.target0 == head ||
                    (term.isBranch() && term.target1 == head);

        bodies.emplace_back(head, std::move(merged));
        ++stats.superblocksFormed;
        stats.blocksDuplicated += t.size() - 1;
    }
    for (auto &[head, body] : bodies)
        proc.blocks[head].instrs = std::move(body);
    return Status();
}

void
removeUnreachable(ir::Procedure &proc, FormStats &stats)
{
    proc.syncSideTables();
    const size_t n = proc.blocks.size();
    std::vector<uint8_t> reachable(n, 0);
    std::vector<BlockId> work{0};
    reachable[0] = 1;
    std::vector<BlockId> succs;
    while (!work.empty()) {
        const BlockId b = work.back();
        work.pop_back();
        ir::successorsOf(proc.blocks[b], succs);
        for (BlockId s : succs) {
            if (!reachable[s]) {
                reachable[s] = 1;
                work.push_back(s);
            }
        }
    }

    std::vector<BlockId> remap(n, kNoBlock);
    BlockId next = 0;
    for (BlockId b = 0; b < n; ++b) {
        if (reachable[b])
            remap[b] = next++;
    }
    if (next == n)
        return; // nothing to drop

    stats.unreachableRemoved += n - next;
    std::vector<BasicBlock> blocks(next);
    std::vector<ir::BlockSchedule> schedules(next);
    std::vector<ir::SuperblockInfo> superblocks(next);
    for (BlockId b = 0; b < n; ++b) {
        if (!reachable[b])
            continue;
        blocks[remap[b]] = std::move(proc.blocks[b]);
        schedules[remap[b]] = std::move(proc.schedules[b]);
        superblocks[remap[b]] = std::move(proc.superblocks[b]);
    }
    for (auto &bb : blocks) {
        for (Instruction &ins : bb.instrs) {
            if (ins.isBranch() || ins.op == Opcode::Jmp) {
                ps_assert(remap[ins.target0] != kNoBlock);
                ins.target0 = remap[ins.target0];
                if (ins.target1 != kNoBlock) {
                    ps_assert(remap[ins.target1] != kNoBlock);
                    ins.target1 = remap[ins.target1];
                }
            }
        }
    }
    proc.blocks = std::move(blocks);
    proc.schedules = std::move(schedules);
    proc.superblocks = std::move(superblocks);
}

} // namespace pathsched::form
