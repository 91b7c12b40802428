#include "sched/renamer.hpp"

#include <algorithm>
#include <utility>

#include "sched/exit_live.hpp"
#include "support/logging.hpp"

namespace pathsched::sched {

using ir::BlockId;
using ir::Instruction;
using ir::RegId;

RenameStats
renameBlock(ir::Procedure &proc, BlockId b, const analysis::Liveness &live)
{
    RenameStats stats;
    // Per-thread scratch.  last_def and renamed_to are indexed by the
    // block's original registers and restored to kNone before return.
    thread_local std::vector<ExitInfo> exits;
    thread_local std::vector<uint32_t> last_def;
    thread_local std::vector<RegId> renamed_to;
    thread_local std::vector<RegId> renamed; // originals with a fresh name
    thread_local std::vector<std::pair<RegId, RegId>> copies;
    thread_local std::vector<RegId> srcs;
    constexpr uint32_t kNone = UINT32_MAX;

    // Fresh registers only ever appear as destinations, so the block's
    // original registers bound both arrays.
    if (last_def.size() < proc.numRegs) {
        last_def.resize(proc.numRegs, kNone);
        renamed_to.resize(proc.numRegs, ir::kNoReg);
    }
    bool redefined = false;
    for (size_t i = 0; i < proc.blocks[b].instrs.size(); ++i) {
        const Instruction &ins = proc.blocks[b].instrs[i];
        if (ins.hasDst()) {
            redefined |= last_def[ins.dst] != kNone;
            last_def[ins.dst] = uint32_t(i);
        }
    }
    // Every def is the last of its register: nothing is renamed, so no
    // exit needs a stub.
    if (!redefined) {
        for (const Instruction &ins : proc.blocks[b].instrs) {
            if (ins.hasDst())
                last_def[ins.dst] = kNone;
        }
        return stats;
    }
    ++stats.blocksRenamed;
    collectExits(proc, b, live, exits);

    // Work on a local copy: stub creation below resizes proc.blocks.
    std::vector<Instruction> instrs = std::move(proc.blocks[b].instrs);

    renamed.clear();
    size_t exit_pos = 0;

    for (size_t i = 0; i < instrs.size(); ++i) {
        Instruction &ins = instrs[i];

        ins.sources(srcs);
        for (RegId r : srcs) {
            if (renamed_to[r] != ir::kNoReg)
                ins.renameSources(r, renamed_to[r]);
        }

        if (ins.hasDst()) {
            const RegId r = ins.dst;
            if (last_def[r] != i) {
                const RegId fresh = proc.newReg();
                if (renamed_to[r] == ir::kNoReg)
                    renamed.push_back(r);
                renamed_to[r] = fresh;
                ins.dst = fresh;
                ++stats.defsRenamed;
            } else if (renamed_to[r] != ir::kNoReg) {
                renamed_to[r] = ir::kNoReg;
                renamed.erase(
                    std::find(renamed.begin(), renamed.end(), r));
            }
        }

        if (exit_pos < exits.size() && exits[exit_pos].instrIdx == i) {
            const ExitInfo &e = exits[exit_pos++];
            // The terminator can never need compensation: every last
            // definition keeps its architectural register, so `renamed`
            // is empty by the end of the block.
            if (!e.isTerminator && ins.isBranch()) {
                copies.clear();
                for (RegId orig : renamed) {
                    if (e.liveAt(orig))
                        copies.emplace_back(orig, renamed_to[orig]);
                }
                if (!copies.empty()) {
                    // Stub copies go in ascending original-register
                    // order, so the stub is deterministic.
                    std::sort(copies.begin(), copies.end());
                    const BlockId stub = proc.newBlock();
                    auto &sbb = proc.blocks[stub];
                    for (const auto &[orig, fresh] : copies) {
                        sbb.instrs.push_back(ir::makeMov(orig, fresh));
                        ++stats.copiesInserted;
                    }
                    sbb.instrs.push_back(ir::makeJmp(ins.target0));
                    ins.target0 = stub;
                    ++stats.stubsCreated;
                }
            }
        }
    }
    ps_assert(renamed.empty());

    for (const Instruction &ins : instrs) {
        if (ins.hasDst() && ins.dst < last_def.size())
            last_def[ins.dst] = kNone;
    }
    proc.blocks[b].instrs = std::move(instrs);
    return stats;
}

} // namespace pathsched::sched
