/**
 * @file
 * Shared state between the formation sub-passes.  Internal to ps_form.
 */

#ifndef PATHSCHED_FORM_INTERNAL_HPP
#define PATHSCHED_FORM_INTERNAL_HPP

#include <cstdint>
#include <vector>

#include "analysis/loops.hpp"
#include "form/form.hpp"
#include "ir/cfg.hpp"
#include "ir/procedure.hpp"

namespace pathsched::form {

/** Per-procedure formation workspace. */
struct ProcFormState
{
    ProcFormState(ir::Procedure &p, const FormConfig &c)
        : proc(p), config(c), cfg(p), loops(cfg, analysis::Dominators(cfg)),
          traceOf(p.blocks.size(), UINT32_MAX)
    {}

    ir::Procedure &proc;
    const FormConfig &config;
    /** The CFG selection and enlargement read; materialization edits
     *  proc afterwards, which leaves it stale. */
    const ir::Cfg cfg;
    const analysis::LoopInfo loops;

    /** Selection tiling; extended in place by enlargement. */
    std::vector<Trace> traces;
    /** Block -> owning trace, UINT32_MAX when unassigned. */
    std::vector<uint32_t> traceOf;
    /** Initial (pre-enlargement) loop-ness per trace. */
    std::vector<uint8_t> traceIsLoop;
    /** Traces changed by enlargement. */
    std::vector<uint8_t> traceEnlarged;

    bool
    assigned(ir::BlockId b) const
    {
        return traceOf[b] != UINT32_MAX;
    }

    /** True when @p b heads a materializable (multi-block) trace. */
    bool
    isSuperblockHead(ir::BlockId b) const
    {
        const uint32_t t = traceOf[b];
        return t != UINT32_MAX && traces[t].size() >= 2 &&
               traces[t][0] == b;
    }

    /** True when @p b heads a superblock loop. */
    bool
    isSuperblockLoopHead(ir::BlockId b) const
    {
        return isSuperblockHead(b) && traceIsLoop[traceOf[b]];
    }

    /** Instruction count of the original blocks along @p t. */
    size_t
    traceInstrs(const Trace &t) const
    {
        size_t n = 0;
        for (ir::BlockId b : t)
            n += proc.blocks[b].instrs.size();
        return n;
    }
};

/** Profile-agnostic query interface used by selection and enlargement. */
class FormProfile
{
  public:
    virtual ~FormProfile() = default;

    /** Execution frequency of block @p b. */
    virtual uint64_t blockFreq(ir::BlockId b) const = 0;

    /**
     * The most likely extension of trace @p t among the CFG successors
     * of its last block, with its estimated frequency as a trace
     * (exact under path profiles, an edge-frequency proxy under edge
     * profiles).  Returns ir::kNoBlock when no successor ever executed.
     */
    virtual ir::BlockId mostLikelySuccessor(const Trace &t,
                                            uint64_t &freq) const = 0;

    /**
     * Estimated probability that an entry at the head of @p t executes
     * the whole trace (exact under path profiles; the product of branch
     * probabilities under edge profiles).
     */
    virtual double completionRatio(const Trace &t) const = 0;

    /** True when the selector requires mutual-most-likely agreement. */
    virtual bool requiresMutual() const = 0;

    /** Most likely predecessor of @p b (edge profiles only). */
    virtual ir::BlockId mostLikelyPred(ir::BlockId b) const = 0;

    /**
     * The most likely upward extension of trace @p t among the CFG
     * predecessors of its head, with its frequency (upward growth,
     * footnote 2).  Returns ir::kNoBlock when nothing qualifies or,
     * for path profiles, when @p t already exceeds the profiling
     * depth (a prefix extension would then be unmeasurable).
     */
    virtual ir::BlockId mostLikelyPredecessor(const Trace &t,
                                              uint64_t &freq) const = 0;
};

} // namespace pathsched::form

#endif // PATHSCHED_FORM_INTERNAL_HPP
