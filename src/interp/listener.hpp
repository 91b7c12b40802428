/**
 * @file
 * Observation interface for program execution.
 *
 * The interpreter notifies listeners of procedure activations and of
 * every intra-procedural CFG edge it follows.  Edge and path profilers
 * are implemented as listeners, mirroring the paper's instrumentation
 * scheme where "different analysis routines" are linked into the
 * instrumented program (§3.1).  Run-wide tallies (operations,
 * branches, calls, edges) are counted by the interpreter itself in
 * RunResult, so listeners exist only for the profilers.
 */

#ifndef PATHSCHED_INTERP_LISTENER_HPP
#define PATHSCHED_INTERP_LISTENER_HPP

#include "ir/types.hpp"

namespace pathsched::interp {

/** Callbacks fired during interpretation.  Default-ignores everything. */
class TraceListener
{
  public:
    virtual ~TraceListener() = default;

    /** A new activation of @p proc began at its entry block. */
    virtual void onProcEnter(ir::ProcId proc) { (void)proc; }

    /** The current activation of @p proc returned. */
    virtual void onProcExit(ir::ProcId proc) { (void)proc; }

    /**
     * Control moved along the CFG edge @p from -> @p to inside the
     * current activation of @p proc.
     */
    virtual void
    onEdge(ir::ProcId proc, ir::BlockId from, ir::BlockId to)
    {
        (void)proc;
        (void)from;
        (void)to;
    }
};

} // namespace pathsched::interp

#endif // PATHSCHED_INTERP_LISTENER_HPP
