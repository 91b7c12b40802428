/**
 * @file
 * The unified per-procedure stage API.
 *
 * Every transform stage exposes exactly two entry points, and this
 * header is their single point of truth:
 *
 *  - the **Status-returning per-procedure form** —
 *    form::formProcedure, sched::compactProcedure,
 *    regalloc::allocateProcedure, sched::scheduleProcedure,
 *    ir::verifyProcStatus — which reports recoverable failure as a
 *    typed Status and never aborts.  This is the ONLY form the
 *    pipeline's per-procedure chains call: they need attributable,
 *    recoverable failure (quarantine one procedure, keep its
 *    siblings), and a panic would take the whole run down.
 *
 *  - the **panicking whole-program wrapper** — formProgram,
 *    compactProgram, allocateProgram — a convenience for tools, tests
 *    and benchmarks that want the "it works or it aborts"
 *    contract.  These are thin delegates: forEachProcOrDie() below is
 *    the one shared loop-and-panic body, so a wrapper can never drift
 *    from its per-procedure Status twin.
 *
 * A new stage follows the same pattern: write the Status form and
 * delegate the wrapper through here.
 */

#ifndef PATHSCHED_PIPELINE_STAGES_HPP
#define PATHSCHED_PIPELINE_STAGES_HPP

#include "ir/procedure.hpp"
#include "support/logging.hpp"
#include "support/status.hpp"

namespace pathsched::pipeline {

/**
 * Run the Status-returning per-procedure callable @p fn over every
 * procedure of @p prog in id order, panicking on the first failure
 * with @p stage naming the pass ("formation", "compaction", "register
 * allocation").  The shared body behind every panicking whole-program
 * stage wrapper.
 */
template <typename Fn>
void
forEachProcOrDie(ir::Program &prog, const char *stage, Fn &&fn)
{
    for (ir::ProcId p = 0; p < prog.procs.size(); ++p) {
        Status st = fn(p);
        if (!st.ok())
            panic("%s failed for proc %s: %s", stage,
                  prog.procs[p].name.c_str(), st.toString().c_str());
    }
}

} // namespace pathsched::pipeline

#endif // PATHSCHED_PIPELINE_STAGES_HPP
