/**
 * @file
 * Trace selection: edge-profile mutual-most-likely and path-profile
 * most-likely-path-successor (Fig. 2 of the paper).  Internal to
 * ps_form.
 */

#ifndef PATHSCHED_FORM_SELECT_HPP
#define PATHSCHED_FORM_SELECT_HPP

#include <memory>

#include "form/internal.hpp"
#include "profile/edge_profile.hpp"
#include "profile/path_profile.hpp"

namespace pathsched::form {

/**
 * Build the FormProfile adapter for one procedure, whose CFG queries
 * read @p cfg (which must outlive the adapter).
 */
std::unique_ptr<FormProfile>
makeEdgeFormProfile(const ir::Procedure &proc, const ir::Cfg &cfg,
                    const profile::EdgeProfiler &ep);
std::unique_ptr<FormProfile>
makePathFormProfile(const ir::Procedure &proc, const ir::Cfg &cfg,
                    const profile::PathProfiler &pp);

/**
 * Partition the procedure's blocks into traces (§2.1/§2.2): seeds in
 * decreasing block-frequency order, grown downward through the most
 * likely successor, terminated at assigned blocks and back edges (and,
 * under edge profiles, at non-mutual successors).  Fills state.traces,
 * state.traceOf and state.traceIsLoop.
 */
void selectTraces(ProcFormState &state, const FormProfile &profile);

} // namespace pathsched::form

#endif // PATHSCHED_FORM_SELECT_HPP
