/**
 * @file
 * The instruction-at-a-time reference interpreter, for differential
 * tests of Interpreter::run (see reference_interp.cpp).
 */

#ifndef PATHSCHED_TESTS_REFERENCE_INTERP_HPP
#define PATHSCHED_TESTS_REFERENCE_INTERP_HPP

#include <vector>

#include "interp/interpreter.hpp"

namespace pathsched::interp::reference {

/** Run @p prog on @p input under @p opts, notifying @p listeners, the
 *  way Interpreter(prog, opts) with those listeners runs it. */
RunResult referenceRun(const ir::Program &prog, const InterpOptions &opts,
                       const std::vector<TraceListener *> &listeners,
                       const ProgramInput &input);

} // namespace pathsched::interp::reference

#endif // PATHSCHED_TESTS_REFERENCE_INTERP_HPP
