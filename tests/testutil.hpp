/**
 * @file
 * Test utilities: a seeded structured random-program generator used by
 * the property tests.
 *
 * This is now a thin shim over the production workload generator
 * (gen/generator.hpp) — the same engine the differential fuzzer
 * drives — so property tests and fuzzing exercise identical program
 * shapes.  Generated programs are strict-mode, always terminate (loops
 * have fixed trip counts), only touch memory inside their declared
 * window, and produce observable output through Emit and the return
 * value — which makes them ideal for differential testing of every
 * transformation pass (output must be invariant).
 */

#ifndef PATHSCHED_TESTS_TESTUTIL_HPP
#define PATHSCHED_TESTS_TESTUTIL_HPP

#include <functional>
#include <string>
#include <vector>

#include "interp/interpreter.hpp"
#include "ir/procedure.hpp"
#include "support/status.hpp"

namespace pathsched::testing {

/** Knobs for the random program generator (legacy shape; forwarded
 *  onto gen::GenSpec — new code should use GenSpec directly). */
struct GenParams
{
    uint32_t numProcs = 3;        ///< procedures beyond main
    uint32_t maxDepth = 3;        ///< nesting depth of if/loop regions
    uint32_t maxStmtsPerRegion = 5;
    uint64_t memWords = 64;       ///< scratch memory window
    bool allowCalls = true;
    bool allowLoads = true;
    bool allowStores = true;
    bool allowEmit = true;
    /** Shares of statements that call (when allowed) and that loop;
     *  the defaults are gen::GenSpec's. */
    double callDensity = 0.10;
    double loopDensity = 0.12;
};

/** A generated program plus an input that exercises it. */
struct GeneratedProgram
{
    ir::Program program;
    interp::ProgramInput input;
};

/**
 * Generate a random structured program from @p seed.  The call graph
 * is acyclic (procedures only call lower-numbered ones), every loop
 * has a data-independent trip count, and every memory access is within
 * [0, memWords).
 */
GeneratedProgram makeRandomProgram(uint64_t seed,
                                   const GenParams &params = GenParams());

/** True when every field of @p a and @p b is equal. */
bool sameInstr(const ir::Instruction &a, const ir::Instruction &b);

/** A program and the input its training profiles come from. */
struct TrainedProgram
{
    std::string name;
    ir::Program program;
    interp::ProgramInput train;
};

/**
 * The 14 standard workloads, then four gen::generate programs (seeds
 * 1-4) of each of the five branch families.
 */
std::vector<TrainedProgram> workloadsAndFamilies();

/**
 * Profile @p s on its training input, then run each paper backend's
 * transform (BB, M4, M16, P4, P4e) on a copy of its program, one
 * procedure at a time as the pipeline's chain does.  Calls
 * @p formed(prog, proc, label) after each procedure's transform (label
 * is "<name>/<backend>") and @p finished(prog, label) after the last.
 * Returns the first training or transform failure.
 */
Status forEachFormed(
    const TrainedProgram &s,
    const std::function<void(ir::Program &, ir::ProcId,
                             const std::string &)> &formed,
    const std::function<void(ir::Program &, const std::string &)>
        &finished = {});

} // namespace pathsched::testing

#endif // PATHSCHED_TESTS_TESTUTIL_HPP
