/**
 * @file
 * Differential / metamorphic oracle over generated workloads.
 *
 * One generated workload runs through every scheduling configuration;
 * anything short of bit-exact behaviour preservation is a finding:
 *
 *  - the generated program itself must pass ir::verify (Strict) and
 *    its reference run must finish under the generator's step bound;
 *  - every configuration's pipeline run must complete (OK status),
 *    report outputMatches, and reproduce the reference run's output
 *    and return value;
 *  - a clean generated workload must suffer ZERO degradations — no
 *    budget is armed and no fault injected, so any BB quarantine is a
 *    pass bug the robustness layer papered over, not robustness;
 *  - the transformed program must pass ir::verify (Superblock mode),
 *    checked per procedure with verifyProcStatus.
 *
 * Metamorphic invariants (opts.metamorphic, checked when the base runs
 * are clean): semantics must be invariant under profile-text record
 * permutation and uniform count scaling — the profile only steers
 * formation, never meaning — and a *disarmed* fault injector (a spec
 * that can never match) must leave the transformed program
 * byte-identical with identical cycles and code bytes.
 *
 * Findings carry a stable classification string ("P4:degraded:compact")
 * that the fuzz driver's delta reducer uses as its "still fails the
 * same way" predicate.
 */

#ifndef PATHSCHED_GEN_ORACLE_HPP
#define PATHSCHED_GEN_ORACLE_HPP

#include <string>
#include <vector>

#include "gen/generator.hpp"
#include "pipeline/pipeline.hpp"

namespace pathsched::gen {

/** Oracle knobs. */
struct OracleOptions
{
    /** Backends to differentiate (registry rows); empty = every
     *  registered backend. */
    std::vector<const pipeline::BackendDesc *> configs;
    /** Also check the metamorphic invariants (profile permutation /
     *  scaling, disarmed injection). */
    bool metamorphic = true;
};

/** One oracle violation. */
struct OracleFinding
{
    std::string config;  ///< configuration name, or "-" (program-level)
    std::string check;   ///< "output", "degraded", "verify", "meta-..."
    std::string detail;  ///< stage / error kind, may be empty
    std::string message;

    /** Stable classification: "config:check[:detail]". */
    std::string klass() const;
};

/** Everything the oracle concluded about one workload. */
struct OracleResult
{
    std::vector<OracleFinding> findings;
    uint64_t refDynInstrs = 0; ///< reference-run dynamic ops

    bool ok() const { return findings.empty(); }
    /** First finding's klass(), or "" when clean. */
    std::string classification() const;
    /** Human-readable multi-line report ("" when clean). */
    std::string report() const;
};

/** Run the oracle over an already-generated workload. */
OracleResult checkWorkload(const Workload &w,
                           const OracleOptions &opts = OracleOptions());

/** generate() + checkWorkload() in one step. */
OracleResult checkSpec(const GenSpec &spec,
                       const OracleOptions &opts = OracleOptions());

} // namespace pathsched::gen

#endif // PATHSCHED_GEN_ORACLE_HPP
