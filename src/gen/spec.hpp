/**
 * @file
 * Generator specification: the seed plus every shape knob of one
 * generated workload, round-trippable through a one-line text form.
 *
 * A GenSpec fully determines a generated program (gen/generator.hpp):
 * equal specs produce byte-identical IR in every process.  The text
 * form is the currency of the fuzz driver — journals, corpus files and
 * --replay all carry specs, never programs — so a failure reproduces
 * from one short line.
 *
 * Spec grammar (comma-separated key=value; every key optional):
 *
 *   seed=7,procs=3,depth=3,loopdepth=2,stmts=5,trips=6,mem=64,
 *   calls=0.10,loads=0.10,stores=0.10,emits=0.07,ifs=0.16,loops=0.12,
 *   branch=mixed,period=4
 *
 *   branch   random | tttf | phased | corr | mixed — the branch
 *            character of generated conditionals (paper §4: the micro
 *            benchmarks alt/ph/corr are exactly these characters)
 *   period   TTTF period / phased split parameter
 *
 * Reduction edits (appended by the delta debugger, repeatable):
 *
 *   drop=p2          stub procedure 2 to `ret 0` (its id and arity
 *                    survive, so callers still link)
 *   drop=p1.n7       drop the statement subtree with preorder id 7 in
 *                    procedure 1's skeleton
 *   settrips=p0.n3:1 override the trip count of loop node 3 in proc 0
 *
 * Procedure indices 0..procs-1 are the helper procedures; index
 * `procs` is main.  Node ids are preorder positions in the *unedited*
 * skeleton, so they stay stable as edits accumulate.
 */

#ifndef PATHSCHED_GEN_SPEC_HPP
#define PATHSCHED_GEN_SPEC_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace pathsched::gen {

/** Branch character of generated conditionals. */
enum class BranchKind
{
    Random,     ///< data-dependent, profile-unfriendly
    Tttf,       ///< periodic taken/not-taken (the paper's "alt")
    Phased,     ///< true for a prefix of executions, then false ("ph")
    Correlated, ///< repeats the previous conditional's outcome ("corr")
    Mixed,      ///< each conditional draws one of the above
};

const char *branchKindName(BranchKind kind);
bool parseBranchKind(const std::string &text, BranchKind &out);

/** One reduction edit (see the file comment for the text forms). */
struct Edit
{
    enum class Kind { DropProc, DropStmt, SetTrips };
    Kind kind = Kind::DropProc;
    uint32_t proc = 0;
    uint32_t node = 0;  ///< preorder id (DropStmt / SetTrips)
    uint32_t trips = 1; ///< SetTrips only

    bool operator==(const Edit &) const = default;
};

/** Every knob of one generated workload. */
struct GenSpec
{
    uint64_t seed = 1;
    uint32_t procs = 3;    ///< helper procedures (main is extra)
    uint32_t depth = 3;    ///< max if/loop nesting
    uint32_t loopDepth = 2;///< max loop nesting (<= depth)
    uint32_t stmts = 5;    ///< max statements per region
    uint32_t maxTrips = 6; ///< loop trips drawn from 1..maxTrips
    uint64_t memWords = 64;
    double callDensity = 0.10;
    double loadDensity = 0.10;
    double storeDensity = 0.10;
    double emitDensity = 0.07;
    double ifDensity = 0.16;
    double loopDensity = 0.12;
    BranchKind branch = BranchKind::Mixed;
    uint32_t period = 4;
    std::vector<Edit> edits = {};

    bool operator==(const GenSpec &) const = default;

    /** Canonical one-line text form; parse() inverts it exactly for a
     *  normalized spec. */
    std::string toString() const;

    /** Parse the grammar above.  Unknown keys and malformed values are
     *  typed errors, never panics — spec text arrives from files and
     *  command lines. */
    static bool parse(const std::string &text, GenSpec &out,
                      std::string &error);

    /** A copy with every knob clamped into its documented range and
     *  densities quantized so toString() round-trips bit-exactly.
     *  generate() normalizes on entry; normalizing twice is
     *  idempotent. */
    GenSpec normalized() const;

    /** Total procedures including main. */
    uint32_t procCount() const { return procs + 1; }

    /** True when @p proc is stubbed by a DropProc edit. */
    bool procDropped(uint32_t proc) const;
};

} // namespace pathsched::gen

#endif // PATHSCHED_GEN_SPEC_HPP
