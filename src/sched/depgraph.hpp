/**
 * @file
 * Dependence graph over one block's instructions.
 *
 * Edge latencies encode scheduling constraints for the top-down cycle
 * scheduler:
 *  - latency L >= 1: the successor may start no earlier than L cycles
 *    after the predecessor issues;
 *  - latency 0: the successor may share the predecessor's cycle but
 *    must follow it in issue (linear) order.  The interpreter executes
 *    the flattened order, so 0-latency edges are exactly the "same
 *    packet, dependence-safe order" constraints.
 *
 * Speculation policy (§2.3): side-effect-free ops may move above side
 * exits when their destination is not live at the exit target (live
 * off-trace renaming arranges for that to usually hold); loads hoisted
 * above a branch are converted to non-excepting LdSpec by the
 * scheduler; stores, emits and calls never move above or below an exit.
 * A spill frame op (LdFrame/StFrame) orders only against frame ops on
 * the same slot; a frame load never faults, so it moves as it is.
 *
 * Storage is a bit matrix: one successor bitset row per node and an
 * n x n byte matrix of latencies.  Each ordered pair holds at most one
 * edge, carrying the largest latency of the constraints between the two
 * instructions; the scheduler only ever takes the maximum over an
 * edge's constraints, so merging them changes no schedule.  build()
 * finds the edges through per-thread register-indexed arrays (the last
 * def and the readers since it, reset through a touched list), so
 * rebuilding one DepGraph object for block after block allocates
 * nothing once its capacity has grown.  A block of n instructions needs
 * n * ceil(n/64) words and n * n bytes; formation caps a superblock at
 * 256 instructions, so the matrix takes at most 72 KB there.
 */

#ifndef PATHSCHED_SCHED_DEPGRAPH_HPP
#define PATHSCHED_SCHED_DEPGRAPH_HPP

#include <cstdint>
#include <vector>

#include "ir/procedure.hpp"
#include "machine/machine.hpp"
#include "sched/exit_live.hpp"

namespace pathsched::sched {

/** A dependence DAG; node i is instruction i, edges point forward. */
class DepGraph
{
  public:
    /** An empty graph, for build() to fill. */
    DepGraph() = default;

    /**
     * Build the graph for @p instrs with exit constraints @p exits
     * (from collectExits on the same block) and latencies from @p mm.
     */
    DepGraph(const std::vector<ir::Instruction> &instrs,
             const std::vector<ExitInfo> &exits,
             const machine::MachineModel &mm)
    {
        build(instrs, exits, mm);
    }

    /** Rebuild in place for another block, reusing this object's storage. */
    void build(const std::vector<ir::Instruction> &instrs,
               const std::vector<ExitInfo> &exits,
               const machine::MachineModel &mm);

    size_t size() const { return n_; }

    /** Call @p fn(v, latency) for each successor v of @p u, ascending. */
    template <typename Fn>
    void
    forEachSucc(uint32_t u, Fn &&fn) const
    {
        const uint64_t *row = succ_.data() + size_t(u) * words_;
        const uint8_t *lat = lat_.data() + size_t(u) * n_;
        for (size_t w = 0; w < words_; ++w) {
            for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
                const uint32_t v =
                    uint32_t(w * 64 + size_t(__builtin_ctzll(bits)));
                fn(v, uint32_t(lat[v]));
            }
        }
    }

    /** Distinct predecessors of node @p i. */
    uint32_t numPreds(uint32_t i) const { return numPreds_[i]; }

    /** Critical-path height of node @p i (priority for list scheduling). */
    uint32_t height(uint32_t i) const { return height_[i]; }

  private:
    uint32_t n_ = 0;
    /** Words per successor row: ceil(n / 64). */
    size_t words_ = 0;
    /** Row u holds bit v when u -> v is an edge. */
    std::vector<uint64_t> succ_;
    /** lat_[u * n + v]: the latency of u -> v, where that is an edge. */
    std::vector<uint8_t> lat_;
    std::vector<uint32_t> numPreds_;
    std::vector<uint32_t> height_;
};

} // namespace pathsched::sched

#endif // PATHSCHED_SCHED_DEPGRAPH_HPP
