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
 * Storage is flat: build() gathers edges into a per-thread buffer (the
 * last def and the readers since it are register-indexed arrays reset
 * through a touched list), then lays them out as CSR, stable per
 * source, so rebuilding one DepGraph object for block after block
 * allocates nothing once its capacity has grown.
 */

#ifndef PATHSCHED_SCHED_DEPGRAPH_HPP
#define PATHSCHED_SCHED_DEPGRAPH_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "ir/procedure.hpp"
#include "machine/machine.hpp"
#include "sched/exit_live.hpp"

namespace pathsched::sched {

/** A dependence DAG; node i is instruction i, edges point forward. */
class DepGraph
{
  public:
    struct Edge
    {
        uint32_t to;
        uint32_t latency;
    };

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

    size_t size() const { return numPreds_.size(); }
    std::span<const Edge>
    succs(uint32_t i) const
    {
        return {edges_.data() + first_[i], edges_.data() + first_[i + 1]};
    }
    uint32_t numPreds(uint32_t i) const { return numPreds_[i]; }

    /** Critical-path height of node @p i (priority for list scheduling). */
    uint32_t height(uint32_t i) const { return height_[i]; }

  private:
    /** CSR: the successors of node i are edges_[first_[i], first_[i+1]). */
    std::vector<uint32_t> first_;
    std::vector<Edge> edges_;
    std::vector<uint32_t> numPreds_;
    std::vector<uint32_t> height_;
};

} // namespace pathsched::sched

#endif // PATHSCHED_SCHED_DEPGRAPH_HPP
