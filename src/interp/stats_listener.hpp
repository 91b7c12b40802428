/**
 * @file
 * Interpreter execution-statistics listener.
 *
 * A TraceListener that tallies dynamic behaviour — operations (split
 * by class), conditional branches, calls, CFG edges, procedure
 * activations — and publishes the tallies into an obs::StatRegistry
 * under a caller-chosen dotted prefix (e.g. "interp.P4.test").  This
 * is the interpreter's half of the observability layer: attach one
 * per run, call flush() after the run.
 */

#ifndef PATHSCHED_INTERP_STATS_LISTENER_HPP
#define PATHSCHED_INTERP_STATS_LISTENER_HPP

#include <string>

#include "interp/listener.hpp"
#include "obs/stats.hpp"

namespace pathsched::interp {

class StatsListener : public TraceListener
{
  public:
    /** Tallies publish to @p registry under "@p prefix.<name>". */
    StatsListener(obs::StatRegistry *registry, std::string prefix)
        : registry_(registry), prefix_(std::move(prefix))
    {}

    bool wantsOps() const override { return true; }

    void
    onOp(ir::ProcId proc, ir::Opcode op) override
    {
        (void)proc;
        ++ops_;
        switch (op) {
          case ir::Opcode::BrNz:
          case ir::Opcode::BrZ: ++branches_; break;
          case ir::Opcode::Jmp: ++jumps_; break;
          case ir::Opcode::Call: ++calls_; break;
          case ir::Opcode::Ret: ++rets_; break;
          case ir::Opcode::Ld:
          case ir::Opcode::LdSpec:
          case ir::Opcode::St: ++mem_; break;
          default: break;
        }
    }

    void onProcEnter(ir::ProcId proc) override
    {
        (void)proc;
        ++procEnters_;
    }

    void onProcExit(ir::ProcId proc) override
    {
        (void)proc;
        ++procExits_;
    }

    void
    onEdge(ir::ProcId proc, ir::BlockId from, ir::BlockId to) override
    {
        (void)proc;
        (void)from;
        (void)to;
        ++edges_;
    }

    /** Publish the tallies into the registry (accumulating). */
    void flush() { flushTo(registry_, prefix_); }

    /** Publish the tallies into @p registry under "@p prefix.<name>"
     *  instead; a null registry publishes nothing. */
    void flushTo(obs::StatRegistry *registry,
                 const std::string &prefix) const;

    uint64_t ops() const { return ops_; }
    uint64_t branches() const { return branches_; }
    uint64_t edges() const { return edges_; }

  private:
    obs::StatRegistry *registry_;
    std::string prefix_;
    uint64_t ops_ = 0;
    uint64_t branches_ = 0;
    uint64_t jumps_ = 0;
    uint64_t calls_ = 0;
    uint64_t rets_ = 0;
    uint64_t mem_ = 0;
    uint64_t edges_ = 0;
    uint64_t procEnters_ = 0;
    uint64_t procExits_ = 0;
};

} // namespace pathsched::interp

#endif // PATHSCHED_INTERP_STATS_LISTENER_HPP
