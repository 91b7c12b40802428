/**
 * @file
 * Experimental machine model (§3.2 of the paper).
 *
 * A very powerful VLIW based on the Alpha ISA: 8 universal functional
 * units, at most one control instruction per cycle, a 128-entry integer
 * register file, and unit latencies by default.  A "realistic latency"
 * variant is provided for the ablation the paper mentions ("we have
 * also generated results with more realistic instruction latencies").
 */

#ifndef PATHSCHED_MACHINE_MACHINE_HPP
#define PATHSCHED_MACHINE_MACHINE_HPP

#include <array>
#include <cstdint>

#include "ir/instruction.hpp"

namespace pathsched::machine {

/** Issue, latency and register-file parameters of the target. */
struct MachineModel
{
    /** Operations issued per cycle. */
    uint32_t issueWidth = 8;
    /** Control-slot operations (branch/jump/ret/call) per cycle. */
    uint32_t controlPerCycle = 1;
    /** Architected integer registers. */
    uint32_t numRegs = 128;
    /** Result latency per opcode, in cycles (>= 1). */
    std::array<uint32_t, ir::kNumOpcodes> latency{};

    uint32_t
    latencyOf(ir::Opcode op) const
    {
        return latency[size_t(op)];
    }

    /** The paper's primary model: every operation completes in 1 cycle. */
    static MachineModel unitLatency();

    /**
     * Non-unit latencies: loads 3 (frame loads too), multiplies 3,
     * divides 8, the rest 1.
     * Used by the latency ablation (bench_ablation_latency).
     */
    static MachineModel realisticLatency();
};

} // namespace pathsched::machine

#endif // PATHSCHED_MACHINE_MACHINE_HPP
