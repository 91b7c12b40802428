#include "machine/machine.hpp"

namespace pathsched::machine {

MachineModel
MachineModel::unitLatency()
{
    MachineModel m;
    m.latency.fill(1);
    return m;
}

MachineModel
MachineModel::realisticLatency()
{
    MachineModel m;
    m.latency.fill(1);
    m.latency[size_t(ir::Opcode::Ld)] = 3;
    m.latency[size_t(ir::Opcode::LdSpec)] = 3;
    m.latency[size_t(ir::Opcode::LdFrame)] = 3;
    m.latency[size_t(ir::Opcode::Mul)] = 3;
    m.latency[size_t(ir::Opcode::Div)] = 8;
    m.latency[size_t(ir::Opcode::Rem)] = 8;
    return m;
}

} // namespace pathsched::machine
