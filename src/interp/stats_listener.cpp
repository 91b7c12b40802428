#include "interp/stats_listener.hpp"

namespace pathsched::interp {

void
StatsListener::flushTo(obs::StatRegistry *registry,
                       const std::string &prefix) const
{
    if (registry == nullptr)
        return;
    registry->addCounter(prefix + ".ops", ops_);
    registry->addCounter(prefix + ".branches", branches_);
    registry->addCounter(prefix + ".jumps", jumps_);
    registry->addCounter(prefix + ".calls", calls_);
    registry->addCounter(prefix + ".rets", rets_);
    registry->addCounter(prefix + ".mem", mem_);
    registry->addCounter(prefix + ".edges", edges_);
    registry->addCounter(prefix + ".procEnters", procEnters_);
    registry->addCounter(prefix + ".procExits", procExits_);
}

} // namespace pathsched::interp
