#include "support/budget.hpp"

namespace pathsched {

double
Deadline::remainingMs() const
{
    if (!active_)
        return 0.0;
    const auto left = at_ - Clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(left).count();
    return ms > 0.0 ? ms : 0.0;
}

} // namespace pathsched
