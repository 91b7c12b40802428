#include "icache/icache.hpp"

#include <algorithm>
#include <bit>

#include "support/logging.hpp"

namespace pathsched::icache {

ICache::ICache() : ICache(Params()) {}

ICache::ICache(const Params &params)
    : params_(params)
{
    ps_assert(params_.lineBytes > 0 &&
              (params_.lineBytes & (params_.lineBytes - 1)) == 0);
    ps_assert(params_.sizeBytes % params_.lineBytes == 0);
    numLines_ = params_.sizeBytes / params_.lineBytes;
    ps_assert(numLines_ > 0);
    lineShift_ = unsigned(std::countr_zero(params_.lineBytes));
    lineMask_ = std::has_single_bit(numLines_) ? numLines_ - 1 : kNoMask;
    tags_.assign(numLines_, 0);
    valid_.assign(numLines_, 0);
}

void
ICache::reset()
{
    std::fill(valid_.begin(), valid_.end(), 0);
    std::fill(tags_.begin(), tags_.end(), 0);
    accesses_ = 0;
    misses_ = 0;
}

} // namespace pathsched::icache
