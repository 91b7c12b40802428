/**
 * @file
 * Direct-mapped instruction cache model.
 *
 * The paper's experimental machine uses a 32 KB direct-mapped I-cache
 * with 32-byte lines and a 6-cycle miss penalty (§3.2, §4).  All three
 * parameters are configurable here.
 */

#ifndef PATHSCHED_ICACHE_ICACHE_HPP
#define PATHSCHED_ICACHE_ICACHE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pathsched::icache {

/** Direct-mapped cache indexed by instruction address. */
class ICache
{
  public:
    struct Params
    {
        uint32_t sizeBytes = 32 * 1024;
        uint32_t lineBytes = 32;
        uint32_t missPenaltyCycles = 6;
    };

    /** Build with the paper's default parameters. */
    ICache();
    explicit ICache(const Params &params);

    /**
     * Fetch the line containing @p addr.
     * @return the stall penalty in cycles: 0 on hit, missPenalty on miss.
     */
    uint32_t
    access(uint64_t addr)
    {
        ++accesses_;
        const uint64_t line = addr >> lineShift_;
        const size_t idx = lineMask_ != kNoMask ? size_t(line & lineMask_)
                                                : size_t(line % numLines_);
        if (valid_[idx] && tags_[idx] == line)
            return 0;
        valid_[idx] = 1;
        tags_[idx] = line;
        ++misses_;
        return params_.missPenaltyCycles;
    }

    /**
     * Count @p n fetches that are known to hit without probing: each
     * is on the line of the access just before it, which a
     * direct-mapped cache always still holds.
     */
    void addHits(uint64_t n) { accesses_ += n; }

    /** Forget all cached lines and zero the statistics. */
    void reset();

    uint64_t accesses() const { return accesses_; }
    uint64_t misses() const { return misses_; }
    double missRate() const
    {
        return accesses_ == 0 ? 0.0 : double(misses_) / double(accesses_);
    }
    const Params &params() const { return params_; }

  private:
    static constexpr uint64_t kNoMask = UINT64_MAX;

    Params params_;
    uint32_t numLines_;
    /** log2(lineBytes): lineBytes is a power of two. */
    unsigned lineShift_;
    /** numLines_ - 1 when numLines_ is a power of two, so a line's
     *  index is a mask of it; kNoMask otherwise (index by modulo). */
    uint64_t lineMask_;
    std::vector<uint64_t> tags_;
    std::vector<uint8_t> valid_;
    uint64_t accesses_ = 0;
    uint64_t misses_ = 0;
};

} // namespace pathsched::icache

#endif // PATHSCHED_ICACHE_ICACHE_HPP
