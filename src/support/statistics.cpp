#include "support/statistics.hpp"

#include <cmath>

#include "support/logging.hpp"

namespace pathsched {

void
RunningStat::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        if (x < min_)
            min_ = x;
        if (x > max_)
            max_ = x;
    }
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    // Canonical mean, same derivation as merge(): whenever the sum is
    // exact (integer samples below 2^53), add-then-merge and pure
    // sequential accumulation agree bit-for-bit.
    mean_ = sum_ / double(count_);
    m2_ += delta * (x - mean_);
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    if (other.min_ < min_)
        min_ = other.min_;
    if (other.max_ > max_)
        max_ = other.max_;
    const double delta = other.mean_ - mean_;
    const double na = double(count_), nb = double(other.count_);
    count_ += other.count_;
    sum_ += other.sum_;
    // Canonical mean: derived from the merged sum rather than updated
    // incrementally (Chan's formula).  count/sum/min/max combine by
    // exact operations, so whenever the sample sums are exact (integer
    // samples below 2^53 — profile counts, op counts), every one of
    // those fields *and* the mean is bit-identical no matter how a
    // sample stream was split into shards or in which order the shards
    // merged.  m2 keeps Chan's combination: it is associative only up
    // to rounding, which merging in a fixed order absorbs.
    // tests/merge_property_test.cpp pins both guarantees.
    mean_ = sum_ / double(count_);
    m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
}

double
RunningStat::min() const
{
    return count_ == 0 ? 0.0 : min_;
}

double
RunningStat::max() const
{
    return count_ == 0 ? 0.0 : max_;
}

double
RunningStat::variance() const
{
    return count_ < 2 ? 0.0 : m2_ / double(count_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0;
    for (double x : xs)
        s += x;
    return s / double(xs.size());
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0;
    for (double x : xs) {
        ps_assert(x > 0);
        s += std::log(x);
    }
    return std::exp(s / double(xs.size()));
}

} // namespace pathsched
