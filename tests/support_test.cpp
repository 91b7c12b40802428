/**
 * @file
 * Unit tests for the support library: Rng, BitVec, statistics and
 * string utilities.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "support/bitvec.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "support/strutil.hpp"

namespace pathsched {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, BelowOneIsAlwaysZero)
{
    Rng rng(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    std::set<int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(Rng, UniformInHalfOpenUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceRoughlyCalibrated)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(double(hits) / 10000.0, 0.25, 0.03);
}

TEST(BitVec, SetTestReset)
{
    BitVec v(130);
    EXPECT_EQ(v.size(), 130u);
    EXPECT_FALSE(v.test(0));
    v.set(0);
    v.set(64);
    v.set(129);
    EXPECT_TRUE(v.test(0));
    EXPECT_TRUE(v.test(64));
    EXPECT_TRUE(v.test(129));
    EXPECT_FALSE(v.test(1));
    v.reset(64);
    EXPECT_FALSE(v.test(64));
    EXPECT_EQ(v.count(), 2u);
}

TEST(BitVec, UnionReportsChange)
{
    BitVec a(70), b(70);
    b.set(69);
    EXPECT_TRUE(a.unionWith(b));
    EXPECT_FALSE(a.unionWith(b)); // already contained
    EXPECT_TRUE(a.test(69));
}

TEST(BitVec, SubtractRemovesBits)
{
    BitVec a(10), b(10);
    a.set(3);
    a.set(4);
    b.set(3);
    a.subtract(b);
    EXPECT_FALSE(a.test(3));
    EXPECT_TRUE(a.test(4));
}

TEST(BitVec, EqualityComparesContentAndSize)
{
    BitVec a(10), b(10), c(11);
    EXPECT_TRUE(a == b);
    b.set(5);
    EXPECT_FALSE(a == b);
    EXPECT_FALSE(a == c);
}

TEST(BitVec, ClearZeroesEverything)
{
    BitVec a(100);
    a.set(7);
    a.set(99);
    a.clear();
    EXPECT_EQ(a.count(), 0u);
}

TEST(RunningStat, TracksMinMaxMeanSum)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    s.add(2.0);
    s.add(4.0);
    s.add(-1.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.sum(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), -1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.mean(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStat, EmptyAccumulatorIsWellDefined)
{
    const RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, SingleSampleHasZeroVariance)
{
    RunningStat s;
    s.add(7.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 7.0);
    EXPECT_DOUBLE_EQ(s.max(), 7.0);
}

TEST(RunningStat, WelfordMatchesDirectVariance)
{
    // Sample variance of {2, 4, 4, 4, 5, 5, 7, 9} is 32/7.
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(RunningStat, WelfordIsStableForOffsetSamples)
{
    // A naive sum-of-squares accumulator loses all precision here;
    // Welford keeps the exact small variance around a huge mean.
    RunningStat s;
    const double base = 1e9;
    for (double x : {base + 1.0, base + 2.0, base + 3.0})
        s.add(x);
    EXPECT_NEAR(s.variance(), 1.0, 1e-6);
}

TEST(RunningStat, MergeMatchesSequentialFeed)
{
    RunningStat all, a, b;
    const std::vector<double> xs = {1.0, -2.0, 3.5, 0.0, 10.0, 4.25};
    for (size_t i = 0; i < xs.size(); ++i) {
        all.add(xs[i]);
        (i < 3 ? a : b).add(xs[i]);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_DOUBLE_EQ(a.sum(), all.sum());
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
}

TEST(RunningStat, MergeWithEmptySides)
{
    RunningStat a, empty;
    a.add(1.0);
    a.add(3.0);
    const double var = a.variance();
    a.merge(empty); // no-op
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.variance(), var);
    empty.merge(a); // adopt
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Statistics, MeanAndGeomean)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({2.0, 4.0}), 3.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(Strutil, Strfmt)
{
    EXPECT_EQ(strfmt("x=%d y=%s", 5, "abc"), "x=5 y=abc");
    EXPECT_EQ(strfmt("%s", ""), "");
}

TEST(Strutil, Join)
{
    EXPECT_EQ(join({}, ", "), "");
    EXPECT_EQ(join({"a"}, ", "), "a");
    EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
}

TEST(Strutil, WithCommas)
{
    EXPECT_EQ(withCommas(0), "0");
    EXPECT_EQ(withCommas(999), "999");
    EXPECT_EQ(withCommas(1000), "1,000");
    EXPECT_EQ(withCommas(1234567), "1,234,567");
}

TEST(Strutil, Padding)
{
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padLeft("abcd", 2), "abcd");
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(padRight("abcd", 2), "abcd");
}

TEST(Strutil, ParseU64AcceptsOnlyWholeUnsignedTokens)
{
    uint64_t v = 7;
    EXPECT_TRUE(parseU64("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseU64("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);
    v = 7;
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "12x", "0x10",
                            "18446744073709551616"}) {
        EXPECT_FALSE(parseU64(bad, v)) << "'" << bad << "'";
        EXPECT_EQ(v, 7u) << "'" << bad << "' clobbered the output";
    }
}

TEST(Strutil, ParseU32RejectsWideValues)
{
    uint32_t v = 7;
    EXPECT_TRUE(parseU32("4294967295", v));
    EXPECT_EQ(v, UINT32_MAX);
    v = 7;
    for (const char *bad : {"", "-1", "+1", " 1", "12x", "4294967296"}) {
        EXPECT_FALSE(parseU32(bad, v)) << "'" << bad << "'";
        EXPECT_EQ(v, 7u);
    }
}

TEST(Strutil, ParseDoubleAcceptsOnlyWholeFiniteTokens)
{
    double v = 7;
    EXPECT_TRUE(parseDouble("0.25", v));
    EXPECT_EQ(v, 0.25);
    EXPECT_TRUE(parseDouble("-1.5e2", v));
    EXPECT_EQ(v, -150.0);
    v = 7;
    for (const char *bad :
         {"", "+1", " 1", "0.5x", "abc", "inf", "nan", "1e999"}) {
        EXPECT_FALSE(parseDouble(bad, v)) << "'" << bad << "'";
        EXPECT_EQ(v, 7.0);
    }
}

TEST(Strutil, FlagParsersExitOneNamingTheFlag)
{
    EXPECT_EQ(flagU64("--n", "42"), 42u);
    EXPECT_EQ(flagU64("--n", "5", 5), 5u);
    EXPECT_EQ(flagDouble("--x", "0.5"), 0.5);
    EXPECT_EXIT(flagU64("--threads", "abc"), ::testing::ExitedWithCode(1),
                "--threads wants a non-negative integer");
    EXPECT_EXIT(flagU64("--step-budget", "-1"),
                ::testing::ExitedWithCode(1), "--step-budget wants");
    EXPECT_EXIT(flagU64("--jobs", "6", 5), ::testing::ExitedWithCode(1),
                "--jobs wants at most 5");
    EXPECT_EXIT(flagDouble("--threshold", "y"),
                ::testing::ExitedWithCode(1), "--threshold wants");
}

} // namespace
} // namespace pathsched
