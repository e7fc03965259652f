/**
 * @file
 * Unit tests for the deterministic RNG and distributions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <tuple>

#include "sim/random.hh"

namespace flexsnoop
{
namespace
{

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng a(99);
    const auto first = a.next();
    a.next();
    a.reseed(99);
    EXPECT_EQ(a.next(), first);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextBelowOneIsAlwaysZero)
{
    Rng rng(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextBelow(1), 0u);
}

TEST(Rng, NextBelowCoversAllValues)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.nextBelow(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextBelowIsRoughlyUniform)
{
    Rng rng(13);
    constexpr int kBuckets = 10;
    constexpr int kSamples = 100000;
    int counts[kBuckets] = {};
    for (int i = 0; i < kSamples; ++i)
        ++counts[rng.nextBelow(kBuckets)];
    for (int c : counts) {
        EXPECT_GT(c, kSamples / kBuckets * 0.9);
        EXPECT_LT(c, kSamples / kBuckets * 1.1);
    }
}

TEST(Rng, NextRangeInclusiveBounds)
{
    Rng rng(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.nextRange(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(17);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ChanceZeroNeverOneAlways)
{
    Rng rng(19);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, GeometricMeanIsCloseToRequested)
{
    Rng rng(23);
    const double target = 40.0;
    double sum = 0.0;
    constexpr int kSamples = 200000;
    for (int i = 0; i < kSamples; ++i)
        sum += static_cast<double>(rng.nextGeometric(target));
    const double mean = sum / kSamples;
    EXPECT_NEAR(mean, target, target * 0.05);
}

TEST(Rng, GeometricIsAtLeastOne)
{
    Rng rng(29);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GE(rng.nextGeometric(3.0), 1u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextGeometric(1.0), 1u);
}

TEST(Zipf, UniformThetaZeroIsFlat)
{
    ZipfSampler zipf(10, 0.0);
    Rng rng(31);
    int counts[10] = {};
    constexpr int kSamples = 100000;
    for (int i = 0; i < kSamples; ++i)
        ++counts[zipf.sample(rng)];
    for (int c : counts) {
        EXPECT_GT(c, kSamples / 10 * 0.9);
        EXPECT_LT(c, kSamples / 10 * 1.1);
    }
}

TEST(Zipf, SkewFavorsLowIndices)
{
    ZipfSampler zipf(100, 0.99);
    Rng rng(37);
    int low = 0, high = 0;
    for (int i = 0; i < 10000; ++i) {
        const auto v = zipf.sample(rng);
        if (v < 10)
            ++low;
        else if (v >= 90)
            ++high;
    }
    EXPECT_GT(low, 5 * high);
}

TEST(Zipf, SamplesInRange)
{
    ZipfSampler zipf(7, 0.8);
    Rng rng(41);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(zipf.sample(rng), 7u);
}

TEST(Zipf, SingleElement)
{
    ZipfSampler zipf(1, 0.9);
    Rng rng(43);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(zipf.sample(rng), 0u);
}

/** Index of the full-CDF binary search the guide table must reproduce. */
std::size_t
fullSearch(const ZipfSampler &zipf, double u)
{
    const auto &cdf = zipf.cdf();
    return static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

/** (n, theta): one value, powers of two (uniform ones put CDF values
 *  exactly on bucket bounds), non-powers of two, and the 40k-line
 *  private footprint of the specjbb profile. */
class ZipfGuide
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>>
{
};

TEST_P(ZipfGuide, MatchesFullBinarySearch)
{
    const auto [n, theta] = GetParam();
    const ZipfSampler zipf(n, theta);
    const std::size_t k = zipf.buckets();
    ASSERT_EQ(k & (k - 1), 0u) << "bucket count must be a power of two";
    ASSERT_GE(k, n);
    // The table takes no more memory than the CDF.
    EXPECT_LE((k + 1) * sizeof(std::uint32_t), n * sizeof(double));

    Rng rng(0x5eed + n);
    for (int i = 0; i < 1'000'000; ++i) {
        const double u = rng.nextDouble();
        ASSERT_EQ(zipf.indexOf(u), fullSearch(zipf, u)) << "u=" << u;
    }

    // Bucket bounds u = j/K and the values just below them, plus the
    // ends of [0, 1).
    for (std::size_t j = 0; j < k; ++j) {
        const double bound = static_cast<double>(j) / static_cast<double>(k);
        ASSERT_EQ(zipf.indexOf(bound), fullSearch(zipf, bound)) << j;
        if (j > 0) {
            const double below = std::nextafter(bound, 0.0);
            ASSERT_EQ(zipf.indexOf(below), fullSearch(zipf, below)) << j;
        }
    }
    const double top = std::nextafter(1.0, 0.0);
    EXPECT_EQ(zipf.indexOf(0.0), fullSearch(zipf, 0.0));
    EXPECT_EQ(zipf.indexOf(top), fullSearch(zipf, top));
    EXPECT_LT(zipf.indexOf(top), n);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ZipfGuide,
    ::testing::Values(std::make_tuple(std::size_t{1}, 0.9),
                      std::make_tuple(std::size_t{8}, 0.0),
                      std::make_tuple(std::size_t{1024}, 0.99),
                      std::make_tuple(std::size_t{10}, 0.0),
                      std::make_tuple(std::size_t{6144}, 0.65),
                      std::make_tuple(std::size_t{40000}, 0.3)),
    [](const auto &info) {
        std::ostringstream name;
        name << 'N' << std::get<0>(info.param) << "Theta"
             << static_cast<int>(std::get<1>(info.param) * 100);
        return name.str();
    });

} // namespace
} // namespace flexsnoop
