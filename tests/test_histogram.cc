/**
 * @file
 * Tests for the log-linear histogram, including the bucket-boundary
 * algebra the Next-Use monitor depends on, and its cumulative view.
 */

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <vector>

#include "common/histogram.hh"
#include "common/rng.hh"

namespace nucache
{
namespace
{

TEST(LogHistogram, SmallValuesGetExactBuckets)
{
    LogHistogram h(32, 2);
    for (std::uint64_t v = 0; v < 4; ++v)
        EXPECT_EQ(h.bucketOf(v), v) << "value " << v;
    EXPECT_EQ(h.bucketLow(2), 2u);
    EXPECT_EQ(h.bucketHigh(2), 3u);
}

TEST(LogHistogram, BucketBoundsInvertBucketOf)
{
    LogHistogram h(32, 2);
    // Every value must fall inside [low, high) of its own bucket.
    for (std::uint64_t v : {0ull, 1ull, 3ull, 4ull, 5ull, 7ull, 8ull,
                            9ull, 100ull, 1023ull, 1024ull, 123456ull,
                            (1ull << 31)}) {
        const unsigned b = h.bucketOf(v);
        EXPECT_GE(v, h.bucketLow(b)) << "value " << v;
        EXPECT_LT(v, h.bucketHigh(b)) << "value " << v;
    }
}

TEST(LogHistogram, BucketsAreContiguous)
{
    LogHistogram h(32, 2);
    for (unsigned b = 0; b + 1 < h.numBuckets(); ++b)
        EXPECT_EQ(h.bucketHigh(b), h.bucketLow(b + 1)) << "bucket " << b;
}

TEST(LogHistogram, BucketOfIsMonotone)
{
    LogHistogram h(32, 2);
    unsigned prev = 0;
    for (std::uint64_t v = 0; v < 100000; v += 7) {
        const unsigned b = h.bucketOf(v);
        EXPECT_GE(b, prev);
        prev = b;
    }
}

TEST(LogHistogram, RelativeResolutionBounded)
{
    // With 2 sub-bits every bucket spans at most 25% of its low bound.
    LogHistogram h(32, 2);
    for (unsigned b = 4; b + 1 < h.numBuckets(); ++b) {
        const double lo = static_cast<double>(h.bucketLow(b));
        const double width = static_cast<double>(h.bucketHigh(b)) - lo;
        EXPECT_LE(width / lo, 0.25 + 1e-9) << "bucket " << b;
    }
}

TEST(LogHistogram, SaturatesIntoLastBucket)
{
    LogHistogram h(8, 2);
    h.add(~std::uint64_t{0});
    EXPECT_EQ(h.count(h.numBuckets() - 1), 1u);
}

TEST(LogHistogram, TotalTracksAdds)
{
    LogHistogram h(32, 2);
    h.add(5, 3);
    h.add(1000);
    EXPECT_EQ(h.total(), 4u);
}

TEST(LogHistogram, CountAtOrBelowWholeAndFractionalBuckets)
{
    LogHistogram h(32, 2);
    h.add(10, 100);  // bucket [10, 12)
    // Entire bucket below a large limit.
    EXPECT_DOUBLE_EQ(h.countAtOrBelow(1000), 100.0);
    // Limit below the bucket.
    EXPECT_DOUBLE_EQ(h.countAtOrBelow(9), 0.0);
    // Limit = 10 covers 1 of the 2 values in [10,12).
    EXPECT_NEAR(h.countAtOrBelow(10), 50.0, 1e-9);
}

/**
 * The cumulative view answers exactly what countAtOrBelow() answers,
 * bit for bit, on random histograms at every bucket edge, inside the
 * buckets, past the covered range and at the selection's UINT64_MAX/2
 * saturation limit.
 */
TEST(LogHistogramCdf, BitIdenticalToCountAtOrBelow)
{
    Rng rng(2011);
    for (int trial = 0; trial < 40; ++trial) {
        const unsigned sub_bits = static_cast<unsigned>(rng.below(4));
        const unsigned max_log2 =
            sub_bits + 1 + static_cast<unsigned>(rng.below(30));
        LogHistogram h(max_log2, sub_bits);
        const int adds = static_cast<int>(rng.below(200));
        for (int i = 0; i < adds; ++i) {
            const std::uint64_t value =
                rng.below(std::uint64_t{1} << (1 + rng.below(max_log2 + 2)));
            h.add(value, 1 + rng.below(1000));
        }
        const LogHistogramCdf cdf(h);

        std::vector<std::uint64_t> limits = {
            0, std::numeric_limits<std::uint64_t>::max() / 2};
        const unsigned last = h.numBuckets() - 1;
        for (unsigned b = 0; b < h.numBuckets(); ++b) {
            const std::uint64_t lo = h.bucketLow(b);
            const std::uint64_t hi = h.bucketHigh(b);
            limits.insert(limits.end(), {lo, hi - 1, hi});
            if (hi - lo > 2)
                limits.push_back(lo + 1 + rng.below(hi - lo - 2));
        }
        for (std::uint64_t past = 1; past <= 1000; past *= 10)
            limits.push_back(h.bucketHigh(last) + past);
        limits.push_back(h.bucketHigh(last) * 3);

        for (const std::uint64_t limit : limits) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(cdf.atOrBelow(limit)),
                      std::bit_cast<std::uint64_t>(
                          h.countAtOrBelow(limit)))
                << "trial " << trial << " limit " << limit << " ("
                << cdf.atOrBelow(limit) << " vs "
                << h.countAtOrBelow(limit) << ")";
        }
    }
}

TEST(LogHistogram, DecayHalvesCounts)
{
    LogHistogram h(32, 2);
    h.add(100, 9);
    h.decay();
    EXPECT_EQ(h.total(), 4u);
    h.decay();
    EXPECT_EQ(h.total(), 2u);
}

TEST(LogHistogram, ClearZeroes)
{
    LogHistogram h(32, 2);
    h.add(12, 7);
    h.clear();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_DOUBLE_EQ(h.countAtOrBelow(~std::uint64_t{0} >> 1), 0.0);
}

TEST(LogHistogram, MergeAccumulates)
{
    LogHistogram a(32, 2), b(32, 2);
    a.add(16, 2);
    b.add(16, 3);
    b.add(64, 1);
    a.merge(b);
    EXPECT_EQ(a.total(), 6u);
    EXPECT_EQ(a.count(a.bucketOf(16)), 5u);
}

/** Parameterized sweep over sub-bucket resolutions. */
class LogHistogramSubBits : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(LogHistogramSubBits, BoundsStayConsistent)
{
    const unsigned sub = GetParam();
    LogHistogram h(40, sub);
    for (std::uint64_t v = 1; v < (1ull << 20); v = v * 3 + 1) {
        const unsigned b = h.bucketOf(v);
        ASSERT_GE(v, h.bucketLow(b)) << "sub=" << sub << " v=" << v;
        ASSERT_LT(v, h.bucketHigh(b)) << "sub=" << sub << " v=" << v;
    }
    for (unsigned b = 0; b + 1 < h.numBuckets(); ++b)
        ASSERT_EQ(h.bucketHigh(b), h.bucketLow(b + 1));
}

INSTANTIATE_TEST_SUITE_P(Resolutions, LogHistogramSubBits,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u));

} // anonymous namespace
} // namespace nucache
