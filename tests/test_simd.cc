/**
 * @file
 * The runtime-dispatched equality kernel against its scalar loop, at
 * every dispatch level the host supports, and both minimum scans
 * against reference scans.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"

namespace nucache
{
namespace
{

/** The masked-minimum kernel as the policies wrote it before. */
std::uint32_t
referenceMaskedMin(const std::vector<std::uint64_t> &row, std::uint32_t n,
                   std::uint64_t mask)
{
    std::uint32_t best = n;
    std::uint64_t lowest = ~std::uint64_t{0};
    for (std::uint32_t w = 0; w < n; ++w) {
        if (((mask >> w) & 1) != 0 && row[w] < lowest) {
            lowest = row[w];
            best = w;
        }
    }
    return best;
}

/** One lane value: small (so ties are common) or all-ones. */
std::uint64_t
laneValue(Rng &rng)
{
    const std::uint64_t pick = rng.below(8);
    if (pick == 0)
        return ~std::uint64_t{0};
    if (pick == 1)
        return rng.next();
    return rng.below(6);
}

TEST(SimdMaskedMin, MatchesScalarLoopAtEveryWidth)
{
    Rng rng(0x51dull);
    for (std::uint32_t n = 1; n <= 64; ++n) {
        const std::uint64_t lanes =
            n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
        std::vector<std::uint64_t> row(n);
        for (int trial = 0; trial < 200; ++trial) {
            for (auto &v : row)
                v = laneValue(rng);
            // Full, sparse and random masks; bits past n must be
            // ignored, so random ones set some.
            std::uint64_t mask = rng.next();
            if (trial % 4 == 0)
                mask = lanes;
            if (trial % 4 == 1)
                mask = mask & (mask >> 7) & (mask >> 13);
            ASSERT_EQ(simd::minIndexMasked64(row.data(), n, mask),
                      referenceMaskedMin(row, n, mask))
                << "n=" << n << " trial " << trial;
        }
    }
}

TEST(SimdMaskedMin, EmptyMaskAndAllOnesLanesReturnN)
{
    const auto fn = simd::minIndexMasked64;
    for (std::uint32_t n = 1; n <= 64; ++n) {
        std::vector<std::uint64_t> row(n, 3);
        EXPECT_EQ(fn(row.data(), n, 0), n) << "n=" << n;
        // Only bits past the row: still empty.
        if (n < 64) {
            EXPECT_EQ(fn(row.data(), n, ~std::uint64_t{0} << n), n)
                << "n=" << n;
        }
        std::vector<std::uint64_t> ones(n, ~std::uint64_t{0});
        EXPECT_EQ(fn(ones.data(), n, ~std::uint64_t{0}), n) << "n=" << n;
    }
}

TEST(SimdMaskedMin, TiesGoToTheLowestMaskedIndex)
{
    const auto fn = simd::minIndexMasked64;
    for (std::uint32_t n = 2; n <= 64; ++n) {
        std::vector<std::uint64_t> row(n, 7);
        // Unmasked lanes never win, even with smaller values.
        row[0] = 1;
        EXPECT_EQ(fn(row.data(), n, ~std::uint64_t{1}), 1u) << "n=" << n;
        const std::uint64_t high =
            std::uint64_t{1} << (n - 1) | std::uint64_t{1} << (n / 2);
        EXPECT_EQ(fn(row.data(), n, high), n / 2) << "n=" << n;
    }
}

TEST(SimdMinIndex, MatchesScalarLoopAtEveryWidth)
{
    Rng rng(0x4d1ull);
    for (std::uint32_t n = 1; n <= 64; ++n) {
        std::vector<std::uint64_t> row(n);
        for (int trial = 0; trial < 100; ++trial) {
            for (auto &v : row)
                v = laneValue(rng);
            // std::min_element returns the first of equal minima.
            const auto want = static_cast<std::uint32_t>(
                std::min_element(row.begin(), row.end()) - row.begin());
            EXPECT_EQ(simd::minIndex64(row.data(), n), want) << "n=" << n;
        }
    }
}

} // anonymous namespace
} // namespace nucache
