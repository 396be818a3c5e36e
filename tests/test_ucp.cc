/**
 * @file
 * Tests for UCP: the lookahead partitioner on crafted utility curves,
 * and quota enforcement in the cache.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "mem/cache.hh"
#include "mem/lru.hh"
#include "policy/ucp.hh"

namespace nucache
{
namespace
{

AccessInfo
read(Addr addr, CoreId core, PC pc = 0x400000)
{
    AccessInfo info;
    info.addr = addr;
    info.pc = pc;
    info.coreId = core;
    return info;
}

/** Linear curve: hits = slope * ways. */
std::vector<std::uint64_t>
linearCurve(std::uint32_t ways, std::uint64_t slope)
{
    std::vector<std::uint64_t> c(ways);
    for (std::uint32_t w = 0; w < ways; ++w)
        c[w] = slope * (w + 1);
    return c;
}

/** Step curve: zero until `knee` ways, then `value`. */
std::vector<std::uint64_t>
stepCurve(std::uint32_t ways, std::uint32_t knee, std::uint64_t value)
{
    std::vector<std::uint64_t> c(ways, 0);
    for (std::uint32_t w = knee; w <= ways; ++w)
        c[w - 1] = value;
    return c;
}

TEST(Lookahead, AllocationsSumToTotal)
{
    const auto alloc = lookaheadPartition(
        {linearCurve(16, 3), linearCurve(16, 1)}, 16, 1);
    EXPECT_EQ(std::accumulate(alloc.begin(), alloc.end(), 0u), 16u);
}

TEST(Lookahead, GreedyFavoursSteeperCurve)
{
    const auto alloc = lookaheadPartition(
        {linearCurve(16, 10), linearCurve(16, 1)}, 16, 1);
    EXPECT_GT(alloc[0], alloc[1]);
    EXPECT_GE(alloc[1], 1u);  // floor respected
}

TEST(Lookahead, EqualCurvesSplitEvenly)
{
    const auto alloc = lookaheadPartition(
        {linearCurve(16, 5), linearCurve(16, 5)}, 16, 1);
    EXPECT_EQ(alloc[0] + alloc[1], 16u);
    EXPECT_NEAR(static_cast<double>(alloc[0]), 8.0, 4.0);
}

TEST(Lookahead, SeesPastConvexKnee)
{
    // Core 0 gains nothing until 8 ways, then a lot; core 1 gains a
    // trickle per way.  Pure greedy-by-single-way would starve core 0;
    // lookahead must jump the knee.
    const auto alloc = lookaheadPartition(
        {stepCurve(16, 8, 1000), linearCurve(16, 10)}, 16, 1);
    EXPECT_GE(alloc[0], 8u);
}

TEST(Lookahead, StreamGetsMinimum)
{
    // A flat (no-reuse) curve should receive only the floor.
    std::vector<std::uint64_t> flat(16, 0);
    const auto alloc =
        lookaheadPartition({linearCurve(16, 4), flat}, 16, 1);
    EXPECT_EQ(alloc[1], 1u);
    EXPECT_EQ(alloc[0], 15u);
}

TEST(Lookahead, FourCores)
{
    const auto alloc = lookaheadPartition(
        {linearCurve(32, 8), linearCurve(32, 4), linearCurve(32, 2),
         std::vector<std::uint64_t>(32, 0)},
        32, 1);
    EXPECT_EQ(std::accumulate(alloc.begin(), alloc.end(), 0u), 32u);
    EXPECT_GE(alloc[0], alloc[1]);
    EXPECT_GE(alloc[1], alloc[2]);
    EXPECT_EQ(alloc[3], 1u);
}

TEST(LookaheadDeathTest, RejectsImpossibleFloor)
{
    EXPECT_EXIT(lookaheadPartition({linearCurve(4, 1),
                                    linearCurve(4, 1)}, 4, 3),
                ::testing::ExitedWithCode(1), "cannot give");
}

TEST(Ucp, ProtectsCacheFriendlyCoreFromStream)
{
    // Core 0: loop that fits half the cache.  Core 1: pure stream.
    CacheConfig cfg{"u", 64ull * 8 * 64, 8, 64};  // 64 sets x 8 ways
    UcpConfig ucfg;
    ucfg.epochAccesses = 5000;
    ucfg.sampleShift = 0;  // monitor everything (small cache)
    Cache c(cfg, std::make_unique<UcpPolicy>(ucfg), 2);

    std::uint64_t stream_addr = 1 << 24;
    for (int iter = 0; iter < 400; ++iter) {
        for (int b = 0; b < 192; ++b)
            c.access(read(b * 64ull, 0));
        for (int b = 0; b < 192; ++b) {
            c.access(read(stream_addr, 1));
            stream_addr += 64;
        }
    }
    const auto s0 = c.coreStats(0);
    // Without protection, the stream flushes the loop between its
    // iterations; with UCP the loop should mostly hit.
    EXPECT_GT(static_cast<double>(s0.hits) / s0.accesses, 0.7);
}

TEST(Ucp, QuotasSumToWays)
{
    CacheConfig cfg{"u", 64ull * 8 * 64, 8, 64};
    auto policy = std::make_unique<UcpPolicy>();
    UcpPolicy *ucp = policy.get();
    Cache c(cfg, std::move(policy), 4);
    (void)c;
    ucp->repartition();
    std::uint32_t sum = 0;
    for (const std::uint32_t q : ucp->quotas())
        sum += q;
    EXPECT_EQ(sum, 8u);
}

/**
 * The owner byte UCP writes on every fill is the column its quotas are
 * enforced over (the tag store no longer records the core), and its
 * invariant check rejects a valid line owned by no registered core.
 */
TEST(Ucp, OwnerColumnRecordsAllocatingCore)
{
    CacheConfig cfg{"u", 4ull * 4 * 64, 4, 64};
    auto policy = std::make_unique<UcpPolicy>();
    UcpPolicy *ucp = policy.get();
    Cache c(cfg, std::move(policy), 2);
    c.access(read(0x1000, 1, 0xabcd));
    c.access(read(0x2000, 0));
    const std::uint32_t set = c.setIndexOf(0x1000);
    const SetView view = c.viewSet(set);
    std::uint32_t owned = 0;
    for (std::uint32_t w = 0; w < view.ways(); ++w) {
        if (!view.line(w).valid)
            continue;
        const Addr tag = view.line(w).tag;
        EXPECT_EQ(ucp->ownerOf(set, w), tag == c.tagOf(0x1000) ? 1u : 0u);
        ++owned;
    }
    EXPECT_EQ(owned, 2u);
    std::string why;
    EXPECT_TRUE(ucp->checkInvariants(view, why)) << why;

    // A line the policy never saw filled has no registered owner.
    CacheConfig one{"u", 1ull * 4 * 64, 4, 64};
    UcpPolicy fresh;
    Cache other(one, std::make_unique<LruPolicy>(), 2);
    other.access(read(0x0, 0));
    PolicyContext ctx;
    ctx.numSets = 1;
    ctx.numWays = 4;
    ctx.numCores = 2;
    fresh.init(ctx);
    EXPECT_FALSE(fresh.checkInvariants(other.viewSet(0), why));
    EXPECT_NE(why.find("cores registered"), std::string::npos) << why;
}

TEST(UcpDeathTest, NeedsWayPerCore)
{
    CacheConfig cfg{"u", 64ull * 2 * 64, 2, 64};
    EXPECT_EXIT(Cache(cfg, std::make_unique<UcpPolicy>(), 4),
                ::testing::ExitedWithCode(1), "at least one way");
}

} // anonymous namespace
} // namespace nucache
