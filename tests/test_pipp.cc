/**
 * @file
 * Tests for PIPP: rank-order invariants, insertion position and
 * probabilistic promotion.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "mem/cache.hh"
#include "policy/pipp.hh"

namespace nucache
{
namespace
{

AccessInfo
read(Addr addr, CoreId core = 0)
{
    AccessInfo info;
    info.addr = addr;
    info.pc = 0x400000;
    info.coreId = core;
    return info;
}

/** Assert every valid line in @p set holds a unique rank. */
void
expectUniqueRanks(const Cache &c, const PippPolicy &pipp,
                  std::uint32_t set)
{
    const SetView view = c.viewSet(set);
    std::set<std::uint32_t> ranks;
    std::uint32_t valid = 0;
    for (std::uint32_t w = 0; w < view.ways(); ++w) {
        if (!view.line(w).valid)
            continue;
        ++valid;
        const std::uint32_t r = pipp.rankOf(set, w);
        ASSERT_LT(r, view.ways());
        ASSERT_TRUE(ranks.insert(r).second) << "duplicate rank " << r;
    }
    // Ranks must be exactly 0..valid-1.
    if (valid > 0) {
        ASSERT_EQ(*ranks.rbegin(), valid - 1);
    }
}

TEST(Pipp, RanksStayUniqueUnderRandomTraffic)
{
    CacheConfig cfg{"p", 8ull * 8 * 64, 8, 64};  // 8 sets x 8 ways
    PippConfig pcfg;
    pcfg.epochAccesses = 500;
    pcfg.sampleShift = 0;
    auto policy = std::make_unique<PippPolicy>(pcfg);
    PippPolicy *pipp = policy.get();
    Cache c(cfg, std::move(policy), 2);

    std::uint64_t x = 77;
    for (int i = 0; i < 20000; ++i) {
        x = x * 6364136223846793005ull + 1;
        c.access(read(((x >> 16) % 256) * 64, (x >> 40) % 2));
        if (i % 500 == 0) {
            for (std::uint32_t s = 0; s < 8; ++s)
                expectUniqueRanks(c, *pipp, s);
        }
    }
}

TEST(Pipp, VictimIsLowestRank)
{
    CacheConfig cfg{"p", 1ull * 4 * 64, 4, 64};  // one set
    PippConfig pcfg;
    pcfg.promoteProb = 0.0;  // deterministic: no promotion
    auto policy = std::make_unique<PippPolicy>(pcfg);
    Cache c(cfg, std::move(policy), 1);
    // Allocation for a single core = all 4 ways -> insert position 3.
    for (int b = 0; b < 4; ++b)
        c.access(read(b * 64ull));
    // Oldest insert sits at rank 0 now; a new block evicts it.
    c.access(read(4 * 64ull));
    EXPECT_FALSE(c.probe(0));
    EXPECT_TRUE(c.probe(4 * 64ull));
}

TEST(Pipp, PromotionClimbsOnePosition)
{
    CacheConfig cfg{"p", 1ull * 4 * 64, 4, 64};
    PippConfig pcfg;
    pcfg.promoteProb = 1.0;  // always promote
    auto policy = std::make_unique<PippPolicy>(pcfg);
    PippPolicy *pipp = policy.get();
    Cache c(cfg, std::move(policy), 1);
    for (int b = 0; b < 4; ++b)
        c.access(read(b * 64ull));
    // Find block 0's way and rank.
    const SetView view = c.viewSet(0);
    std::uint32_t way0 = 4;
    for (std::uint32_t w = 0; w < 4; ++w) {
        if (view.line(w).valid && view.line(w).tag == 0)
            way0 = w;
    }
    ASSERT_LT(way0, 4u);
    const std::uint32_t before = pipp->rankOf(0, way0);
    c.access(read(0));
    const std::uint32_t after = pipp->rankOf(0, way0);
    if (before < 3)
        EXPECT_EQ(after, before + 1);
    else
        EXPECT_EQ(after, before);
}

TEST(Pipp, LowAllocationCoreInsertsNearLru)
{
    // With 2 cores and a one-sided utility profile, the stream core's
    // fills should be evicted quickly (inserted near LRU).
    CacheConfig cfg{"p", 64ull * 8 * 64, 8, 64};
    PippConfig pcfg;
    pcfg.epochAccesses = 4000;
    pcfg.sampleShift = 0;
    Cache c(cfg, std::make_unique<PippPolicy>(pcfg), 2);
    std::uint64_t stream = 1 << 24;
    for (int iter = 0; iter < 300; ++iter) {
        for (int b = 0; b < 256; ++b)
            c.access(read(b * 64ull, 0));
        for (int b = 0; b < 128; ++b) {
            c.access(read(stream, 1));
            stream += 64;
        }
    }
    const auto s0 = c.coreStats(0);
    const auto s1 = c.coreStats(1);
    // PIPP's pseudo-partitioning is softer than hard way quotas, so
    // the bar is lower than UCP's: the loop keeps a majority of its
    // hits while the stream gets essentially nothing.
    EXPECT_GT(static_cast<double>(s0.hits) / s0.accesses, 0.45);
    EXPECT_LT(static_cast<double>(s1.hits) / s1.accesses, 0.05);
}

/** @return the way holding block @p block of a one-set cache. */
std::uint32_t
wayOf(const Cache &c, Addr block)
{
    const SetView view = c.viewSet(0);
    for (std::uint32_t w = 0; w < view.ways(); ++w) {
        if (view.line(w).valid && view.line(w).tag == block)
            return w;
    }
    return view.ways();
}

TEST(Pipp, InvalidatedLinesLeaveTheOrderRowOnTheNextFill)
{
    // Cache::invalidate drops a line without telling the policy, so
    // its way stays in the order row until the next fill compacts it.
    CacheConfig cfg{"p", 1ull * 8 * 64, 8, 64};  // one set
    PippConfig pcfg;
    pcfg.promoteProb = 0.0;
    auto policy = std::make_unique<PippPolicy>(pcfg);
    PippPolicy *pipp = policy.get();
    Cache c(cfg, std::move(policy), 1);
    for (Addr b = 0; b < 8; ++b)
        c.access(read(b * 64));
    ASSERT_TRUE(c.invalidate(3 * 64));
    ASSERT_TRUE(c.invalidate(5 * 64));

    // Block 8 refills the first invalidated way; block 9 fills the
    // other.  Each fill must leave an exact permutation of the valid
    // ways (so the row never holds more than `ways` entries).
    std::string why;
    EXPECT_FALSE(c.access(read(8 * 64)).hit);
    EXPECT_TRUE(pipp->checkInvariants(c.viewSet(0), why)) << why;
    EXPECT_FALSE(c.access(read(9 * 64)).hit);
    EXPECT_TRUE(pipp->checkInvariants(c.viewSet(0), why)) << why;
    expectUniqueRanks(c, *pipp, 0);

    // One core owns all 8 ways, so a fill inserts at min(7, count),
    // where count holds only live lines: block 8 went in above the six
    // survivors, block 9 above it.
    EXPECT_EQ(pipp->rankOf(0, wayOf(c, 8)), 6u);
    EXPECT_EQ(pipp->rankOf(0, wayOf(c, 9)), 7u);
    EXPECT_EQ(pipp->rankOf(0, wayOf(c, 0)), 0u);
    c.access(read(10 * 64));
    EXPECT_FALSE(c.probe(0));
    EXPECT_TRUE(pipp->checkInvariants(c.viewSet(0), why)) << why;
}

TEST(Pipp, OrderRowsSurviveInvalidationsUnderRandomTraffic)
{
    CacheConfig cfg{"p", 4ull * 8 * 64, 8, 64};  // 4 sets x 8 ways
    PippConfig pcfg;
    pcfg.epochAccesses = 300;
    pcfg.sampleShift = 0;
    auto policy = std::make_unique<PippPolicy>(pcfg);
    PippPolicy *pipp = policy.get();
    Cache c(cfg, std::move(policy), 2);

    std::uint64_t x = 5;
    std::string why;
    for (int i = 0; i < 20000; ++i) {
        x = x * 6364136223846793005ull + 1;
        const Addr addr = ((x >> 16) % 96) * 64;
        if ((x >> 60) < 3) {
            c.invalidate(addr);
            continue;
        }
        // A fill compacts every stale entry of its set; a hit leaves
        // them in place (the victim path skips invalid ways).
        if (!c.access(read(addr, (x >> 40) % 2)).hit) {
            ASSERT_TRUE(
                pipp->checkInvariants(c.viewSet(c.setIndexOf(addr)), why))
                << "access " << i << ": " << why;
        }
    }
}

TEST(Pipp, AccountingBalances)
{
    CacheConfig cfg{"p", 16ull * 8 * 64, 8, 64};
    Cache c(cfg, std::make_unique<PippPolicy>(), 2);
    std::uint64_t x = 31;
    for (int i = 0; i < 30000; ++i) {
        x = x * 6364136223846793005ull + 1;
        c.access(read(((x >> 14) % 1024) * 64, (x >> 40) % 2));
    }
    const auto s = c.totalStats();
    EXPECT_EQ(s.hits + s.misses, s.accesses);
}

} // anonymous namespace
} // namespace nucache
