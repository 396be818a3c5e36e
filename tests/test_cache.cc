/**
 * @file
 * Tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/lru.hh"

namespace nucache
{
namespace
{

Cache
smallCache(std::uint32_t cores = 1)
{
    // 4 sets x 4 ways x 64 B = 1 KiB.
    CacheConfig cfg{"test", 1024, 4, 64};
    return Cache(cfg, std::make_unique<LruPolicy>(), cores);
}

AccessInfo
read(Addr addr, CoreId core = 0, PC pc = 0x400000)
{
    AccessInfo info;
    info.addr = addr;
    info.pc = pc;
    info.coreId = core;
    info.isWrite = false;
    return info;
}

AccessInfo
write(Addr addr, CoreId core = 0)
{
    AccessInfo info = read(addr, core);
    info.isWrite = true;
    return info;
}

TEST(CacheConfigTest, NumSets)
{
    CacheConfig cfg{"c", 1 << 20, 16, 64};
    EXPECT_EQ(cfg.numSets(), 1024u);
}

TEST(Cache, ColdMissThenHit)
{
    Cache c = smallCache();
    EXPECT_FALSE(c.access(read(0x1000)).hit);
    EXPECT_TRUE(c.access(read(0x1000)).hit);
    // Same block, different byte offset.
    EXPECT_TRUE(c.access(read(0x103f)).hit);
    // Next block misses.
    EXPECT_FALSE(c.access(read(0x1040)).hit);
}

TEST(Cache, StatsPerCore)
{
    Cache c = smallCache(2);
    c.access(read(0x0, 0));
    c.access(read(0x0, 0));
    c.access(read(0x40, 1));
    EXPECT_EQ(c.coreStats(0).accesses, 2u);
    EXPECT_EQ(c.coreStats(0).hits, 1u);
    EXPECT_EQ(c.coreStats(0).misses, 1u);
    EXPECT_EQ(c.coreStats(1).misses, 1u);
    const auto total = c.totalStats();
    EXPECT_EQ(total.accesses, 3u);
    EXPECT_EQ(total.hits, 1u);
    EXPECT_DOUBLE_EQ(c.coreStats(0).missRate(), 0.5);
}

TEST(Cache, LruEvictionOrder)
{
    Cache c = smallCache();
    // Fill one set (set stride = 4 sets * 64 B = 256 B).
    for (int i = 0; i < 4; ++i)
        c.access(read(0x1000 + i * 256));
    // Touch the first line so the second becomes LRU.
    c.access(read(0x1000));
    // A new conflicting block must evict the LRU line (0x1100).
    const auto res = c.access(read(0x1000 + 4 * 256));
    EXPECT_TRUE(res.evicted);
    EXPECT_EQ(res.evictedAddr, 0x1100u);
    EXPECT_TRUE(c.probe(0x1000));
    EXPECT_FALSE(c.probe(0x1100));
}

TEST(Cache, WritebackOnlyForDirtyVictims)
{
    Cache c = smallCache();
    c.access(write(0x1000));
    for (int i = 1; i < 4; ++i)
        c.access(read(0x1000 + i * 256));
    // Evict the dirty line.
    const auto res = c.access(read(0x1000 + 4 * 256));
    EXPECT_TRUE(res.writeback);
    EXPECT_EQ(res.writebackAddr, 0x1000u);
    EXPECT_EQ(c.writebacks(), 1u);
    // Evicting a clean line must not write back.
    const auto res2 = c.access(read(0x1000 + 5 * 256));
    EXPECT_TRUE(res2.evicted);
    EXPECT_FALSE(res2.writeback);
}

TEST(Cache, WriteHitMarksDirty)
{
    Cache c = smallCache();
    c.access(read(0x1000));
    c.access(write(0x1000));
    for (int i = 1; i < 5; ++i)
        c.access(read(0x1000 + i * 256));
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, InvalidateRemovesBlock)
{
    Cache c = smallCache();
    c.access(read(0x2000));
    EXPECT_TRUE(c.probe(0x2000));
    EXPECT_TRUE(c.invalidate(0x2000));
    EXPECT_FALSE(c.probe(0x2000));
    EXPECT_FALSE(c.invalidate(0x2000));
}

TEST(Cache, WritebackUpdateDirtiesPresentBlocks)
{
    Cache c = smallCache();
    c.access(read(0x3000));
    EXPECT_TRUE(c.writebackUpdate(0x3000));
    EXPECT_FALSE(c.writebackUpdate(0x9000));
    // The dirtied line must write back on eviction.
    for (int i = 1; i < 5; ++i)
        c.access(read(0x3000 + i * 256));
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, ProbeHasNoSideEffects)
{
    Cache c = smallCache();
    c.access(read(0x1000));
    const auto before = c.totalStats();
    c.probe(0x1000);
    c.probe(0x9999);
    const auto after = c.totalStats();
    EXPECT_EQ(before.accesses, after.accesses);
}

TEST(Cache, SetIndexAndTag)
{
    Cache c = smallCache();
    EXPECT_EQ(c.setIndexOf(0x0), 0u);
    EXPECT_EQ(c.setIndexOf(0x40), 1u);
    EXPECT_EQ(c.setIndexOf(0x100), 0u);
    EXPECT_EQ(c.tagOf(0x1000), 0x40u);
}

TEST(Cache, FillsPreferInvalidWays)
{
    Cache c = smallCache();
    // Three blocks to the same set: no eviction while ways are free.
    for (int i = 0; i < 3; ++i) {
        const auto res = c.access(read(0x1000 + i * 256));
        EXPECT_FALSE(res.evicted) << i;
    }
}

TEST(Cache, ResetStatsKeepsContents)
{
    Cache c = smallCache();
    c.access(read(0x1000));
    c.resetStats();
    EXPECT_EQ(c.totalStats().accesses, 0u);
    EXPECT_TRUE(c.probe(0x1000));
}

TEST(CacheDeathTest, RejectsBadGeometry)
{
    EXPECT_EXIT(Cache(CacheConfig{"c", 1000, 4, 64},
                      std::make_unique<LruPolicy>()),
                ::testing::ExitedWithCode(1), "not a multiple");
    EXPECT_EXIT(Cache(CacheConfig{"c", 1024, 0, 64},
                      std::make_unique<LruPolicy>()),
                ::testing::ExitedWithCode(1), "zero associativity");
    EXPECT_EXIT(Cache(CacheConfig{"c", 1024, 4, 48},
                      std::make_unique<LruPolicy>()),
                ::testing::ExitedWithCode(1), "power of two");
    EXPECT_EXIT(Cache(CacheConfig{"c", 1024, 4, 64}, nullptr),
                ::testing::ExitedWithCode(1), "no replacement policy");
}

TEST(CacheDeathTest, UnknownCorePanics)
{
    Cache c = smallCache(1);
    EXPECT_DEATH(c.access(read(0x0, 5)), "core 5");
}

/** Property: hits + misses == accesses under arbitrary traffic. */
class CacheAccountingProperty
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CacheAccountingProperty, CountsBalance)
{
    const std::uint32_t ways = GetParam();
    CacheConfig cfg{"p", 64u * ways * 8, ways, 64};
    Cache c(cfg, std::make_unique<LruPolicy>());
    std::uint64_t x = 12345;
    for (int i = 0; i < 20000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        AccessInfo info;
        info.addr = (x >> 16) % (1 << 16);
        info.pc = 0x400000;
        info.isWrite = (x & 1) != 0;
        c.access(info);
    }
    const auto s = c.totalStats();
    EXPECT_EQ(s.accesses, 20000u);
    EXPECT_EQ(s.hits + s.misses, s.accesses);
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheAccountingProperty,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

} // anonymous namespace
} // namespace nucache
