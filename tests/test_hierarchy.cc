/**
 * @file
 * Tests for the multi-level memory hierarchy: latency composition,
 * L1 filtering, write-back routing, and the hierarchy key.
 */

#include <gtest/gtest.h>

#include "mem/hierarchy.hh"
#include "mem/lru.hh"

namespace nucache
{
namespace
{

HierarchyConfig
smallConfig(std::uint32_t cores = 1)
{
    HierarchyConfig cfg;
    cfg.numCores = cores;
    cfg.l1 = CacheConfig{"l1", 1024, 2, 64};      // 8 sets
    cfg.llc = CacheConfig{"llc", 8192, 4, 64};    // 32 sets
    cfg.l1Latency = 3;
    cfg.llcLatency = 20;
    cfg.dram = DramConfig{200, 0, 1};  // no occupancy: pure latency
    return cfg;
}

TEST(Hierarchy, LatencyComposition)
{
    MemoryHierarchy mh(smallConfig(), std::make_unique<LruPolicy>());
    // Cold: L1 miss + LLC miss + DRAM.
    EXPECT_EQ(mh.access(0, 0x1000, 1, false, 0), 3u + 20u + 200u);
    // Warm in L1.
    EXPECT_EQ(mh.access(0, 0x1000, 1, false, 0), 3u);
}

TEST(Hierarchy, LlcHitAfterL1Eviction)
{
    MemoryHierarchy mh(smallConfig(), std::make_unique<LruPolicy>());
    mh.access(0, 0x1000, 1, false, 0);
    // Evict 0x1000 from the 2-way L1 set with two conflicting blocks
    // (L1 set stride = 8 sets * 64 B = 512 B).
    mh.access(0, 0x1000 + 512, 1, false, 0);
    mh.access(0, 0x1000 + 1024, 1, false, 0);
    // Still in the LLC: 3 + 20.
    EXPECT_EQ(mh.access(0, 0x1000, 1, false, 0), 23u);
}

TEST(Hierarchy, PrivateL1PerCore)
{
    MemoryHierarchy mh(smallConfig(2), std::make_unique<LruPolicy>());
    mh.access(0, 0x1000, 1, false, 0);
    // Core 1 misses its own L1, hits the shared LLC.
    EXPECT_EQ(mh.access(1, 0x1000, 1, false, 0), 23u);
    EXPECT_EQ(mh.l1(0).totalStats().accesses, 1u);
    EXPECT_EQ(mh.l1(1).totalStats().accesses, 1u);
}

TEST(Hierarchy, DirtyL1VictimDrainsToLlc)
{
    MemoryHierarchy mh(smallConfig(), std::make_unique<LruPolicy>());
    mh.access(0, 0x1000, 1, true, 0);   // write: dirty in L1
    mh.access(0, 0x1000 + 512, 1, false, 0);
    mh.access(0, 0x1000 + 1024, 1, false, 0);  // evicts dirty 0x1000
    // No DRAM write: the LLC absorbed it (block is present there).
    EXPECT_EQ(mh.dram().writes(), 0u);
    // Push the dirtied block out of the LLC (4-way, stride 2 KiB).
    for (int i = 1; i <= 4; ++i)
        mh.access(0, 0x1000 + i * 2048, 1, false, 0);
    EXPECT_EQ(mh.dram().writes(), 1u);
}

TEST(Hierarchy, DemandCountsAtEachLevel)
{
    MemoryHierarchy mh(smallConfig(), std::make_unique<LruPolicy>());
    for (int i = 0; i < 10; ++i)
        mh.access(0, 0x4000, 1, false, 0);
    EXPECT_EQ(mh.l1(0).totalStats().accesses, 10u);
    EXPECT_EQ(mh.l1(0).totalStats().misses, 1u);
    EXPECT_EQ(mh.llc().totalStats().accesses, 1u);
    EXPECT_EQ(mh.dram().reads(), 1u);
}

TEST(Hierarchy, ExposesConfig)
{
    MemoryHierarchy mh(smallConfig(), std::make_unique<LruPolicy>());
    EXPECT_EQ(mh.config().llc.sizeBytes, 8192u);
}

TEST(Hierarchy, KeyNamesEveryRunChangingField)
{
    // One row per HierarchyConfig field that can change a run: each
    // edit must change the key.  The cache names only label stats.
    struct Row
    {
        const char *field;
        void (*edit)(HierarchyConfig &);
    };
    const Row rows[] = {
        {"numCores", [](HierarchyConfig &c) { c.numCores = 2; }},
        {"l1.sizeBytes", [](HierarchyConfig &c) { c.l1.sizeBytes *= 2; }},
        {"l1.ways", [](HierarchyConfig &c) { c.l1.ways = 4; }},
        {"l1.blockSize", [](HierarchyConfig &c) { c.l1.blockSize = 32; }},
        {"l1.defense", [](HierarchyConfig &c) { c.l1.defense = "rand"; }},
        {"enableL2", [](HierarchyConfig &c) { c.enableL2 = true; }},
        {"l2.sizeBytes", [](HierarchyConfig &c) { c.l2.sizeBytes *= 2; }},
        {"l2.ways", [](HierarchyConfig &c) { c.l2.ways = 4; }},
        {"l2.blockSize", [](HierarchyConfig &c) { c.l2.blockSize = 32; }},
        {"l2.defense", [](HierarchyConfig &c) { c.l2.defense = "rand"; }},
        {"llc.sizeBytes",
         [](HierarchyConfig &c) { c.llc.sizeBytes *= 2; }},
        {"llc.ways", [](HierarchyConfig &c) { c.llc.ways = 8; }},
        {"llc.blockSize",
         [](HierarchyConfig &c) { c.llc.blockSize = 32; }},
        {"llc.defense",
         [](HierarchyConfig &c) { c.llc.defense = "rand"; }},
        {"l1Latency", [](HierarchyConfig &c) { c.l1Latency = 4; }},
        {"l2Latency", [](HierarchyConfig &c) { c.l2Latency = 11; }},
        {"llcLatency", [](HierarchyConfig &c) { c.llcLatency = 21; }},
        {"dram.latency", [](HierarchyConfig &c) { c.dram.latency = 201; }},
        {"dram.occupancy",
         [](HierarchyConfig &c) { c.dram.occupancy = 1; }},
        {"dram.channels", [](HierarchyConfig &c) { c.dram.channels = 2; }},
        {"prefetch.enabled",
         [](HierarchyConfig &c) { c.prefetch.enabled = true; }},
        {"prefetch.tableEntries",
         [](HierarchyConfig &c) { c.prefetch.tableEntries = 64; }},
        {"prefetch.degree",
         [](HierarchyConfig &c) { c.prefetch.degree = 4; }},
        {"inclusive", [](HierarchyConfig &c) { c.inclusive = true; }},
    };
    const HierarchyConfig base = smallConfig();
    const std::string key = hierarchyKey(base);
    for (const Row &row : rows) {
        HierarchyConfig edited = base;
        row.edit(edited);
        EXPECT_NE(hierarchyKey(edited), key) << row.field;
    }

    HierarchyConfig renamed = base;
    renamed.l1.name = "first";
    renamed.llc.name = "shared";
    EXPECT_EQ(hierarchyKey(renamed), key);
}

TEST(HierarchyDeathTest, RejectsZeroCores)
{
    HierarchyConfig cfg = smallConfig();
    cfg.numCores = 0;
    EXPECT_EXIT(MemoryHierarchy(cfg, std::make_unique<LruPolicy>()),
                ::testing::ExitedWithCode(1), "at least one core");
}

TEST(HierarchyDeathTest, OutOfRangeCorePanics)
{
    MemoryHierarchy mh(smallConfig(1), std::make_unique<LruPolicy>());
    EXPECT_DEATH(mh.access(3, 0x0, 1, false, 0), "core 3");
}

} // anonymous namespace
} // namespace nucache
