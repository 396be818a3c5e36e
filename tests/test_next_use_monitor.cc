/**
 * @file
 * Tests for the Next-Use monitor: retire/use matching, distance
 * accounting, lease counting, aging and pruning; and for the
 * open-addressed SlotIndex its tables use.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hh"
#include "core/next_use_monitor.hh"
#include "core/slot_index.hh"

namespace nucache
{
namespace
{

NextUseMonitorConfig
fullSampling()
{
    NextUseMonitorConfig cfg;
    cfg.sampleShift = 0;  // watch every set
    return cfg;
}

TEST(NextUseMonitor, RecordsRetireToMissDistance)
{
    NextUseMonitor m(fullSampling());
    m.onRetire(0, /*tag=*/100, /*pc=*/1);
    // Four misses to other blocks, then the reuse miss.
    for (Addr t = 200; t < 204; ++t)
        m.onMiss(0, t, 9);
    m.onMiss(0, 100, 2);
    EXPECT_EQ(m.matchedSamples(), 1u);
    const auto top = m.topDelinquent(8);
    // The distance is credited to the ALLOCATING pc (1), not the
    // missing pc (2).
    bool found = false;
    for (const auto &p : top) {
        if (p.pc == 1) {
            found = true;
            ASSERT_NE(p.nextUse, nullptr);
            EXPECT_EQ(p.nextUse->total(), 1u);
            // Distance = 5 misses (4 interleaved + the matching one).
            EXPECT_GT(p.nextUse->countAtOrBelow(5), 0.9);
            EXPECT_LT(p.nextUse->countAtOrBelow(3), 0.5);
        }
    }
    EXPECT_TRUE(found);
}

TEST(NextUseMonitor, RecordsRetireToUseDistance)
{
    NextUseMonitor m(fullSampling());
    m.onRetire(0, 100, 1);
    m.onMiss(0, 200, 9);
    m.onUse(0, 100);  // a DeliWays hit
    EXPECT_EQ(m.matchedSamples(), 1u);
}

TEST(NextUseMonitor, UseConsumesBoardEntry)
{
    NextUseMonitor m(fullSampling());
    m.onRetire(0, 100, 1);
    m.onUse(0, 100);
    m.onUse(0, 100);  // second use has no entry
    EXPECT_EQ(m.matchedSamples(), 1u);
}

TEST(NextUseMonitor, MissCountsPerPc)
{
    NextUseMonitor m(fullSampling());
    m.onMiss(0, 1, 10);
    m.onMiss(0, 2, 10);
    m.onMiss(0, 3, 20);
    const auto top = m.topDelinquent(8);
    ASSERT_GE(top.size(), 2u);
    EXPECT_EQ(top[0].pc, 10u);
    EXPECT_EQ(top[0].misses, 2u);
    EXPECT_EQ(m.totalMisses(), 3u);
}

TEST(NextUseMonitor, LeaseCountsRetiresWithoutBoarding)
{
    NextUseMonitor m(fullSampling());
    m.onLease(0, 5);
    m.onLease(0, 5);
    const auto top = m.topDelinquent(8);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].retires, 2u);
    // No board entry: a miss on any tag matches nothing.
    m.onMiss(0, 42, 5);
    EXPECT_EQ(m.matchedSamples(), 0u);
}

TEST(NextUseMonitor, BoardIsFifoBounded)
{
    NextUseMonitorConfig cfg = fullSampling();
    cfg.boardEntries = 4;
    NextUseMonitor m(cfg);
    for (Addr t = 0; t < 6; ++t)
        m.onRetire(0, 100 + t, 1);
    // The two oldest entries were displaced.
    m.onMiss(0, 100, 1);
    m.onMiss(0, 101, 1);
    EXPECT_EQ(m.matchedSamples(), 0u);
    m.onMiss(0, 105, 1);
    EXPECT_EQ(m.matchedSamples(), 1u);
}

TEST(NextUseMonitor, ReRetireKeepsNewestStamp)
{
    NextUseMonitor m(fullSampling());
    m.onRetire(0, 100, 1);
    for (Addr t = 0; t < 10; ++t)
        m.onMiss(0, 200 + t, 9);
    m.onRetire(0, 100, 1);  // re-boarded with a fresh stamp
    m.onMiss(0, 300, 9);
    m.onMiss(0, 100, 1);
    const auto top = m.topDelinquent(8);
    for (const auto &p : top) {
        if (p.pc == 1) {
            // Distance measured from the SECOND retire: 2, not 12.
            EXPECT_GT(p.nextUse->countAtOrBelow(3), 0.9);
        }
    }
}

TEST(NextUseMonitor, DistancesSurviveEpochBoundaries)
{
    NextUseMonitor m(fullSampling());
    m.onRetire(0, 100, 1);
    for (Addr t = 0; t < 8; ++t)
        m.onMiss(0, 200 + t, 9);
    m.epochDecay();  // must NOT corrupt the pending distance
    for (Addr t = 0; t < 8; ++t)
        m.onMiss(0, 300 + t, 9);
    m.onMiss(0, 100, 1);
    const auto top = m.topDelinquent(8);
    for (const auto &p : top) {
        if (p.pc == 1) {
            ASSERT_EQ(p.nextUse->total(), 1u);
            // True distance is 17 misses; accept the bucket range.
            EXPECT_GT(p.nextUse->countAtOrBelow(20), 0.5);
            EXPECT_LT(p.nextUse->countAtOrBelow(10), 0.5);
        }
    }
}

TEST(NextUseMonitor, SampledScalingAppliesToDistances)
{
    NextUseMonitorConfig cfg;
    cfg.sampleShift = 2;  // 1 in 4
    NextUseMonitor m(cfg);
    EXPECT_EQ(m.scaleFactor(), 4u);
    // Find a sampled set.
    std::uint32_t set = 0;
    while (!m.sampled(set))
        ++set;
    m.onRetire(set, 100, 1);
    m.onMiss(set, 200, 9);
    m.onMiss(set, 100, 1);
    const auto top = m.topDelinquent(8);
    for (const auto &p : top) {
        if (p.pc == 1) {
            // 2 sampled misses -> estimated global distance 8.
            EXPECT_GT(p.nextUse->countAtOrBelow(9), 0.5);
            EXPECT_LT(p.nextUse->countAtOrBelow(4), 0.5);
        }
    }
}

TEST(NextUseMonitor, UnsampledSetsIgnored)
{
    NextUseMonitorConfig cfg;
    cfg.sampleShift = 3;
    NextUseMonitor m(cfg);
    std::uint32_t unsampled = 0;
    while (m.sampled(unsampled))
        ++unsampled;
    m.onMiss(unsampled, 1, 1);
    m.onRetire(unsampled, 2, 1);
    EXPECT_EQ(m.totalMisses(), 0u);
    EXPECT_EQ(m.trackedPcs(), 0u);
}

TEST(NextUseMonitor, EpochDecayAgesAndPrunes)
{
    NextUseMonitorConfig cfg = fullSampling();
    cfg.maxPcs = 2;
    NextUseMonitor m(cfg);
    m.onMiss(0, 1, 10);
    m.onMiss(0, 2, 10);
    m.onMiss(0, 3, 10);
    m.onMiss(0, 4, 10);
    m.onMiss(0, 5, 20);
    m.onMiss(0, 6, 30);
    EXPECT_EQ(m.trackedPcs(), 3u);
    m.epochDecay();
    EXPECT_EQ(m.trackedPcs(), 2u);
    const auto top = m.topDelinquent(8);
    EXPECT_EQ(top[0].pc, 10u);
    EXPECT_EQ(top[0].misses, 2u);  // 4 halved
}

TEST(NextUseMonitor, CounterfactualRankingKeepsServedPcs)
{
    NextUseMonitor m(fullSampling());
    // PC 1: few misses but many matched next-uses (being served).
    for (int i = 0; i < 10; ++i) {
        m.onRetire(0, 100 + i, 1);
        m.onUse(0, 100 + i);
    }
    m.onMiss(0, 99, 1);
    // PC 2: moderate misses, no reuse.
    for (int i = 0; i < 5; ++i)
        m.onMiss(0, 200 + i, 2);
    const auto top = m.topDelinquent(2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].pc, 1u);  // 1 miss + 10 uses > 5 misses
}

TEST(NextUseMonitor, EpochPruneKeepsServedPcsAndLowerTies)
{
    NextUseMonitorConfig cfg = fullSampling();
    cfg.maxPcs = 2;
    NextUseMonitor m(cfg);
    // PC 50: no misses, but every retired block's next use is served.
    for (int i = 0; i < 10; ++i) {
        m.onRetire(0, 100 + i, 50);
        m.onUse(0, 100 + i);
    }
    // PCs 9, 3 and 7 tie on misses, each above PC 50's count.
    for (const PC pc : {9u, 3u, 7u}) {
        for (int i = 0; i < 4; ++i)
            m.onMiss(0, 1000 * pc + i, pc);
    }
    m.epochDecay();
    ASSERT_EQ(m.trackedPcs(), 2u);
    const auto top = m.topDelinquent(8);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].pc, 50u);
    EXPECT_EQ(top[1].pc, 3u);
}

TEST(SlotIndex, MatchesAMapUnderChurn)
{
    // 40 keys churn through 64 cells at up to 24 live: collisions
    // build probe runs, and erasing inside one shifts later members.
    constexpr std::uint32_t kSlots = 24;
    std::vector<std::uint64_t> keys(kSlots, 0);
    std::vector<bool> used(kSlots, false);
    std::map<std::uint64_t, std::uint32_t> model;
    SlotIndex index;
    index.reset(kSlots);
    const auto key_of = [&](std::uint32_t s) { return keys[s]; };
    Rng rng(31);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t key = rng.below(40);
        const std::size_t cell = index.find(key, key_of);
        const auto it = model.find(key);
        ASSERT_EQ(index.live(cell), it != model.end()) << "key " << key;
        if (it != model.end()) {
            ASSERT_EQ(index.slot(cell), it->second);
            if (rng.chance(0.5)) {
                index.erase(cell, key_of);
                used[it->second] = false;
                model.erase(it);
            }
        } else if (model.size() < kSlots) {
            std::uint32_t s = 0;
            while (used[s])
                ++s;
            used[s] = true;
            keys[s] = key;
            index.put(cell, s);
            model[key] = s;
        }
    }
    // Every surviving key is still found at its slot.
    for (const auto &[key, s] : model) {
        const std::size_t cell = index.find(key, key_of);
        ASSERT_TRUE(index.live(cell));
        EXPECT_EQ(index.slot(cell), s);
    }
    EXPECT_EQ(index.capacity(), 32u);
}

TEST(NextUseMonitor, ClaimingADeadSlotKeepsItsTagsNewerEntry)
{
    NextUseMonitorConfig cfg = fullSampling();
    cfg.boardEntries = 4;
    NextUseMonitor m(cfg);
    // Ring slots 0..3 take tags 1..4; tag 5 displaces 1 from slot 0.
    for (Addr t = 1; t <= 5; ++t)
        m.onRetire(0, t, 1);
    // Re-retiring 3 claims slot 1 (displacing 2) and leaves slot 2
    // dead, still holding tag 3.  Tag 6 then claims slot 2: the
    // index names slot 1 for tag 3, so that entry must survive.
    m.onRetire(0, 3, 1);
    m.onRetire(0, 6, 1);
    for (Addr t = 1; t <= 6; ++t)
        m.onUse(0, t);
    EXPECT_EQ(m.matchedSamples(), 4u);  // 3, 4, 5 and 6
}

TEST(NextUseMonitorDeathTest, RejectsDegenerateConfig)
{
    NextUseMonitorConfig cfg;
    cfg.boardEntries = 0;
    EXPECT_EXIT(NextUseMonitor{cfg}, ::testing::ExitedWithCode(1),
                "at least one entry");
    NextUseMonitorConfig cfg2;
    cfg2.maxPcs = 0;
    EXPECT_EXIT(NextUseMonitor{cfg2}, ::testing::ExitedWithCode(1),
                "maxPcs");
}

} // anonymous namespace
} // namespace nucache
