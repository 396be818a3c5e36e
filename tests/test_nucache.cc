/**
 * @file
 * Tests for the NUcache organization: Main/Deli invariants, retention
 * of selected blocks, promotion semantics, stale reclamation, and the
 * LRU-degeneration property when nothing is selected.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/checker.hh"
#include "common/bitutil.hh"
#include "common/rng.hh"
#include "core/nucache.hh"
#include "mem/cache.hh"
#include "mem/lru.hh"
#include "sim/policies.hh"

namespace nucache
{
namespace
{

AccessInfo
read(Addr addr, PC pc = 0x400000, CoreId core = 0)
{
    AccessInfo info;
    info.addr = addr;
    info.pc = pc;
    info.coreId = core;
    return info;
}

NUcacheConfig
testConfig(std::uint32_t deli_ways,
           NUcacheConfig::Selection mode =
               NUcacheConfig::Selection::CostBenefit)
{
    NUcacheConfig cfg;
    cfg.deliWays = deli_ways;
    cfg.selection = mode;
    cfg.epochMisses = 2000;
    cfg.monitor.sampleShift = 0;  // monitor everything in unit tests
    return cfg;
}

TEST(NUcache, DefaultSplitIsFiveEighths)
{
    CacheConfig cfg{"n", 4ull * 16 * 64, 16, 64};
    auto policy = std::make_unique<NUcachePolicy>();
    NUcachePolicy *nu = policy.get();
    Cache c(cfg, std::move(policy));
    (void)c;
    EXPECT_EQ(nu->numDeliWays(), 10u);
    EXPECT_EQ(nu->mainWays(), 6u);
}

TEST(NUcache, InvariantsHoldUnderRandomTraffic)
{
    CacheConfig cfg{"n", 8ull * 8 * 64, 8, 64};  // 8 sets x 8 ways
    auto policy = std::make_unique<NUcachePolicy>(testConfig(5));
    NUcachePolicy *nu = policy.get();
    Cache c(cfg, std::move(policy));

    Rng rng(404);
    for (int i = 0; i < 40000; ++i) {
        const Addr addr = rng.below(512) * 64;
        c.access(read(addr, 0x400000 + (addr / 64 % 16) * 4));
        if (i % 997 == 0) {
            for (std::uint32_t s = 0; s < 8; ++s)
                ASSERT_TRUE(nu->checkSetInvariants(c.viewSet(s)))
                    << "set " << s << " at access " << i;
        }
    }
    const auto s = c.totalStats();
    EXPECT_EQ(s.hits + s.misses, s.accesses);
}

TEST(NUcache, OrderRowsSurviveInvalidationsBetweenFills)
{
    // Cache::invalidate drops lines behind the policy's back, leaving
    // stale region bits and row places; the checker audits the order
    // row after every access.
    for (const bool adaptive : {false, true}) {
        NUcacheConfig ncfg = testConfig(5);
        ncfg.adaptiveDeli = adaptive;
        CacheConfig cfg{"n", 4ull * 8 * 64, 8, 64};  // 4 sets x 8 ways
        Cache c(cfg, std::make_unique<NUcachePolicy>(ncfg));
        CacheChecker checker(c, CacheChecker::Mode::Collect);
        Rng rng(adaptive ? 77 : 76);
        std::uint64_t dropped = 0;
        for (int i = 0; i < 20000; ++i) {
            const Addr addr = rng.below(96) * 64;
            c.access(read(addr, 0x400000 + (addr / 64 % 6) * 4));
            if (i % 3 == 0)
                dropped += c.invalidate(rng.below(96) * 64) ? 1 : 0;
        }
        EXPECT_GT(dropped, 1000u) << "adaptive=" << adaptive;
        EXPECT_EQ(checker.checksRun(), 20000u);
        EXPECT_EQ(checker.violationCount(), 0u)
            << checker.violations().front().what;
    }
}

/** Invariants hold for every DeliWays count. */
class NUcacheDeliSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(NUcacheDeliSweep, InvariantsAndAccounting)
{
    const std::uint32_t d = GetParam();
    CacheConfig cfg{"n", 4ull * 16 * 64, 16, 64};
    auto policy = std::make_unique<NUcachePolicy>(testConfig(d));
    NUcachePolicy *nu = policy.get();
    Cache c(cfg, std::move(policy));
    Rng rng(d * 31 + 5);
    for (int i = 0; i < 20000; ++i) {
        const Addr addr = rng.below(256) * 64;
        c.access(read(addr, 0x400000 + (addr / 64 % 8) * 4));
    }
    for (std::uint32_t s = 0; s < 4; ++s)
        EXPECT_TRUE(nu->checkSetInvariants(c.viewSet(s))) << "d=" << d;
    const auto s = c.totalStats();
    EXPECT_EQ(s.hits + s.misses, s.accesses);
}

INSTANTIATE_TEST_SUITE_P(DeliWays, NUcacheDeliSweep,
                         ::testing::Values(0u, 1u, 4u, 6u, 10u, 15u));

TEST(NUcache, SelectedBlocksRetainedInDeliWays)
{
    // One set, 8 ways (3 main + 5 deli).  Selection::All admits every
    // PC.  A block pushed out of the MainWays must survive in the
    // DeliWays and hit on reuse.
    CacheConfig cfg{"n", 1ull * 8 * 64, 8, 64};
    auto policy = std::make_unique<NUcachePolicy>(
        testConfig(5, NUcacheConfig::Selection::All));
    NUcachePolicy *nu = policy.get();
    Cache c(cfg, std::move(policy));

    c.access(read(0));  // block under test
    // Push 7 more distinct blocks through: 0 leaves the 3 MainWays.
    for (Addr b = 1; b <= 7; ++b)
        c.access(read(b * 64));
    EXPECT_TRUE(c.probe(0));
    EXPECT_TRUE(c.access(read(0)).hit);
    EXPECT_GE(nu->deliHits(), 1u);
}

TEST(NUcache, NoneSelectionNeverUsesDeliWaysAfterWarmup)
{
    CacheConfig cfg{"n", 1ull * 8 * 64, 8, 64};
    auto policy = std::make_unique<NUcachePolicy>(
        testConfig(5, NUcacheConfig::Selection::None));
    NUcachePolicy *nu = policy.get();
    Cache c(cfg, std::move(policy));
    // Cyclic loop of 2x capacity: with nothing selected, the stale-
    // reclamation path recycles the DeliWays as a FIFO annex.
    std::uint64_t late_hits = 0;
    for (int iter = 0; iter < 100; ++iter) {
        for (Addr b = 0; b < 16; ++b) {
            const bool hit = c.access(read(b * 64)).hit;
            if (iter > 2)
                late_hits += hit ? 1 : 0;
        }
    }
    // A 16-block loop in an 8-way set: miss always (like true LRU).
    EXPECT_EQ(late_hits, 0u);
    EXPECT_EQ(nu->deliHits(), 0u);
}

TEST(NUcache, DegeneratesToNearLruWhenNothingSelected)
{
    // Selection::None on a working set that FITS: hit rate must match
    // true 16-way LRU (the stale-reclamation path keeps the DeliWays
    // usable as capacity).
    CacheConfig cfg{"n", 16ull * 16 * 64, 16, 64};  // 256 blocks
    auto nupol = std::make_unique<NUcachePolicy>(
        testConfig(10, NUcacheConfig::Selection::None));
    Cache nu(cfg, std::move(nupol));
    Cache lru(cfg, std::make_unique<LruPolicy>());

    Rng rng(777);
    for (int i = 0; i < 60000; ++i) {
        // Zipf-ish skew via double draw.
        Addr block = rng.below(512);
        if (rng.chance(0.7))
            block = rng.below(128);
        nu.access(read(block * 64));
        lru.access(read(block * 64));
    }
    const double nu_rate =
        static_cast<double>(nu.totalStats().hits) /
        static_cast<double>(nu.totalStats().accesses);
    const double lru_rate =
        static_cast<double>(lru.totalStats().hits) /
        static_cast<double>(lru.totalStats().accesses);
    EXPECT_NEAR(nu_rate, lru_rate, 0.05);
}

/**
 * The structural identity discovered by the ablation study: with
 * indiscriminate admission (everything or nothing selected), blocks
 * demote out of the MainWays in recency order, the FIFO annex is
 * exactly the LRU stack's tail, and every DeliWay hit re-promotes to
 * MRU — so the organization is *bit-identical* to true LRU.  This is
 * the strongest available correctness check of the Main/Deli
 * bookkeeping: any off-by-one in demotion, promotion or victim
 * selection breaks exact equality under random traffic.
 */
class NUcacheLruIdentity
    : public ::testing::TestWithParam<
          std::tuple<NUcacheConfig::Selection, std::uint32_t>>
{
};

TEST_P(NUcacheLruIdentity, BitIdenticalToLru)
{
    const auto [mode, deli] = GetParam();
    CacheConfig cfg{"n", 16ull * 16 * 64, 16, 64};
    Cache nu(cfg, std::make_unique<NUcachePolicy>(testConfig(deli, mode)));
    Cache lru(cfg, std::make_unique<LruPolicy>());

    Rng rng(deli * 1000 + static_cast<unsigned>(mode));
    for (int i = 0; i < 60000; ++i) {
        Addr block = rng.below(1024);
        if (rng.chance(0.5))
            block = rng.below(192);
        const AccessInfo info = read(block * 64, 0x400000 + block % 32);
        ASSERT_EQ(nu.access(info).hit, lru.access(info).hit)
            << "diverged at access " << i;
    }
    EXPECT_EQ(nu.totalStats().hits, lru.totalStats().hits);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, NUcacheLruIdentity,
    ::testing::Combine(
        ::testing::Values(NUcacheConfig::Selection::All,
                          NUcacheConfig::Selection::None),
        ::testing::Values(1u, 4u, 10u, 15u)));

TEST(NUcache, StaleDeliBlocksReclaimedFirst)
{
    // Fill the DeliWays via Selection::All warmup-style demotions,
    // then switch understanding: with Selection::None (fresh policy,
    // shared cache contents are rebuilt), stale blocks must not
    // blockade capacity.  Covered behaviourally by the degeneration
    // test; here check the victim choice directly: a full set with
    // stale deli lines evicts one of those, not the Main-LRU.
    CacheConfig cfg{"n", 1ull * 8 * 64, 8, 64};
    auto policy = std::make_unique<NUcachePolicy>(
        testConfig(5, NUcacheConfig::Selection::None));
    Cache c(cfg, std::move(policy));
    // 8 fills: 3 main + 5 demoted-to-deli (warmup free-space use).
    for (Addr b = 0; b < 8; ++b)
        c.access(read(b * 64));
    // Touch the main lines (the 3 most recent fills: blocks 5, 6, 7).
    c.access(read(5 * 64));
    c.access(read(6 * 64));
    c.access(read(7 * 64));
    // A new fill must evict a stale deli line (oldest: block 0), not
    // any of the recently-touched main lines.
    c.access(read(8 * 64));
    EXPECT_TRUE(c.probe(5 * 64));
    EXPECT_TRUE(c.probe(6 * 64));
    EXPECT_TRUE(c.probe(7 * 64));
    EXPECT_FALSE(c.probe(0));
}

TEST(NUcache, EpochsRunAndSelect)
{
    CacheConfig cfg{"n", 64ull * 16 * 64, 16, 64};
    NUcacheConfig ncfg = testConfig(10);
    ncfg.epochMisses = 1000;
    auto policy = std::make_unique<NUcachePolicy>(ncfg);
    NUcachePolicy *nu = policy.get();
    Cache c(cfg, std::move(policy));

    // A loop with clear per-PC reuse beyond the MainWays' reach plus a
    // polluting stream.  The block->PC mapping is hashed (like the
    // workload generators): a strided mapping would concentrate one
    // PC's blocks in a few sets and overload their DeliWays.
    Addr stream = 1 << 24;
    for (int iter = 0; iter < 60; ++iter) {
        for (Addr b = 0; b < 1500; ++b)
            c.access(read(b * 64, 0x400000 + (mix64(b) % 8) * 4));
        for (int s = 0; s < 500; ++s) {
            c.access(read(stream, 0x500000));
            stream += 64;
        }
    }
    EXPECT_GT(nu->epochsRun(), 5u);
    EXPECT_FALSE(nu->selectedPcs().empty());
    // The stream PC must not be admitted.
    EXPECT_FALSE(std::ranges::binary_search(nu->selectedPcs(), 0x500000u));
    EXPECT_GT(nu->deliHits(), 0u);
}

TEST(NUcache, BeatsPlainLruUnderPollution)
{
    // The headline mechanism test: loop + stream vs a plain LRU cache.
    CacheConfig cfg{"n", 64ull * 16 * 64, 16, 64};  // 1024 blocks
    NUcacheConfig ncfg = testConfig(10);
    ncfg.epochMisses = 2000;
    Cache nu(cfg, std::make_unique<NUcachePolicy>(ncfg));
    Cache lru(cfg, std::make_unique<LruPolicy>());

    const auto run = [](Cache &c) {
        Addr stream = 1 << 24;
        for (int iter = 0; iter < 80; ++iter) {
            // 600-block loop (fits alone) + heavy stream pollution.
            for (Addr b = 0; b < 600; ++b)
                c.access(read(b * 64, 0x400000 + (b % 8) * 4));
            for (int s = 0; s < 900; ++s) {
                c.access(read(stream, 0x500000));
                stream += 64;
            }
        }
        return static_cast<double>(c.totalStats().hits) /
               static_cast<double>(c.totalStats().accesses);
    };
    const double nu_rate = run(nu);
    const double lru_rate = run(lru);
    EXPECT_GT(nu_rate, lru_rate + 0.1);
}

TEST(NUcache, TopKModeSelectsSomething)
{
    CacheConfig cfg{"n", 16ull * 8 * 64, 8, 64};
    NUcacheConfig ncfg = testConfig(5, NUcacheConfig::Selection::TopK);
    ncfg.topK = 4;
    ncfg.epochMisses = 500;
    auto policy = std::make_unique<NUcachePolicy>(ncfg);
    NUcachePolicy *nu = policy.get();
    Cache c(cfg, std::move(policy));
    Rng rng(55);
    for (int i = 0; i < 20000; ++i)
        c.access(read(rng.below(1024) * 64, 0x400000 + rng.below(8) * 4));
    EXPECT_GT(nu->epochsRun(), 0u);
    EXPECT_LE(nu->selectedPcs().size(), 4u);
    EXPECT_GE(nu->selectedPcs().size(), 1u);
}

/**
 * The promotion corner case: a DeliWays hit on a *selected* block
 * whose promotion would demote a *non-selected* Main-LRU must refresh
 * the block's FIFO lease in place instead of promoting — and the
 * resulting state must satisfy every structural invariant.
 */
TEST(NUcache, DeliHitWithIneligibleMainLruRefreshesLease)
{
    constexpr PC PC_SEL = 0x400000;
    constexpr PC PC_OTHER = 0x500000;

    // 2 sets x 8 ways, 3 Main + 5 Deli; TopK-1 selection driven
    // manually so exactly PC_SEL is retained.
    CacheConfig cfg{"n", 2ull * 8 * 64, 8, 64};
    NUcacheConfig ncfg = testConfig(5, NUcacheConfig::Selection::TopK);
    ncfg.topK = 1;
    auto policy = std::make_unique<NUcachePolicy>(ncfg);
    NUcachePolicy *nu = policy.get();
    Cache c(cfg, std::move(policy));
    CacheChecker checker(c, CacheChecker::Mode::Collect);

    // Warmup misses in set 1 make PC_SEL the top delinquent PC.
    for (std::uint64_t b = 0; b < 40; ++b)
        c.access(read((2 * b + 1) * 64, PC_SEL));
    nu->runSelection();
    ASSERT_EQ(nu->selectedPcs().size(), 1u);
    ASSERT_EQ(nu->selectedPcs().front(), PC_SEL);

    // Set 0: fill A under the selected PC, then seven non-selected
    // fills.  A is demoted on the 4th fill (ways fill lowest-first, so
    // A sits in way 0) and ends up in the DeliWays FIFO with the
    // MainWays full of non-selected blocks.
    const Addr A = 0;
    c.access(read(A, PC_SEL));
    for (std::uint64_t b = 1; b <= 7; ++b)
        c.access(read(2 * b * 64, PC_OTHER));
    ASSERT_TRUE(nu->inDeliWays(0, 0));

    // The corner: hitting A cannot promote (MainWays full, Main-LRU
    // non-selected, A selected), so it must stay a DeliWays line with
    // a renewed lease.
    const std::uint64_t deli_before = nu->deliHits();
    EXPECT_TRUE(c.access(read(A, PC_SEL)).hit);
    EXPECT_EQ(nu->deliHits(), deli_before + 1);
    EXPECT_TRUE(nu->inDeliWays(0, 0));
    EXPECT_TRUE(nu->checkSetInvariants(c.viewSet(0)));

    // The lease protects A: further non-selected misses reclaim the
    // stale (non-selected) DeliWays lines first.
    for (std::uint64_t b = 8; b <= 10; ++b)
        c.access(read(2 * b * 64, PC_OTHER));
    EXPECT_TRUE(c.probe(A));
    EXPECT_TRUE(nu->inDeliWays(0, 0));

    // The per-access sweeps ran and the state never tripped a check.
    EXPECT_GT(checker.checksRun(), 0u);
    EXPECT_EQ(checker.violationCount(), 0u)
        << checker.violations().front().what;
}

/**
 * The stale-bit paths of the per-set masks: 2 sets x 8 ways (3 Main +
 * 5 Deli) under hand-driven TopK selection, with the CacheChecker in
 * Panic mode verifying every access.  Set 1 manufactures delinquency;
 * set 0 is the set under test.
 */
class NUcacheStaleBits : public ::testing::Test
{
  protected:
    static constexpr PC PC_A = 0x400000;
    static constexpr PC PC_B = 0x500000;
    static constexpr PC PC_C = 0x600000;

    void
    build(std::uint32_t topk)
    {
        NUcacheConfig ncfg =
            testConfig(5, NUcacheConfig::Selection::TopK);
        ncfg.topK = topk;
        auto policy = std::make_unique<NUcachePolicy>(ncfg);
        nu = policy.get();
        cache = std::make_unique<Cache>(
            CacheConfig{"n", 2ull * 8 * 64, 8, 64}, std::move(policy));
        checker = std::make_unique<CacheChecker>(*cache);
    }

    /** @return address of the @p i-th block of set @p set. */
    static Addr
    block(std::uint32_t set, std::uint64_t i)
    {
        return (2 * i + set) * 64;
    }

    /** Miss @p n fresh blocks of @p pc in set 1, then reselect. */
    void
    delinquentThenSelect(PC pc, std::uint64_t n)
    {
        for (std::uint64_t i = 0; i < n; ++i)
            cache->access(read(block(1, nextSet1Block++), pc));
        nu->runSelection();
    }

    /** Fill set 0's ways 0..7 in order with one block per PC given. */
    void
    fillSet0(const std::vector<PC> &pcs)
    {
        for (std::uint64_t i = 0; i < pcs.size(); ++i)
            ASSERT_FALSE(cache->access(read(block(0, i), pcs[i])).hit);
        for (std::uint32_t w = 0; w < 8; ++w)
            ASSERT_EQ(nu->inDeliWays(0, w), w < 5) << "way " << w;
    }

    void
    TearDown() override
    {
        EXPECT_GT(checker->checksRun(), 0u);
        EXPECT_TRUE(nu->checkSetInvariants(cache->viewSet(0)));
        checker.reset();
    }

    std::unique_ptr<Cache> cache;
    NUcachePolicy *nu = nullptr;
    std::unique_ptr<CacheChecker> checker;
    std::uint64_t nextSet1Block = 0;
};

TEST_F(NUcacheStaleBits, InvalidatedDeliWayRefillsAsMain)
{
    build(1);
    delinquentThenSelect(PC_A, 40);
    fillSet0({PC_A, PC_A, PC_A, PC_A, PC_A, PC_A, PC_A, PC_A});

    // Way 2 leaves through the cache, not the policy: its Deli and
    // selected bits stay behind for the refill to overwrite.
    ASSERT_TRUE(cache->invalidate(block(0, 2)));
    EXPECT_FALSE(cache->access(read(block(0, 8), PC_C)).hit);
    EXPECT_TRUE(cache->probe(block(0, 8)));
    EXPECT_FALSE(nu->inDeliWays(0, 2));
    // Refilling made the set full again with a fourth Main line, so the
    // Main-LRU (way 5) went to the DeliWays.
    EXPECT_TRUE(nu->inDeliWays(0, 5));
}

TEST_F(NUcacheStaleBits, DroppedPcIsReclaimedFirstInAnUntouchedSet)
{
    build(1);
    delinquentThenSelect(PC_A, 40);
    // Deli FIFO: B, B, A, A, A (oldest first); Main: C, C, C.
    fillSet0({PC_B, PC_B, PC_A, PC_A, PC_A, PC_C, PC_C, PC_C});

    // B overtakes A: the epoch drops A and admits B while set 0 sits
    // untouched with bits cached under the old selection.
    delinquentThenSelect(PC_B, 100);
    ASSERT_EQ(nu->selectedPcs().size(), 1u);
    ASSERT_TRUE(std::ranges::binary_search(nu->selectedPcs(), PC_B));

    // A's FIFO-oldest line goes, not B's older lines nor the Main-LRU.
    cache->access(read(block(0, 8), PC_C));
    EXPECT_FALSE(cache->probe(block(0, 2)));
    for (const std::uint64_t kept : {0, 1, 3, 4, 5, 6, 7})
        EXPECT_TRUE(cache->probe(block(0, kept))) << "block " << kept;
}

TEST_F(NUcacheStaleBits, AddedPcMainLruSacrificesOldestDeli)
{
    build(2);
    delinquentThenSelect(PC_A, 40);
    ASSERT_EQ(nu->selectedPcs().size(), 1u);
    // Deli FIFO: A x5; Main: B (LRU), C, C.
    fillSet0({PC_A, PC_A, PC_A, PC_A, PC_A, PC_B, PC_C, PC_C});

    delinquentThenSelect(PC_B, 100);
    ASSERT_EQ(nu->selectedPcs().size(), 2u);
    ASSERT_TRUE(std::ranges::binary_search(nu->selectedPcs(), PC_B));

    // The Main-LRU's PC is now selected: it is retained (demoted) and
    // the oldest DeliWays line is sacrificed instead.
    cache->access(read(block(0, 8), PC_C));
    EXPECT_FALSE(cache->probe(block(0, 0)));
    EXPECT_TRUE(cache->probe(block(0, 5)));
    EXPECT_TRUE(nu->inDeliWays(0, 5));
}

/** NUcache's own PC column records the PC of every fill. */
TEST(NUcache, PcColumnRecordsAllocatingPc)
{
    CacheConfig cfg{"n", 2ull * 8 * 64, 8, 64};
    auto policy = std::make_unique<NUcachePolicy>(testConfig(5));
    NUcachePolicy *nu = policy.get();
    Cache c(cfg, std::move(policy), 2);
    c.access(read(0x0, 0xabcd, 1));
    c.access(read(0x80, 0x1234, 0));
    const SetView view = c.viewSet(0);
    std::uint32_t seen = 0;
    for (std::uint32_t w = 0; w < view.ways(); ++w) {
        if (!view.line(w).valid)
            continue;
        EXPECT_EQ(nu->allocatingPc(0, w),
                  view.line(w).tag == c.tagOf(0x0) ? 0xabcdu : 0x1234u);
        ++seen;
    }
    EXPECT_EQ(seen, 2u);
}

TEST(NUcache, NamesFollowMode)
{
    EXPECT_EQ(NUcachePolicy(testConfig(4)).name(), "nucache");
    EXPECT_EQ(NUcachePolicy(
                  testConfig(4, NUcacheConfig::Selection::TopK)).name(),
              "nucache-topk");
    EXPECT_EQ(NUcachePolicy(
                  testConfig(4, NUcacheConfig::Selection::All)).name(),
              "nucache-all");
    EXPECT_EQ(NUcachePolicy(
                  testConfig(4, NUcacheConfig::Selection::None)).name(),
              "nucache-none");
}

/**
 * Run loop-plus-stream traffic from two cores through a NUcache built
 * from @p spec and @return its outcome: hits, DeliWays hits and the
 * selected PCs.
 */
std::string
twoCoreOutcome(const std::string &spec)
{
    CacheConfig cfg{"n", 64ull * 16 * 64, 16, 64};
    auto policy = makePolicy(spec);
    const auto *nu = dynamic_cast<const NUcachePolicy *>(policy.get());
    Cache c(cfg, std::move(policy), 2);
    Addr stream = 1 << 24;
    for (int iter = 0; iter < 40; ++iter) {
        for (Addr b = 0; b < 1500; ++b)
            c.access(read(b * 64, 0x400000 + (mix64(b) % 8) * 4, 0));
        for (int s = 0; s < 500; ++s) {
            c.access(read(stream, 0x500000, 1));
            stream += 64;
        }
    }
    std::string out = std::to_string(c.totalStats().hits) + "/" +
                      std::to_string(nu->deliHits()) + "/";
    for (const PC pc : nu->selectedPcs())
        out += std::to_string(pc) + ",";
    return out;
}

TEST(NUcache, PerCoreScalingSaturatesInsteadOfWrapping)
{
    // The candidate pool and the admission cap are per core and scale
    // by the core count; on two cores 2^31 must saturate like 2^32-1
    // rather than wrap to 0 (which empties the pool or the cap).
    for (const char *key : {"pool", "maxsel"}) {
        const std::string base =
            std::string("nucache:epoch=2000,shift=0,") + key + "=";
        const std::string half = twoCoreOutcome(base + "2147483648");
        EXPECT_EQ(half, twoCoreOutcome(base + "4294967295")) << key;
        EXPECT_NE(half, twoCoreOutcome(base + "0")) << key;
    }
}

TEST(NUcacheDeathTest, RejectsAllWaysAsDeliWays)
{
    CacheConfig cfg{"n", 4ull * 8 * 64, 8, 64};
    EXPECT_EXIT(Cache(cfg,
                      std::make_unique<NUcachePolicy>(testConfig(8))),
                ::testing::ExitedWithCode(1), "no MainWays");
}

} // anonymous namespace
} // namespace nucache
