/**
 * @file
 * Cross-module integration and property tests: every policy driven
 * end-to-end through the full system on real catalog workloads.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/nucache.hh"
#include "sim/run_engine.hh"
#include "sim/policies.hh"
#include "trace/arena.hh"
#include "trace/workloads.hh"
#include "test_digest.hh"

namespace nucache
{
namespace
{

/** Every policy must run a small mixed system without violating
 *  basic accounting invariants. */
class PolicyIntegration : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PolicyIntegration, AccountingInvariantsEndToEnd)
{
    const std::string policy = GetParam();
    HierarchyConfig hier = defaultHierarchy(2);
    // Shrink for test speed: 128 KiB, 16-way.
    hier.llc = CacheConfig{"llc", 128 << 10, 16, 64};

    std::vector<TraceSourcePtr> traces;
    traces.push_back(makeWorkload("small_ws", 20000));
    traces.push_back(makeWorkload("stream_pure", 20000));
    System sys(hier, makePolicy(policy), std::move(traces), 20000);
    const SystemResult res = sys.run();

    const auto &llc = sys.hierarchy().llc();
    const auto total = llc.totalStats();
    EXPECT_EQ(total.hits + total.misses, total.accesses) << policy;
    for (const auto &core : res.cores) {
        EXPECT_GT(core.ipc, 0.0) << policy;
        EXPECT_EQ(core.l1.hits + core.l1.misses, core.l1.accesses);
        EXPECT_EQ(core.llc.hits + core.llc.misses, core.llc.accesses);
        // The LLC only sees L1 misses.
        EXPECT_EQ(core.llc.accesses, core.l1.misses) << policy;
    }
    // DRAM reads = LLC misses (demand fills).
    EXPECT_EQ(res.dramReads, total.misses) << policy;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyIntegration,
    ::testing::Values("lru", "random", "nru", "srrip", "brrip", "drrip",
                      "dip", "tadip", "ucp", "pipp", "nucache",
                      "nucache-topk", "nucache-all", "nucache-none"));

TEST(Integration, NUcacheBeatsLruOnEchoWorkload)
{
    // The paper's core claim at unit-test scale: on a delayed-reuse
    // workload under pollution, NUcache converts next-uses into hits
    // that LRU cannot.
    // 512 KiB: echo_near's next-use distance sits beyond LRU's reach
    // but within a selectable DeliWays retention window.
    RunEngine h(400'000);
    HierarchyConfig hier = defaultHierarchy(1);
    hier.llc = CacheConfig{"llc", 512 << 10, 16, 64};

    const auto lru = h.runSingle("echo_near", "lru", hier);
    const auto nuc =
        h.runSingle("echo_near", "nucache:epoch=20000", hier);
    EXPECT_LT(nuc.cores[0].llc.missRate(),
              lru.cores[0].llc.missRate() - 0.05);
    EXPECT_GT(nuc.cores[0].ipc, lru.cores[0].ipc * 1.05);
}

TEST(Integration, CostBenefitBeatsSelectAllOnEchoBands)
{
    // Selecting everything floods the FIFO; the cost-benefit selection
    // must do better (the paper's "intelligent" claim).
    RunEngine h(400'000);
    HierarchyConfig hier = defaultHierarchy(1);
    hier.llc = CacheConfig{"llc", 256 << 10, 16, 64};

    const auto all =
        h.runSingle("echo_bands", "nucache-all:epoch=20000", hier);
    const auto cb =
        h.runSingle("echo_bands", "nucache:epoch=20000", hier);
    EXPECT_GT(cb.cores[0].ipc, all.cores[0].ipc);
}

TEST(Integration, NucacheNoneTracksLru)
{
    // With selection disabled NUcache must stay close to LRU (the
    // degeneration property) on an LRU-friendly workload.
    RunEngine h(200'000);
    HierarchyConfig hier = defaultHierarchy(1);
    hier.llc = CacheConfig{"llc", 256 << 10, 16, 64};

    const auto lru = h.runSingle("zipf_hot", "lru", hier);
    const auto none = h.runSingle("zipf_hot", "nucache-none", hier);
    EXPECT_NEAR(none.cores[0].llc.missRate(),
                lru.cores[0].llc.missRate(), 0.06);
}

TEST(Integration, SharedCacheContentionIsVisible)
{
    // A program must run slower with a co-runner than alone; the
    // harness' weighted speedup must reflect it.
    RunEngine h(120'000);
    const auto hier = defaultHierarchy(2);
    WorkloadMix mix{"contended", {"loop_medium", "stream_pure"}};
    const auto res = h.runMix(mix, "lru", hier);
    EXPECT_LT(res.weightedSpeedup, 2.0);
    EXPECT_GT(res.weightedSpeedup, 0.5);
}

TEST(Integration, DeterministicMixResults)
{
    RunEngine h(60'000);
    const auto hier = defaultHierarchy(2);
    WorkloadMix mix{"d", {"zipf_hot", "mix_rw"}};
    const auto a = h.runMix(mix, "nucache", hier);
    const auto b = h.runMix(mix, "nucache", hier);
    EXPECT_DOUBLE_EQ(a.weightedSpeedup, b.weightedSpeedup);
    for (std::size_t i = 0; i < a.system.cores.size(); ++i)
        EXPECT_DOUBLE_EQ(a.system.cores[i].ipc, b.system.cores[i].ipc);
}

/** One full-stats run of the serial engine. */
struct SerialRun
{
    std::string digest;
    SystemResult result;
};

/**
 * Run one 4-core serial system and digest its full stats tree.
 * @p shape names the hierarchy variant: "default", "private-l2",
 * "prefetch", "inclusive", or "defended" (rand-dynamic index
 * scrambling under an attack-heavy mix).  With @p arena the cores
 * replay arena cursors with the checker off, so their private levels
 * come from the shared private-level log wherever the hierarchy
 * allows it; otherwise they replay fresh generators through the live
 * private caches.
 */
SerialRun
serialRun(const std::string &policy, const std::string &shape,
          bool arena = false)
{
    HierarchyConfig hier = defaultHierarchy(4);
    hier.llc = CacheConfig{"llc", 256 << 10, 16, 64};
    std::vector<std::string> names = {"small_ws", "stream_pure", "zipf_hot",
                                      "echo_near"};
    if (shape == "private-l2") {
        hier.enableL2 = true;
        hier.l2 = CacheConfig{"l2", 32 << 10, 8, 64};
    } else if (shape == "prefetch") {
        hier.prefetch.enabled = true;
    } else if (shape == "inclusive") {
        hier.inclusive = true;
    } else if (shape == "defended") {
        hier.llc.defense = "rand-dynamic:key=123,period=5000";
        names = {"attack:evset", "zipf_hot", "attack:storm:sets=256,ways=16",
                 "stream_pure"};
    }
    std::vector<TraceSourcePtr> traces;
    for (const std::string &name : names) {
        traces.push_back(arena ? TraceArena::instance().open(name, 12000)
                               : makeWorkload(name, 12000));
    }
    System sys(hier, makePolicy(policy), std::move(traces), 12000,
               !arena && check::enabled());
    SerialRun run;
    run.result = sys.run();
    std::ostringstream os;
    sys.statsJson().dump(os);
    run.digest = fnv1aHex(os.str());
    return run;
}

/**
 * Pinned statistics of the serial engine: every evaluation policy
 * across the hierarchy variants.  A change to the access path or the
 * tag store that moves any counter of any cache changes a digest.
 * The defended rows coincide: re-keying every 5000 accesses flushes
 * the 4096-line LLC too often for any victim choice to show.  The
 * nucache-all and nucache-none rows carry their shape's lru digest on
 * purpose: admitting everything or nothing makes NUcache bit-identical
 * to LRU under any parameters (NUcacheLruIdentity), so these rows pin
 * that identity end to end.
 */
struct GoldenRow
{
    const char *shape;
    const char *policy;
    const char *digest;
};
const GoldenRow kGoldenRows[] = {
    {"default", "lru", "e3c43f6085bbab1d"},
    {"default", "dip", "ccdab174bd37f02f"},
    {"default", "tadip", "e46ddc06e1865d13"},
    {"default", "ucp", "af440037e09d8fce"},
    {"default", "pipp", "46be3f766f88545e"},
    {"default", "nucache", "e3c43f6085bbab1d"},
    {"default", "nucache:epoch=2000", "cfb2ce7951c993d1"},
    {"default", "nucache-adaptive:epoch=2000", "eb3c6620e78515e1"},
    {"default", "nucache-topk:epoch=2000", "a0f399e361ed7fad"},
    {"default", "nucache:epoch=500,d=4,shift=0", "349ecee9af97bed7"},
    {"default", "nucache-all:epoch=500,d=4,shift=0", "e3c43f6085bbab1d"},
    {"default", "nucache-none:epoch=500,d=4,shift=0", "e3c43f6085bbab1d"},
    {"private-l2", "lru", "9c1af96279fc4536"},
    {"private-l2", "dip", "e15dfd1bb7c744c8"},
    {"private-l2", "tadip", "161d68f34beb7196"},
    {"private-l2", "ucp", "a2de3bda8aa48e55"},
    {"private-l2", "pipp", "d8599c0f02da0ec3"},
    {"private-l2", "nucache", "9c1af96279fc4536"},
    {"private-l2", "nucache:epoch=2000", "647913fbe95b1545"},
    {"private-l2", "nucache-adaptive:epoch=2000", "878b7bf7a5ab3bf0"},
    {"private-l2", "nucache-topk:epoch=2000", "3cba7ca5e2db8f40"},
    {"private-l2", "nucache:epoch=500,d=4,shift=0", "25ab7ff6ea62424f"},
    {"private-l2", "nucache-all:epoch=500,d=4,shift=0",
     "9c1af96279fc4536"},
    {"private-l2", "nucache-none:epoch=500,d=4,shift=0",
     "9c1af96279fc4536"},
    {"prefetch", "lru", "a520e9a77b62ee88"},
    {"prefetch", "dip", "88c626960adf98f7"},
    {"prefetch", "tadip", "d9cc7db1d3ce3e43"},
    {"prefetch", "ucp", "eb6ebb54f78b41e0"},
    {"prefetch", "pipp", "5b21d7406d34d0c3"},
    {"prefetch", "nucache", "a520e9a77b62ee88"},
    {"prefetch", "nucache:epoch=2000", "7dd131b88f171b6f"},
    {"prefetch", "nucache-adaptive:epoch=2000", "b49c8b16a93fe671"},
    {"prefetch", "nucache-topk:epoch=2000", "ff976a70f1ea4d2a"},
    {"prefetch", "nucache:epoch=500,d=4,shift=0", "5b5eb96401f88000"},
    {"prefetch", "nucache-all:epoch=500,d=4,shift=0", "a520e9a77b62ee88"},
    {"prefetch", "nucache-none:epoch=500,d=4,shift=0", "a520e9a77b62ee88"},
    {"inclusive", "lru", "619ac7d5c619f2e4"},
    {"inclusive", "dip", "2261a97488a6fb30"},
    {"inclusive", "tadip", "6fb68a4944ebffb8"},
    {"inclusive", "ucp", "ac6e8c414c8a6d33"},
    {"inclusive", "pipp", "5bcded86cc1dfe8b"},
    {"inclusive", "nucache", "619ac7d5c619f2e4"},
    {"inclusive", "nucache:epoch=2000", "091c5f7ba5631a3b"},
    {"inclusive", "nucache-adaptive:epoch=2000", "831521a5845ba4c1"},
    {"inclusive", "nucache-topk:epoch=2000", "947a13dc9df3fbdb"},
    {"inclusive", "nucache:epoch=500,d=4,shift=0", "e7f038c549abac2b"},
    {"inclusive", "nucache-all:epoch=500,d=4,shift=0", "619ac7d5c619f2e4"},
    {"inclusive", "nucache-none:epoch=500,d=4,shift=0",
     "619ac7d5c619f2e4"},
    {"defended", "lru", "784ea6a0d75926f6"},
    {"defended", "dip", "784ea6a0d75926f6"},
    {"defended", "tadip", "784ea6a0d75926f6"},
    {"defended", "ucp", "784ea6a0d75926f6"},
    {"defended", "pipp", "784ea6a0d75926f6"},
    {"defended", "nucache", "784ea6a0d75926f6"},
    {"defended", "nucache:epoch=2000", "784ea6a0d75926f6"},
    {"defended", "nucache-adaptive:epoch=2000", "784ea6a0d75926f6"},
    {"defended", "nucache-topk:epoch=2000", "784ea6a0d75926f6"},
    {"defended", "nucache:epoch=500,d=4,shift=0", "784ea6a0d75926f6"},
    {"defended", "nucache-all:epoch=500,d=4,shift=0", "784ea6a0d75926f6"},
    {"defended", "nucache-none:epoch=500,d=4,shift=0", "784ea6a0d75926f6"},
};

const char *const kGoldenShapes[] = {"default", "private-l2", "prefetch",
                                     "inclusive", "defended"};

/**
 * @return the policies pinned per shape: the evaluation set plus
 * NUcache variants whose short epochs let PC selection, the adaptive
 * split and the DeliWays run inside these 12k-record windows.
 */
std::vector<std::string>
goldenPolicies()
{
    std::vector<std::string> policies = evaluationPolicySet();
    policies.insert(policies.end(),
                    {"nucache:epoch=2000", "nucache-adaptive:epoch=2000",
                     "nucache-topk:epoch=2000",
                     "nucache:epoch=500,d=4,shift=0",
                     "nucache-all:epoch=500,d=4,shift=0",
                     "nucache-none:epoch=500,d=4,shift=0"});
    return policies;
}

/** @return the pinned digest of (@p shape, @p policy); empty if none. */
std::string
goldenDigest(const std::string &shape, const std::string &policy)
{
    for (const GoldenRow &row : kGoldenRows) {
        if (row.shape == shape && row.policy == policy)
            return row.digest;
    }
    return {};
}

TEST(SerialGolden, StatsDigestsArePinned)
{
    std::size_t checked = 0;
    for (const std::string shape : kGoldenShapes) {
        for (const std::string &policy : goldenPolicies()) {
            EXPECT_EQ(serialRun(policy, shape).digest,
                      goldenDigest(shape, policy))
                << "{\"" << shape << "\", \"" << policy << "\"}";
            ++checked;
        }
    }
    EXPECT_EQ(checked, std::size(kGoldenRows));
}

/**
 * The same rows replayed from arena cursors reproduce every pinned
 * digest.  Every shape but the inclusive one replays its private
 * levels from the shared log; inclusion keeps the live caches.  Both
 * paths report the same CoreResult.l1.
 */
TEST(SerialGolden, ArenaCursorsReproduceDigests)
{
    TraceArena &arena = TraceArena::instance();
    std::size_t checked = 0;
    for (const std::string shape : kGoldenShapes) {
        // Cold logs per shape: shapes with equal private geometry would
        // otherwise share them.
        arena.clear();
        const std::uint64_t before = arena.privateRecordsGenerated();
        for (const std::string &policy : goldenPolicies()) {
            const SerialRun logged = serialRun(policy, shape, true);
            EXPECT_EQ(logged.digest, goldenDigest(shape, policy))
                << "{\"" << shape << "\", \"" << policy << "\"}";
            ++checked;
            if (policy != "lru")
                continue;
            const SerialRun live = serialRun(policy, shape);
            for (std::size_t c = 0; c < live.result.cores.size(); ++c) {
                const CacheCoreStats &a = live.result.cores[c].l1;
                const CacheCoreStats &b = logged.result.cores[c].l1;
                EXPECT_EQ(a.accesses, b.accesses) << shape << " core " << c;
                EXPECT_EQ(a.hits, b.hits) << shape << " core " << c;
                EXPECT_EQ(a.misses, b.misses) << shape << " core " << c;
                EXPECT_EQ(a.evictions, b.evictions) << shape << " core " << c;
                EXPECT_EQ(a.prefetches, b.prefetches) << shape;
                EXPECT_EQ(a.prefetchFills, b.prefetchFills) << shape;
            }
        }
        const std::uint64_t logged = arena.privateRecordsGenerated() - before;
        if (shape == "inclusive")
            EXPECT_EQ(logged, 0u) << shape;
        else
            EXPECT_GT(logged, 0u) << shape;
    }
    EXPECT_EQ(checked, std::size(kGoldenRows));
}

} // anonymous namespace
} // namespace nucache
