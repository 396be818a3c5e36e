/**
 * @file
 * Tests for the shared private-level log: the outcome of every
 * replayed record, and the L1 statistics at any point, must equal
 * what a core's live private caches produce — across wraps of the
 * trace, with and without a private L2 — whether one thread or many
 * extend the log, and a short run must simulate only a sliver of it.
 * Every System here is built with check_invariants=false, since the
 * invariant checker sends a run down the live path.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "sim/experiment.hh"
#include "sim/policies.hh"
#include "sim/run_engine.hh"
#include "trace/arena.hh"
#include "trace/workloads.hh"

namespace nucache
{
namespace
{

/** The replaying core used by these tests and its address offset. */
constexpr CoreId kCore = 3;
constexpr Addr kOffset = static_cast<Addr>(kCore) << 38;

/** A hierarchy whose small private L2 hits and spills often. */
HierarchyConfig
withL2()
{
    HierarchyConfig cfg = defaultHierarchy(4);
    cfg.enableL2 = true;
    cfg.l2 = CacheConfig{"l2", 128 << 10, 8, 64};
    return cfg;
}

/** Assert two outcomes match field for field. */
void
expectSameOutcome(const PrivateOutcome &a, const PrivateOutcome &b,
                  const std::string &label)
{
    ASSERT_EQ(a.level, b.level) << label;
    ASSERT_EQ(a.l1Spill, b.l1Spill) << label;
    ASSERT_EQ(a.l1SpillAddr, b.l1SpillAddr) << label;
    ASSERT_EQ(a.l2Spill, b.l2Spill) << label;
    ASSERT_EQ(a.l2SpillAddr, b.l2SpillAddr) << label;
}

/** Assert two L1 statistics blocks match field for field. */
void
expectSameStats(const CacheCoreStats &a, const CacheCoreStats &b,
                const std::string &label)
{
    EXPECT_EQ(a.accesses, b.accesses) << label;
    EXPECT_EQ(a.hits, b.hits) << label;
    EXPECT_EQ(a.misses, b.misses) << label;
    EXPECT_EQ(a.evictions, b.evictions) << label;
    EXPECT_EQ(a.prefetches, b.prefetches) << label;
    EXPECT_EQ(a.prefetchFills, b.prefetchFills) << label;
}

/**
 * Core kCore's live private levels, fed its trace cyclically the way
 * TraceCpu feeds them (core offset and PC tag applied).
 */
class LiveCore
{
  public:
    LiveCore(const std::string &name, std::uint64_t length,
             const HierarchyConfig &cfg)
        : gen(makeWorkload(name, length)), levels(cfg, kCore, cfg.numCores)
    {
    }

    PrivateOutcome
    next()
    {
        TraceRecord rec;
        if (!gen->next(rec)) {
            gen->reset();
            ++wraps;
            gen->next(rec);
        }
        AccessInfo info;
        info.addr = rec.addr + kOffset;
        info.pc = rec.pc | (static_cast<PC>(kCore) << 48);
        info.coreId = kCore;
        info.isWrite = rec.isWrite;
        return levels.access(info);
    }

    CacheCoreStats l1Stats() const { return levels.l1().coreStats(kCore); }

    std::uint64_t wraps = 0;

  private:
    TraceSourcePtr gen;
    PrivateLevels levels;
};

/**
 * Replaying 2.5 passes of a short trace: every outcome
 * after each wrap equals the live caches', spills included, and the
 * L1 statistics agree at every chunk boundary and off it.
 */
TEST(PrivateLog, MatchesLiveLevelsAcrossWraps)
{
    constexpr std::uint64_t kLen = PrivateLog::chunkRecords + 1234;
    for (const HierarchyConfig &cfg : {defaultHierarchy(4), withL2()}) {
        const std::string label = cfg.enableL2 ? "l1+l2" : "l1";
        const TraceArena::Buffer buf =
            TraceArena::instance().get("chase_big", kLen);
        PrivateLogCursor cursor(buf->privateLog(cfg));
        LiveCore live("chase_big", kLen, cfg);
        expectSameStats(cursor.l1Stats(), live.l1Stats(), label + " @0");

        std::uint64_t spills[2] = {0, 0};
        std::uint64_t l2_hits = 0;
        const std::uint64_t total = 5 * kLen / 2;
        for (std::uint64_t i = 0; i < total; ++i) {
            const PrivateOutcome got = cursor.next(kOffset);
            const PrivateOutcome want = live.next();
            ASSERT_NO_FATAL_FAILURE(expectSameOutcome(
                got, want, label + " @" + std::to_string(i)));
            spills[0] += got.l1Spill;
            spills[1] += got.l2Spill;
            l2_hits += got.level == PrivateOutcome::Level::L2;
            if ((i + 1) % 1000 == 0 ||
                (i + 1) % PrivateLog::chunkRecords == 0) {
                expectSameStats(cursor.l1Stats(), live.l1Stats(),
                                label + " stats @" + std::to_string(i + 1));
            }
        }
        expectSameStats(cursor.l1Stats(), live.l1Stats(), label + " end");
        EXPECT_EQ(live.wraps, 2u) << label;
        // The comparison is only as strong as the events it saw.  The
        // L2 absorbs most dirty L1 victims, so few L1 spills pass it.
        EXPECT_GT(spills[0], cfg.enableL2 ? 5u : 100u) << label;
        if (cfg.enableL2) {
            EXPECT_GT(spills[1], 100u) << label;
            EXPECT_GT(l2_hits, 100u) << label;
        }
        EXPECT_GT(live.l1Stats().evictions, 0u) << label;
    }
}

/**
 * Eight threads extend one cold log to staggered depths; each sees,
 * record for record, the outcomes of a log built by one thread from
 * a separate buffer, and the shared log simulates each chunk once.
 */
TEST(PrivateLog, ConcurrentExtensionMatchesSerialBuild)
{
    TraceArena &arena = TraceArena::instance();
    arena.clear();
    constexpr std::uint64_t kLen = 3 * PrivateLog::chunkRecords + 5;
    constexpr std::size_t kThreads = 8;
    const HierarchyConfig cfg = withL2();

    std::atomic<std::uint64_t> serial_records{0}, serial_private{0};
    TraceBuffer serial_buf("mix_rw", kLen, kLen, serial_records,
                           serial_private);
    PrivateLogCursor serial(serial_buf.privateLog(cfg));
    const auto depth_of = [](std::size_t t) {
        return (t + 1) * 2 * kLen / kThreads + 17 * t;
    };
    std::vector<PrivateOutcome> want(depth_of(kThreads - 1));
    for (PrivateOutcome &o : want)
        o = serial.next(kOffset);

    const std::uint64_t before = arena.privateRecordsGenerated();
    const TraceArena::Buffer buf = arena.get("mix_rw", kLen);
    std::vector<std::uint64_t> mismatches(kThreads, 0);
    ThreadPool pool(kThreads);
    pool.parallelFor(kThreads, [&](std::size_t t) {
        PrivateLogCursor cursor(buf->privateLog(cfg));
        for (std::uint64_t i = 0; i < depth_of(t); ++i) {
            const PrivateOutcome got = cursor.next(kOffset);
            const PrivateOutcome &w = want[i];
            if (got.level != w.level || got.l1Spill != w.l1Spill ||
                got.l1SpillAddr != w.l1SpillAddr ||
                got.l2Spill != w.l2Spill || got.l2SpillAddr != w.l2SpillAddr)
                ++mismatches[t];
        }
    });

    for (std::size_t t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
    const std::uint64_t chunks =
        (want.size() + PrivateLog::chunkRecords - 1) /
        PrivateLog::chunkRecords;
    EXPECT_EQ(arena.privateRecordsGenerated() - before,
              chunks * PrivateLog::chunkRecords);
    EXPECT_EQ(buf->privateLog(cfg).size(), chunks * PrivateLog::chunkRecords);
}

/**
 * A short-window mix, baselines included, simulates the private
 * levels of only a sliver of its workloads' full passes, a run-alone
 * baseline and a short read simulate little beyond what they replay,
 * and a run that needs the live private caches simulates no log.
 */
TEST(PrivateLog, ShortRunMixSimulatesFewRecords)
{
    TraceArena &arena = TraceArena::instance();
    arena.clear();
    const WorkloadMix mix{"hot+ws", {"tiny_hot", "small_ws"}};
    const std::uint64_t full =
        workloadSpec("tiny_hot").length + workloadSpec("small_ws").length;

    std::uint64_t before = arena.privateRecordsGenerated();
    RunEngine engine(50000, 1, false);
    const MixResult r = engine.runMix(mix, "lru", defaultHierarchy(2));
    ASSERT_EQ(r.ipcAlone.size(), 2u);
    const std::uint64_t generated = arena.privateRecordsGenerated() - before;
    EXPECT_GT(generated, 0u);
    EXPECT_LT(generated, full / 8) << "of " << full;

    // A run-alone baseline simulates little beyond what it replays.
    arena.clear();
    before = arena.privateRecordsGenerated();
    engine.aloneIpc("zipf_cold", defaultHierarchy(2));
    EXPECT_GE(arena.privateRecordsGenerated() - before, 50000u);
    EXPECT_LT(arena.privateRecordsGenerated() - before, 50000u * 11 / 10);

    // One core reading 1000 outcomes simulates exactly one chunk.
    before = arena.privateRecordsGenerated();
    const TraceArena::Buffer buf = arena.get("stream_pure");
    PrivateLogCursor cursor(buf->privateLog(defaultHierarchy(1)));
    for (int i = 0; i < 1000; ++i)
        cursor.next(0);
    EXPECT_EQ(arena.privateRecordsGenerated() - before,
              PrivateLog::chunkRecords);

    // Inclusion and the invariant checker both keep the live path.
    HierarchyConfig inclusive = defaultHierarchy(2);
    inclusive.inclusive = true;
    before = arena.privateRecordsGenerated();
    RunEngine(5000, 1, false).runMix(mix, "lru", inclusive);
    RunEngine(5000, 1, true).runMix(mix, "nucache", defaultHierarchy(2));
    EXPECT_EQ(arena.privateRecordsGenerated(), before);
}

/**
 * The log path and the live path report the same run: CoreResult.l1
 * field for field and the whole statistics tree, on a mix where the
 * fast core wraps its short trace many times.
 */
TEST(PrivateLog, SystemRunMatchesLivePath)
{
    constexpr std::uint64_t kLen = 3000;
    const std::vector<std::string> names = {"tiny_hot", "stream_pure"};
    for (const HierarchyConfig &base : {defaultHierarchy(2), withL2()}) {
        HierarchyConfig cfg = base;
        cfg.numCores = 2;
        std::vector<TraceSourcePtr> live_traces, log_traces;
        for (const std::string &name : names) {
            live_traces.push_back(makeWorkload(name, kLen));
            log_traces.push_back(TraceArena::instance().open(name, kLen));
        }
        System live(cfg, makePolicy("nucache:epoch=2000"),
                    std::move(live_traces), 20000, false);
        System logged(cfg, makePolicy("nucache:epoch=2000"),
                      std::move(log_traces), 20000, false);
        const SystemResult a = live.run();
        const SystemResult b = logged.run();
        ASSERT_EQ(a.cores.size(), b.cores.size());
        for (std::size_t c = 0; c < a.cores.size(); ++c) {
            expectSameStats(a.cores[c].l1, b.cores[c].l1,
                            "core " + std::to_string(c));
            EXPECT_EQ(a.cores[c].cycles, b.cores[c].cycles);
        }
        EXPECT_EQ(live.statsJson().str(), logged.statsJson().str());
        EXPECT_GT(live.statsJson()
                      .at("cpu0")
                      .at("trace_wraps")
                      .asUint(),
                  2u);
    }
}

} // anonymous namespace
} // namespace nucache
