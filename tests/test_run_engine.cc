/**
 * @file
 * Tests for the parallel run engine: grid shape, submission-order
 * reassembly, determinism across pool widths, and once-semantics of
 * the run-alone IPC cache under concurrent submission.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "sim/run_engine.hh"

namespace nucache
{
namespace
{

const std::vector<WorkloadMix> &
testMixes()
{
    static const std::vector<WorkloadMix> mixes = {
        {"hot+ws", {"tiny_hot", "small_ws"}},
        {"ws+hot", {"small_ws", "tiny_hot"}},
    };
    return mixes;
}

TEST(RunEngine, GridShapeMatchesRequest)
{
    RunEngine engine(2000, 2);
    const std::vector<std::string> policies = {"lru", "srrip"};
    const GridRun run =
        engine.runGrid(defaultHierarchy(2), testMixes(), policies);

    ASSERT_EQ(run.mixNames.size(), 2u);
    EXPECT_EQ(run.mixNames[0], "hot+ws");
    EXPECT_EQ(run.mixNames[1], "ws+hot");
    EXPECT_EQ(run.policies, policies);
    EXPECT_EQ(run.baseline, "lru");
    ASSERT_EQ(run.cells.size(), 2u);
    ASSERT_EQ(run.baselineRuns.size(), 2u);
    for (std::size_t m = 0; m < run.cells.size(); ++m) {
        ASSERT_EQ(run.cells[m].size(), policies.size());
        for (std::size_t p = 0; p < policies.size(); ++p) {
            EXPECT_EQ(run.cells[m][p].result.mixName, run.mixNames[m]);
            EXPECT_EQ(run.cells[m][p].result.policy, policies[p]);
            EXPECT_GT(run.cells[m][p].normWs, 0.0);
        }
        // The lru column is its own baseline.
        EXPECT_DOUBLE_EQ(run.cells[m][0].normWs, 1.0);
    }
}

TEST(RunEngine, BaselineOutsidePoliciesStillNormalizes)
{
    RunEngine engine(2000, 2);
    const GridRun run =
        engine.runGrid(defaultHierarchy(2), testMixes(), {"srrip"});
    ASSERT_EQ(run.cells[0].size(), 1u);
    ASSERT_EQ(run.baselineRuns.size(), 2u);
    for (std::size_t m = 0; m < run.cells.size(); ++m) {
        EXPECT_EQ(run.baselineRuns[m].policy, "lru");
        EXPECT_DOUBLE_EQ(run.cells[m][0].normWs,
                         run.cells[m][0].result.weightedSpeedup /
                             run.baselineRuns[m].weightedSpeedup);
    }
}

TEST(RunEngine, GridIsDeterministicAcrossPoolWidths)
{
    // The acceptance property behind --jobs: a grid run with four
    // workers must be bit-identical to the serial run.
    const std::vector<std::string> policies = {"lru", "srrip",
                                               "nucache"};
    RunEngine serial(3000, 1);
    RunEngine wide(3000, 4);
    const auto hier = defaultHierarchy(2);
    const GridRun a = serial.runGrid(hier, testMixes(), policies);
    const GridRun b = wide.runGrid(hier, testMixes(), policies);

    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t m = 0; m < a.cells.size(); ++m) {
        ASSERT_EQ(a.cells[m].size(), b.cells[m].size());
        for (std::size_t p = 0; p < a.cells[m].size(); ++p) {
            const GridCell &ca = a.cells[m][p];
            const GridCell &cb = b.cells[m][p];
            EXPECT_DOUBLE_EQ(ca.normWs, cb.normWs);
            EXPECT_DOUBLE_EQ(ca.result.weightedSpeedup,
                             cb.result.weightedSpeedup);
            EXPECT_DOUBLE_EQ(ca.result.hmeanSpeedup,
                             cb.result.hmeanSpeedup);
            EXPECT_DOUBLE_EQ(ca.result.antt, cb.result.antt);
            EXPECT_DOUBLE_EQ(ca.result.fairness, cb.result.fairness);
            ASSERT_EQ(ca.result.system.cores.size(),
                      cb.result.system.cores.size());
            for (std::size_t c = 0; c < ca.result.system.cores.size();
                 ++c) {
                EXPECT_DOUBLE_EQ(ca.result.system.cores[c].ipc,
                                 cb.result.system.cores[c].ipc);
                EXPECT_EQ(ca.result.system.cores[c].llc.misses,
                          cb.result.system.cores[c].llc.misses);
            }
        }
    }
}

TEST(RunEngine, AloneBaselineRunsExactlyOnceUnderContention)
{
    // Many concurrent submissions of the same (workload, hierarchy)
    // baseline must collapse onto one simulation.
    RunEngine engine(2000, 8);
    const auto hier = defaultHierarchy(2);
    std::vector<double> ipc(32, 0.0);
    engine.parallelFor(ipc.size(), [&](std::size_t i) {
        ipc[i] = engine.aloneIpc("tiny_hot", hier);
    });
    EXPECT_EQ(engine.aloneRunCount(), 1u);
    for (const double v : ipc)
        EXPECT_DOUBLE_EQ(v, ipc[0]);
}

TEST(RunEngine, GridDedupesAloneRunsAcrossCells)
{
    // Two mixes over the same two workloads, three policies: the grid
    // needs exactly two alone baselines no matter how the (mix x
    // policy) jobs interleave.
    RunEngine engine(2000, 4);
    engine.runGrid(defaultHierarchy(2), testMixes(),
                   {"lru", "srrip", "nucache"});
    EXPECT_EQ(engine.aloneRunCount(), 2u);
}

TEST(RunEngine, AloneCacheKeysOnHierarchyVariant)
{
    // Prefetching, private L1 geometry and DRAM timing change the
    // run-alone machine, so they must not share a cache entry with
    // the plain hierarchy.  The co-runner count does not: the
    // baseline runs on one core.
    RunEngine engine(2000, 2);
    auto base = defaultHierarchy(2);
    auto with_pf = base;
    with_pf.prefetch.enabled = true;
    auto small_l1 = base;
    small_l1.l1.sizeBytes /= 2;
    auto slow_dram = base;
    slow_dram.dram.latency += 100;
    auto more_cores = base;
    more_cores.numCores = 4;
    for (const HierarchyConfig &hier :
         {base, with_pf, small_l1, slow_dram, more_cores})
        engine.aloneIpc("tiny_hot", hier);
    EXPECT_EQ(engine.aloneRunCount(), 4u);
}

TEST(RunEngine, ParallelForReportsProgress)
{
    RunEngine engine(1000, 3);
    std::vector<std::size_t> dones;
    std::atomic<int> work{0};
    engine.parallelFor(
        7, [&](std::size_t) { work.fetch_add(1); },
        [&dones](std::size_t done, std::size_t total) {
            EXPECT_EQ(total, 7u);
            dones.push_back(done);
        });
    EXPECT_EQ(work.load(), 7);
    // Progress calls are serialized and strictly increasing.
    ASSERT_EQ(dones.size(), 7u);
    for (std::size_t i = 0; i < dones.size(); ++i)
        EXPECT_EQ(dones[i], i + 1);
}

TEST(RunEngineDeathTest, ZeroRecordsIsFatal)
{
    EXPECT_EXIT(RunEngine(0), ::testing::ExitedWithCode(1),
                "zero records");
}

} // anonymous namespace
} // namespace nucache
