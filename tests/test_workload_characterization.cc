/**
 * @file
 * Characterization regression: pins the coarse cache behaviour of the
 * workload catalog on the single-core baseline, so a change to the
 * generators that would silently shift the whole evaluation (e.g.\ a
 * working set drifting across the capacity boundary) fails loudly
 * here first.  Bands are deliberately wide; these are class checks,
 * not golden numbers.
 */

#include <gtest/gtest.h>

#include "core/nucache.hh"
#include "mem/hierarchy.hh"
#include "mem/lru.hh"
#include "sim/cpu.hh"
#include "sim/experiment.hh"
#include "trace/workloads.hh"

namespace nucache
{
namespace
{

/** Run @p workload alone under LRU; @return LLC demand miss rate. */
double
llcMissRate(const std::string &workload, std::uint64_t records)
{
    MemoryHierarchy mh(defaultHierarchy(1),
                       std::make_unique<LruPolicy>());
    TraceCpu cpu(0, makeWorkload(workload), &mh, records);
    while (!cpu.done())
        cpu.step();
    return mh.llc().coreStats(0).missRate();
}

struct Band
{
    const char *workload;
    double lo;
    double hi;
};

/**
 * Print a band by its workload name.  Without this, gtest prints the
 * raw bytes of the struct, which include the string pointer, so the
 * listed test names would change with every build and every ASLR slide.
 */
void
PrintTo(const Band &band, std::ostream *os)
{
    *os << band.workload;
}

class WorkloadClass : public ::testing::TestWithParam<Band>
{
};

TEST_P(WorkloadClass, LlcMissRateStaysInBand)
{
    const Band band = GetParam();
    const double rate = llcMissRate(band.workload, 200'000);
    EXPECT_GE(rate, band.lo) << band.workload;
    EXPECT_LE(rate, band.hi) << band.workload;
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, WorkloadClass,
    ::testing::Values(
        // Cache-averse: essentially everything misses.
        Band{"stream_pure", 0.95, 1.0},
        Band{"tiny_hot", 0.9, 1.0},  // tiny WS lives in the L1
        // Thrash class: miss rates near 1 under LRU at 1 MiB.
        Band{"loop_heavy", 0.85, 1.0},
        Band{"loop_xl", 0.85, 1.0},
        Band{"echo_far", 0.85, 1.0},
        // Fits-alone class: meaningful hit rates at 1 MiB.
        Band{"loop_medium", 0.05, 0.5},
        Band{"chase_small", 0.05, 0.5},
        Band{"zipf_hot", 0.0, 0.25},
        Band{"small_ws", 0.0, 0.05},
        // Partial classes.
        Band{"echo_near", 0.4, 0.9},
        Band{"zipf_cold", 0.1, 0.5},
        Band{"scan_loop", 0.35, 0.8},
        Band{"stream_reuse", 0.5, 0.9},
        Band{"mix_rw", 0.25, 0.6}),
    [](const auto &info) { return std::string(info.param.workload); });

TEST(WorkloadClass, TinyHotLivesInL1)
{
    // tiny_hot's point is that the L1 absorbs it: its LLC traffic is
    // negligible even though its LLC miss rate is ~1 (cold only).
    MemoryHierarchy mh(defaultHierarchy(1),
                       std::make_unique<LruPolicy>());
    TraceCpu cpu(0, makeWorkload("tiny_hot"), &mh, 100'000);
    while (!cpu.done())
        cpu.step();
    const auto l1 = mh.l1(0).coreStats(0);
    EXPECT_LT(l1.missRate(), 0.02);
}

TEST(WorkloadClass, EchoWorkloadsHaveHeadroomForNUcache)
{
    // The anchor property of the evaluation: on the echo workloads
    // NUcache must find hits LRU cannot (tested end-to-end in
    // test_integration; here just pin that the headroom exists:
    // MIN-vs-LRU is checked by bench_ext_opt_headroom, and the
    // next-use monitor must see matchable distances).
    NUcacheConfig cfg;
    cfg.selection = NUcacheConfig::Selection::None;
    auto policy = std::make_unique<NUcachePolicy>(cfg);
    const NUcachePolicy *nu = policy.get();
    MemoryHierarchy mh(defaultHierarchy(1), std::move(policy));
    TraceCpu cpu(0, makeWorkload("echo_near"), &mh, 300'000);
    while (!cpu.done())
        cpu.step();
    EXPECT_GT(nu->monitor().matchedSamples(), 200u);
}

} // anonymous namespace
} // namespace nucache
