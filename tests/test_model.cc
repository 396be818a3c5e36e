/**
 * @file
 * Tests for the estimate tier's input side (workload profiles) and
 * analytical predictor: the store must memoize one pass per
 * (workload, window), and the model must be a pure deterministic
 * function of its inputs that tracks the simulator on the easy cases
 * (run-alone) and stays sane on the hard ones (multiprogrammed).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hh"
#include "model/predictor.hh"
#include "model/profile.hh"
#include "model/tables.hh"
#include "sim/experiment.hh"
#include "sim/mixes.hh"
#include "sim/policies.hh"
#include "sim/run_engine.hh"

namespace nucache::model
{
namespace
{

/** Small window keeps a profiling pass cheap; plenty for structure. */
constexpr std::uint64_t kRecords = 4'000;

TEST(Profile, DocumentCarriesSchemaAndHistograms)
{
    const ProfilePtr p = collectProfile("loop_medium", kRecords);
    const Json doc = p->toJson();
    EXPECT_EQ(doc.at("schema").asString(), kProfileSchema);
    EXPECT_EQ(doc.at("model_version").asString(), kModelVersion);
    EXPECT_EQ(doc.at("llc_accesses").asUint(), p->llcAccesses);
    // Reuse + cold accesses partition the demand stream.
    EXPECT_EQ(p->reuse.total() + p->coldAccesses, p->llcAccesses);
    // The reuse and reuse-time histograms describe the same events.
    EXPECT_EQ(p->reuse.total(), p->reuseTime.total());
    EXPECT_EQ(p->coldArrival.total(), p->coldAccesses);
}

TEST(Profile, StoreMemoizesOnePassPerKey)
{
    ProfileStore &store = ProfileStore::instance();
    store.clear();
    const std::uint64_t before = store.built();

    EXPECT_EQ(store.peek("chase_small", kRecords), nullptr);
    const ProfilePtr a = store.get("chase_small", kRecords);
    const ProfilePtr b = store.get("chase_small", kRecords);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(store.built(), before + 1);
    EXPECT_EQ(store.peek("chase_small", kRecords).get(), a.get());

    // A different window is a different profile.
    const ProfilePtr c = store.get("chase_small", kRecords / 2);
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(store.built(), before + 2);
}

TEST(Predictor, SupportedFamiliesMatchTheModel)
{
    spec::Spec policy;
    std::string err;
    for (const char *text :
         {"lru", "nru", "ucp", "pipp", "nucache", "nucache:d=4",
          "nucache-none", "nucache-all"}) {
        ASSERT_TRUE(parsePolicySpec(text, policy, err)) << err;
        EXPECT_TRUE(estimateSupported(policy, err)) << text << ": " << err;
    }
    for (const char *text : {"ship", "drrip", "hawkeye",
                             "nucache-adaptive"}) {
        ASSERT_TRUE(parsePolicySpec(text, policy, err)) << err;
        err.clear();
        EXPECT_FALSE(estimateSupported(policy, err)) << text;
        EXPECT_FALSE(err.empty());
    }
}

TEST(Predictor, RunAloneEstimateTracksTheSimulator)
{
    const HierarchyConfig hier = defaultHierarchy(1);
    const std::vector<ProfilePtr> profiles = {
        ProfileStore::instance().get("loop_medium", kRecords)};
    RunEngine engine(kRecords, 1);
    for (const char *policy : {"lru", "nucache"}) {
        const MixEstimate est = estimateMix(profiles, hier, policy);
        const MixResult exact =
            engine.runMix({"loop_medium", {"loop_medium"}}, policy,
                          hier);
        const CoreResult &core = exact.system.cores.front();
        // A single core at the profiling geometry is the model's
        // easy case: it is reading its own measurements back.
        EXPECT_NEAR(est.cores[0].hitRate, 1.0 - core.llc.missRate(),
                    0.05)
            << policy;
        EXPECT_NEAR(est.cores[0].ipc, core.ipc,
                    0.15 * std::max(core.ipc, 0.01))
            << policy;
    }
}

TEST(Predictor, EstimateIsDeterministic)
{
    const WorkloadMix &mix = dualCoreMixes().front();
    const HierarchyConfig hier =
        defaultHierarchy(static_cast<unsigned>(mix.workloads.size()));
    std::vector<ProfilePtr> profiles;
    for (const std::string &w : mix.workloads)
        profiles.push_back(ProfileStore::instance().get(w, kRecords));

    const MixEstimate a = estimateMix(profiles, hier, "nucache");
    const MixEstimate b = estimateMix(profiles, hier, "nucache");
    ASSERT_EQ(a.cores.size(), b.cores.size());
    EXPECT_EQ(a.weightedSpeedup, b.weightedSpeedup);
    EXPECT_EQ(a.llcHitRate, b.llcHitRate);
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        EXPECT_EQ(a.cores[i].ipc, b.cores[i].ipc);
        EXPECT_EQ(a.cores[i].hitRate, b.cores[i].hitRate);
        EXPECT_EQ(a.cores[i].deliHitRate, b.cores[i].deliHitRate);
    }
}

TEST(Predictor, EveryFamilyProducesCoherentMixEstimates)
{
    const WorkloadMix &mix = dualCoreMixes().front();
    const HierarchyConfig hier =
        defaultHierarchy(static_cast<unsigned>(mix.workloads.size()));
    std::vector<ProfilePtr> profiles;
    for (const std::string &w : mix.workloads)
        profiles.push_back(ProfileStore::instance().get(w, kRecords));

    for (const char *policy : {"lru", "nru", "ucp", "pipp", "nucache",
                               "nucache-none"}) {
        const MixEstimate est = estimateMix(profiles, hier, policy);
        ASSERT_EQ(est.cores.size(), profiles.size()) << policy;
        EXPECT_GT(est.weightedSpeedup, 0.0) << policy;
        EXPECT_GT(est.iterations, 0u) << policy;
        for (const CoreEstimate &core : est.cores) {
            EXPECT_GE(core.hitRate, 0.0) << policy;
            EXPECT_LE(core.hitRate, 1.0) << policy;
            EXPECT_NEAR(core.hitRate + core.missRate, 1.0, 1e-9)
                << policy;
            EXPECT_GT(core.ipc, 0.0) << policy;
            EXPECT_GT(core.ipcAlone, 0.0) << policy;
            EXPECT_NEAR(core.llcAccesses,
                        core.llcMisses +
                            core.hitRate * core.llcAccesses,
                        1.0)
                << policy;
        }
        // DeliWays hits exist only where DeliWays admit lines.
        if (std::string(policy) == "nucache-none" ||
            std::string(policy) == "lru") {
            for (const CoreEstimate &core : est.cores)
                EXPECT_EQ(core.deliHitRate, 0.0) << policy;
        }
    }
}

// The model tables view the profile's own histograms.
static_assert(!std::is_copy_constructible_v<WorkloadProfile>);
static_assert(!std::is_move_constructible_v<WorkloadProfile>);

/** Workloads with distinct reuse shapes (loop, stream, chase, zipf). */
constexpr const char *kTableWorkloads[] = {"loop_medium", "stream_pure",
                                           "chase_small", "zipf_hot"};

/** @return @p v and its neighbouring doubles on both sides. */
std::vector<double>
aroundKnot(double v)
{
    return {std::nextafter(v, 0.0), v, std::nextafter(v, 1e300)};
}

TEST(ModelTables, DistinctPicksTheUpperBoundKnot)
{
    Rng rng(11);
    for (const char *w : kTableWorkloads) {
        const WindowTable &t =
            ProfileStore::instance().get(w, kRecords)->tables().window;
        const auto &n = t.windows();
        std::vector<double> probes;
        for (int k = 0; k < 20'000; ++k) {
            // Log-uniform over the grid's whole span.
            probes.push_back(
                std::exp(rng.uniform() * std::log(n.back())));
        }
        for (const double knot : n)
            for (const double x : aroundKnot(knot))
                probes.push_back(x);
        for (int e = 0; e < 50; ++e)
            for (const double x : aroundKnot(std::ldexp(1.0, e)))
                probes.push_back(x);
        for (const double x : probes) {
            if (!(x > n.front() && x < n.back()))
                continue;
            const auto want = static_cast<std::size_t>(
                std::upper_bound(n.begin(), n.end(), x) - n.begin());
            ASSERT_EQ(t.upperKnot(x), want) << w << " x=" << x;
        }
    }
}

TEST(ModelTables, CoverPicksTheLowerBoundKnot)
{
    Rng rng(12);
    for (const char *w : kTableWorkloads) {
        const WindowTable &t =
            ProfileStore::instance().get(w, kRecords)->tables().window;
        const auto &db = t.blocks();
        std::vector<double> probes = {0.0, -1.0, 1e300};
        for (int k = 0; k < 20'000; ++k)
            probes.push_back(rng.uniform() * 1.1 * db.back());
        for (const double knot : db)
            for (const double d : aroundKnot(knot))
                probes.push_back(d);
        for (const double d : probes) {
            const auto want = static_cast<std::size_t>(
                std::lower_bound(db.begin(), db.end(), d) - db.begin());
            ASSERT_EQ(t.lowerBound(d), want) << w << " d=" << d;
        }
    }
}

TEST(ModelTables, HitFractionMatchesCountAtOrBelow)
{
    for (const char *w : kTableWorkloads) {
        const ProfilePtr p = ProfileStore::instance().get(w, kRecords);
        const double accesses = static_cast<double>(p->llcAccesses);
        for (double c = 1.0; c < 1e7; c = c * 1.01 + 0.37) {
            const auto limit =
                static_cast<std::uint64_t>(std::ceil(c)) - 1;
            // Bit-identical, not merely close: EXPECT_EQ on doubles.
            ASSERT_EQ(p->hitFraction(c),
                      p->reuse.countAtOrBelow(limit) / accesses)
                << w << " capacity=" << c;
        }
        EXPECT_EQ(p->hitFraction(0.5), 0.0);
    }
}

/**
 * The capacity bisection the warm-started search replaced, kept as a
 * reference: 20 halvings of [0, shared] after one probe of the top.
 */
double
coldBisection(double shared, const std::function<bool(double)> &overflows)
{
    double lo = 0.0;
    double hi = shared;
    if (!overflows(hi))
        return shared;
    for (int it = 0; it < 20; ++it) {
        const double d = 0.5 * (lo + hi);
        if (overflows(d))
            hi = d;
        else
            lo = d;
    }
    return lo + 1.0;
}

/** The replacement: grid search from @p cursor, mapped to blocks. */
double
gridCapacity(double shared, GridCursor &cursor,
             const std::function<double(double)> &excess)
{
    const double unit = std::ldexp(shared, -20);
    const std::uint32_t k = searchCapacityGrid(cursor, [&](std::uint32_t g) {
        return excess(static_cast<double>(g) * unit);
    });
    return k == kCapacityGrid ? shared : static_cast<double>(k) * unit + 1.0;
}

TEST(CapacitySearch, WarmStartsLandWhereTheColdBisectionDoes)
{
    Rng rng(13);
    std::uint64_t warmProbes = 0;
    std::uint64_t coldProbes = 0;
    std::uint64_t refProbes = 0;
    for (const double shared : {8192.0, 16384.0, 65536.0, 10240.0,
                                6144.0, 1048576.0 * 3}) {
        for (int episode = 0; episode < 120; ++episode) {
            // A damped fixed point, like the model's rounds: the
            // threshold overshoots and settles, and some episodes sit
            // at or beyond the ends of the range.  The excess takes
            // four shapes with one sign pattern: linear, flat steps,
            // cubic (flat at its root) and infinite past a wall.
            const double target = shared * (rng.uniform() * 1.2 - 0.1);
            double threshold = shared * rng.uniform() * 1.2;
            const int shape = episode % 4;
            GridCursor cursor;
            for (int round = 0; round < 25; ++round) {
                threshold = target + (threshold - target) * -0.5;
                const double step = shared / 64;
                std::uint64_t *probes = nullptr;
                const auto excess = [&](double d) {
                    ++*probes;
                    const double x = d - threshold;
                    switch (shape) {
                      case 1:
                        return std::floor(x / step) + 0.5;
                      case 2:
                        return x * x * x;
                      case 3:
                        return x >= step
                                   ? std::numeric_limits<double>::infinity()
                                   : x + (x >= 0.0 ? 1.0 : 0.0);
                      default:
                        return x + (x >= 0.0 ? 1.0 : 0.0);
                    }
                };
                probes = &refProbes;
                const double want = coldBisection(
                    shared, [&](double d) { return excess(d) > 0.0; });
                probes = &warmProbes;
                ASSERT_EQ(gridCapacity(shared, cursor, excess), want)
                    << "shared=" << shared << " threshold=" << threshold
                    << " shape=" << shape;
                probes = &coldProbes;
                GridCursor cold;
                ASSERT_EQ(gridCapacity(shared, cold, excess), want);
            }
        }
    }
    // Resuming a damped sequence costs well under half the reference's
    // probes; a cold search costs about what the reference does.
    EXPECT_LT(warmProbes * 2, refProbes);
    EXPECT_LT(coldProbes, refProbes * 11 / 10);
}

/** FNV-1a 64 accumulator over raw value bits. */
struct BitDigest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    word(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b, v >>= 8) {
            h ^= v & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void real(double v) { word(std::bit_cast<std::uint64_t>(v)); }

    void
    text(const std::string &s)
    {
        word(s.size());
        for (const unsigned char ch : s) {
            h ^= ch;
            h *= 0x100000001b3ull;
        }
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }
};

/**
 * Profile window of the golden sweep: long enough that the canonical
 * mixes overflow the smaller LLCs (the capacity search, the deli
 * slices and the partition all take their contended paths), short
 * enough that the ~20 profiling passes stay cheap.
 */
constexpr std::uint64_t kGoldenRecords = 60'000;

/**
 * Digest of every MixEstimate field, bit for bit, over every canonical
 * 2/4/8-core mix at four LLC sizes under one policy.  The model is
 * pure arithmetic over immutable profiles, so any change to its
 * evaluation order, its lookups or its search shows here.
 */
std::string
estimateDigest(const std::string &policy)
{
    BitDigest d;
    for (const auto *mixes :
         {&dualCoreMixes(), &quadCoreMixes(), &eightCoreMixes()}) {
        for (const WorkloadMix &mix : *mixes) {
            std::vector<ProfilePtr> profiles;
            for (const std::string &w : mix.workloads) {
                profiles.push_back(
                    ProfileStore::instance().get(w, kGoldenRecords));
            }
            for (const std::uint64_t kib : {512, 1024, 2048, 4096}) {
                HierarchyConfig hier = defaultHierarchy(
                    static_cast<unsigned>(mix.workloads.size()));
                hier.llc.sizeBytes = kib << 10;
                const MixEstimate est = estimateMix(profiles, hier, policy);
                d.text(mix.name);
                d.word(kib);
                for (const CoreEstimate &c : est.cores) {
                    d.text(c.workload);
                    for (const double v :
                         {c.ipc, c.ipcAlone, c.hitRate, c.missRate,
                          c.llcAccesses, c.llcMisses, c.deliHitRate})
                        d.real(v);
                }
                for (const double v :
                     {est.weightedSpeedup, est.hmeanSpeedup, est.antt,
                      est.fairness, est.llcHitRate})
                    d.real(v);
                d.word(est.iterations);
            }
        }
    }
    return d.hex();
}

/**
 * Pinned digests of the estimate tier.  The model's fast paths
 * (per-profile tables, warm-started capacity search, O(1) lookups)
 * are pure optimizations: they must reproduce these bits exactly.
 */
TEST(EstimateGolden, DigestsArePinned)
{
    struct Row
    {
        const char *policy;
        const char *digest;
    };
    // nru shares lru's digest: the model resolves both to one shared
    // LRU stack.
    constexpr Row kRows[] = {
        {"lru", "aae729dd6117cc3d"},
        {"nru", "aae729dd6117cc3d"},
        {"nucache", "362d0d209b182eb6"},
        {"nucache:d=4", "12516d270b2ace5b"},
        {"ucp", "1658d2da024e17f7"},
        {"pipp", "4de51d6994c52b75"},
    };
    for (const Row &row : kRows)
        EXPECT_EQ(estimateDigest(row.policy), row.digest) << row.policy;
}

} // anonymous namespace
} // namespace nucache::model
