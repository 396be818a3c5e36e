/**
 * @file
 * Tests for the estimate tier's input side (workload profiles) and
 * analytical predictor: the store must memoize one pass per
 * (workload, window), and the model must be a pure deterministic
 * function of its inputs that tracks the simulator on the easy cases
 * (run-alone) and stays sane on the hard ones (multiprogrammed).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "model/predictor.hh"
#include "model/profile.hh"
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

} // anonymous namespace
} // namespace nucache::model
