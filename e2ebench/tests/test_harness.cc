/**
 * @file
 * Tests of the benchmark's own pieces: the probes must not change what
 * they observe, the order statistics and failure accounting must count
 * what BENCHMARK.md says they count, and the field renderings used for
 * verification must agree between a simulator result and a served
 * response.
 */

#include <gtest/gtest.h>

#include <map>

#include "inputs.hh"
#include "measure.hh"
#include "probes.hh"
#include "serve/protocol.hh"
#include "serve/service.hh"
#include "sim/policies.hh"
#include "sim/run_engine.hh"
#include "trace/arena.hh"
#include "trace/workloads.hh"

using namespace e2e;
using namespace nucache;

namespace
{

constexpr std::uint64_t kRecords = 20'000;
const std::vector<std::string> kWorkloads = {"loop_medium", "stream_pure"};

std::vector<TraceSourcePtr>
arenaTraces()
{
    std::vector<TraceSourcePtr> traces;
    for (const std::string &w : kWorkloads)
        traces.push_back(TraceArena::instance().open(w));
    return traces;
}

class DecoratedPolicy : public ::testing::TestWithParam<std::string>
{
};

TEST_P(DecoratedPolicy, StatsAreByteIdentical)
{
    const HierarchyConfig hier = defaultHierarchy(2);
    System plain(hier, makePolicy(GetParam()), arenaTraces(), kRecords,
                 false);
    plain.run();

    std::vector<TraceSourcePtr> traces;
    std::vector<const TimedTraceSource *> sources;
    for (TraceSourcePtr &t : arenaTraces()) {
        auto timed = std::make_unique<TimedTraceSource>(std::move(t));
        sources.push_back(timed.get());
        traces.push_back(std::move(timed));
    }
    auto timed = std::make_unique<TimedPolicy>(makePolicy(GetParam()));
    const TimedPolicy *probe = timed.get();
    System decorated(hier, std::move(timed), std::move(traces), kRecords,
                     false);
    decorated.run();

    EXPECT_EQ(plain.statsJson().str(), decorated.statsJson().str());
    EXPECT_EQ(probe->name(), makePolicy(GetParam())->name());
    EXPECT_GT(probe->times().calls[kFill], 0u);
    EXPECT_GT(probe->times().calls[kMiss], 0u);
    std::uint64_t records = 0;
    for (const TimedTraceSource *s : sources)
        records += s->times().records;
    EXPECT_GE(records, 2 * kRecords);
}

INSTANTIATE_TEST_SUITE_P(EvaluationPolicies, DecoratedPolicy,
                         ::testing::ValuesIn(evaluationPolicySet()));

TEST(ProbeCell, MatchesTheEngineRun)
{
    RunEngine engine(kRecords, 1);
    const HierarchyConfig hier = defaultHierarchy(2);
    const MixResult ref = engine.runMix({"m", kWorkloads}, "nucache", hier);
    const CellProbe probe = probeCell(kWorkloads, "nucache", hier, kRecords);
    EXPECT_EQ(systemFields(ref.system), systemFields(probe.result));
    EXPECT_GT(probe.runS, 0.0);
    EXPECT_GT(probe.hooks.totalCalls(), 0u);
}

TEST(Quantile, InterpolatesBetweenClosestRanks)
{
    EXPECT_EQ(quantile({}, 0.5), 0.0);
    EXPECT_EQ(quantile({7.0}, 0.99), 7.0);
    EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 1.0), 4.0);
    // p90 of 0..10: rank 9 exactly.
    std::vector<double> v;
    for (int i = 0; i <= 10; ++i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(quantile(v, 0.9), 9.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.95), 9.5);
    EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
}

TEST(FailureLedger, CountsEachOperationOnce)
{
    FailureLedger ledger;
    ledger.record();
    ledger.record();
    ledger.record("wrong echoed id");
    EXPECT_EQ(ledger.attempted(), 3u);
    EXPECT_EQ(ledger.failed(), 1u);

    ledger.recordFailures(2, "dropped response");
    EXPECT_EQ(ledger.attempted(), 5u);
    EXPECT_EQ(ledger.failed(), 3u);
    EXPECT_DOUBLE_EQ(ledger.failRatio(), 0.6);

    // A verified-wrong result turns a success into a failure without
    // adding an operation, and never past the attempted count.
    ledger.reclassify("wrong result");
    ledger.reclassify("wrong result");
    ledger.reclassify("wrong result");
    EXPECT_EQ(ledger.attempted(), 5u);
    EXPECT_EQ(ledger.failed(), 5u);

    FailureLedger other;
    other.record();
    other.record("error response: overload");
    ledger.merge(other);
    EXPECT_EQ(ledger.attempted(), 7u);
    EXPECT_EQ(ledger.failed(), 6u);
    EXPECT_EQ(ledger.reasons().size(), 4u);
    EXPECT_EQ(FailureLedger().failRatio(), 0.0);
}

TEST(Fields, ServedExactResultMatchesTheSimulator)
{
    PoolRequest r;
    r.workloads = kWorkloads;
    r.policy = "ucp";
    r.records = kRecords;
    serve::Request req;
    std::string err;
    ASSERT_TRUE(serve::parseRequest(requestLine(9, r.body()), req, err))
        << err;

    serve::ServiceConfig cfg;
    serve::SimulationService service(cfg);
    Json response;
    service.executeBatch({req}, [&](std::size_t, Json j) {
        response = std::move(j);
    });
    ASSERT_TRUE(response.isObject());
    ASSERT_NE(response.find("result"), nullptr);

    RunEngine engine(kRecords, 1);
    const MixResult ref =
        engine.runMix(req.mix, "ucp", serve::requestHierarchy(req));
    const std::string expected = exactFields(ref);
    EXPECT_FALSE(expected.empty());
    EXPECT_EQ(exactFields(response.at("result")), expected);

    // A tampered number no longer matches.
    Json tampered = response.at("result");
    tampered["dram_reads"] = ref.system.dramReads + 1;
    EXPECT_NE(exactFields(tampered), expected);
    EXPECT_EQ(exactFields(Json::object()), "");
}

TEST(Inputs, DeckSpreadsTheCatalogEvenly)
{
    const std::size_t catalog = workloadNames().size();
    WorkloadDeck deck(3);
    std::map<std::string, int> seen;
    for (std::size_t i = 0; i < 2 * catalog; ++i)
        ++seen[deck.draw()];
    EXPECT_EQ(seen.size(), catalog);
    for (const auto &[name, n] : seen)
        EXPECT_EQ(n, 2) << name;

    const auto a = drawMixes(5, 8, 5);
    const auto b = drawMixes(5, 8, 5);
    const auto c = drawMixes(6, 8, 5);
    ASSERT_EQ(a.size(), 5u);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].workloads, b[i].workloads);
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        differs = differs || a[i].workloads != c[i].workloads;
    EXPECT_TRUE(differs);
}

TEST(Inputs, EveryPoolRequestParses)
{
    std::vector<PoolRequest> all = exactPool(1, 50'000);
    const InlinePool inl = inlinePool(1, 250'000);
    all.insert(all.end(), inl.keys.begin(), inl.keys.end());
    for (const PoolRequest &r : all) {
        serve::Request req;
        std::string err;
        EXPECT_TRUE(serve::parseRequest(requestLine(1, r.body()), req, err))
            << r.body() << ": " << err;
    }
    const auto order = inlineOrder(inl, 1, 0, 10'000);
    std::size_t exact = 0;
    for (const std::uint32_t k : order) {
        ASSERT_LT(k, inl.keys.size());
        exact += k < inl.exactKeys;
    }
    EXPECT_GT(exact, 800u);
    EXPECT_LT(exact, 1200u);
}

} // anonymous namespace
