/**
 * @file
 * Tests for the observability layer (src/obs/): sampler determinism
 * across pool widths, Chrome trace_event schema conformance of the
 * tracer output, zero cost/output in disabled mode, and golden
 * telemetry runs of the policies that publish probes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs_mode.hh"
#include "obs/telemetry.hh"
#include "obs/tracer.hh"
#include "sim/policies.hh"
#include "sim/run_engine.hh"
#include "sim/system.hh"
#include "trace/arena.hh"
#include "test_digest.hh"

namespace nucache
{
namespace
{

/** Scoped telemetry enable: restores off + empty hub on exit. */
class TelemetryScope
{
  public:
    explicit TelemetryScope(std::uint64_t interval)
    {
        obs::TelemetryHub::instance().clear();
        obs::setTelemetryInterval(interval);
    }

    ~TelemetryScope()
    {
        obs::setTelemetryInterval(0);
        obs::TelemetryHub::instance().clear();
    }
};

const std::vector<WorkloadMix> &
obsMixes()
{
    static const std::vector<WorkloadMix> mixes = {
        {"hot+ws", {"tiny_hot", "small_ws"}},
        {"ws+hot", {"small_ws", "tiny_hot"}},
    };
    return mixes;
}

/** One full telemetry-enabled grid; @return the drained JSON text. */
std::string
telemetryGridDump(unsigned jobs)
{
    TelemetryScope telemetry(500);
    RunEngine engine(2000, jobs, false);
    engine.runGrid(defaultHierarchy(2), obsMixes(), {"lru", "nucache"});
    return obs::TelemetryHub::instance().drainJson().str();
}

TEST(Sampler, RowsFollowStrideCrossings)
{
    obs::Sampler sampler(100);
    std::uint64_t calls = 0;
    sampler.addProbe("calls", [&calls] {
        return static_cast<double>(++calls);
    });
    EXPECT_EQ(sampler.probeCount(), 1u);
    sampler.maybeSample(50); // below the first boundary
    EXPECT_EQ(sampler.rows(), 0u);
    sampler.maybeSample(100);
    EXPECT_EQ(sampler.rows(), 1u);
    EXPECT_EQ(sampler.lastAt(), 100u);
    // A burst past several boundaries still appends exactly one row.
    sampler.maybeSample(570);
    EXPECT_EQ(sampler.rows(), 2u);
    EXPECT_EQ(sampler.lastAt(), 570u);
    sampler.maybeSample(599); // inside the caught-up stride
    EXPECT_EQ(sampler.rows(), 2u);
    sampler.maybeSample(600);
    EXPECT_EQ(sampler.rows(), 3u);

    const obs::TelemetrySeries series = sampler.series("t");
    ASSERT_EQ(series.columns.size(), 1u);
    EXPECT_EQ(series.columns[0], "calls");
    ASSERT_EQ(series.data.size(), 1u);
    EXPECT_EQ(series.data[0], (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Sampler, SeriesJsonShape)
{
    obs::Sampler sampler(10);
    sampler.addProbe("x", [] { return 4.0; });
    sampler.sampleNow(10);
    const Json j = sampler.series("lbl").toJson();
    EXPECT_EQ(j.at("label").asString(), "lbl");
    EXPECT_EQ(j.at("interval").asUint(), 10u);
    EXPECT_EQ(j.at("rows").asUint(), 1u);
    EXPECT_EQ(j.at("llc_accesses").at(std::size_t{0}).asUint(), 10u);
    EXPECT_EQ(j.at("probes").at("x").at(std::size_t{0}).asDouble(), 4.0);
}

TEST(Telemetry, DeterministicAcrossPoolWidths)
{
    // The headline property: the telemetry document of a grid run is
    // bit-identical at every --jobs width, because rows are keyed by
    // LLC access count and the hub drains sorted by label.
    const std::string serial = telemetryGridDump(1);
    EXPECT_EQ(serial, telemetryGridDump(2));
    EXPECT_EQ(serial, telemetryGridDump(8));
}

TEST(Telemetry, GridPublishesEverySystemRun)
{
    TelemetryScope telemetry(500);
    RunEngine engine(2000, 2, false);
    engine.runGrid(defaultHierarchy(2), obsMixes(), {"lru", "nucache"});
    const Json doc = obs::TelemetryHub::instance().drainJson();
    EXPECT_EQ(doc.at("schema").asString(), "nucache-telemetry/v1");
    // 2 mixes x 2 policies plus the two run-alone baselines.
    ASSERT_EQ(doc.at("series").size(), 6u);
    bool sawNUcacheProbes = false;
    for (const Json &s : doc.at("series").elements()) {
        EXPECT_GT(s.at("rows").asUint(), 0u);
        EXPECT_EQ(s.at("llc_accesses").size(), s.at("rows").asUint());
        if (s.at("probes").find("nucache.deli_occupancy") != nullptr)
            sawNUcacheProbes = true;
        // The final stats tree rides along for every run.
        EXPECT_NE(s.at("final_stats").find("llc"), nullptr);
    }
    EXPECT_TRUE(sawNUcacheProbes);
}

/**
 * @return the columns every run publishes, in registration order:
 * per-core LLC demand, then LLC totals and set heat.
 */
std::vector<std::string>
baseColumns(unsigned cores)
{
    std::vector<std::string> cols;
    for (unsigned c = 0; c < cores; ++c) {
        const std::string prefix = "core" + std::to_string(c) + ".llc.";
        for (const char *stat :
             {"accesses", "misses", "miss_rate", "evictions"})
            cols.push_back(prefix + stat);
    }
    for (const char *name :
         {"llc.accesses", "llc.misses", "llc.miss_rate", "llc.evictions",
          "llc.writebacks", "llc.heat.max", "llc.heat.mean",
          "llc.heat.cold_sets"})
        cols.push_back(name);
    return cols;
}

/**
 * Pinned telemetry of one fixed run per policy family: the columns a
 * policy publishes after the common ones, and the digest of the
 * drained nucache-telemetry/v1 document (every row of every probe
 * plus the final stats tree).
 */
struct TelemetryRow
{
    const char *policy;
    std::vector<std::string> workloads;
    std::vector<std::string> policyColumns;
    const char *digest;
};

TEST(Telemetry, GoldenPolicyRuns)
{
    const TelemetryRow rows[] = {
        // A short epoch, so the window runs several selections.
        {"nucache:epoch=500",
         {"small_ws"},
         {"nucache.selected_pcs", "nucache.deli_hits",
          "nucache.lease_refreshes", "nucache.epochs",
          "nucache.selection_churn", "nucache.deli_occupancy"},
         "0bd69e58c74ae068"},
        {"dip", {"small_ws"}, {"dip.psel"}, "1dfd053832b3fece"},
        {"tadip",
         {"small_ws", "zipf_hot"},
         {"tadip.psel.core0", "tadip.psel.core1"},
         "92c7fa4e105f03a6"},
        // LRU owns no state worth sampling: no policy columns.
        {"lru", {"small_ws"}, {}, "aa5d8c5f639d8bfc"},
    };
    for (const TelemetryRow &row : rows) {
        SCOPED_TRACE(row.policy);
        // Fixed workload, fixed window, fixed interval: the series is
        // a pure function of these inputs, so two runs dump
        // identically.
        const auto run = [&row] {
            TelemetryScope telemetry(200);
            const auto cores =
                static_cast<unsigned>(row.workloads.size());
            HierarchyConfig hier = defaultHierarchy(cores);
            // A small LLC, so the window fills it and every policy
            // evicts, retains and adapts.
            hier.llc.sizeBytes = cores * (32 << 10);
            std::vector<TraceSourcePtr> traces;
            for (const std::string &w : row.workloads)
                traces.push_back(TraceArena::instance().open(w));
            System sys(hier, makePolicy(row.policy), std::move(traces),
                       4000, false);
            sys.setTelemetryLabel(std::string("golden/") + row.policy);
            sys.run();
            return obs::TelemetryHub::instance().drainJson();
        };
        const Json doc = run();
        const std::string text = doc.str();
        EXPECT_EQ(text, run().str());
        EXPECT_EQ(fnv1aHex(text), row.digest);

        ASSERT_EQ(doc.at("series").size(), 1u);
        const Json &s = doc.at("series").at(std::size_t{0});
        EXPECT_EQ(s.at("interval").asUint(), 200u);
        const std::uint64_t nrows = s.at("rows").asUint();
        ASSERT_GE(nrows, 2u);

        std::vector<std::string> expected =
            baseColumns(static_cast<unsigned>(row.workloads.size()));
        expected.insert(expected.end(), row.policyColumns.begin(),
                        row.policyColumns.end());
        std::vector<std::string> columns;
        for (const auto &member : s.at("probes").members())
            columns.push_back(member.first);
        EXPECT_EQ(columns, expected);

        // Monotone counters stay monotone along the series, the row
        // keys strictly increase, and the sampled access counter
        // agrees with the row key: both read the LLC's access clock.
        const Json &probes = s.at("probes");
        const Json &acc = probes.at("llc.accesses");
        const Json &at = s.at("llc_accesses");
        for (std::uint64_t r = 1; r < nrows; ++r) {
            EXPECT_LT(at.at(r - 1).asUint(), at.at(r).asUint());
            EXPECT_LE(acc.at(r - 1).asDouble(), acc.at(r).asDouble());
        }
        EXPECT_EQ(static_cast<std::uint64_t>(
                      acc.at(nrows - 1).asDouble()),
                  at.at(nrows - 1).asUint());
        if (const Json *occ = probes.find("nucache.deli_occupancy")) {
            for (std::uint64_t r = 0; r < nrows; ++r) {
                EXPECT_GE(occ->at(r).asDouble(), 0.0);
                EXPECT_LE(occ->at(r).asDouble(), 1.0);
            }
        }
    }
}

TEST(Tracer, DisabledModeIsSilent)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.reset();
    ASSERT_FALSE(obs::Tracer::active());
    {
        obs::TraceSpan span("should not record", "test");
        tracer.instant("neither should this", "test");
    }
    EXPECT_EQ(tracer.pendingEvents(), 0u);
    EXPECT_EQ(tracer.droppedEvents(), 0u);
}

TEST(Tracer, DisabledTelemetryBuildsNoSampler)
{
    ASSERT_EQ(obs::telemetryInterval(), 0u);
    obs::TelemetryHub::instance().clear();
    std::vector<TraceSourcePtr> traces;
    traces.push_back(TraceArena::instance().open("tiny_hot"));
    System sys(defaultHierarchy(1), makePolicy("lru"),
               std::move(traces), 1000, false);
    sys.run();
    EXPECT_EQ(obs::TelemetryHub::instance().size(), 0u);
}

TEST(Tracer, EmitsChromeTraceEventSchema)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.reset();
    tracer.start("");
    ASSERT_TRUE(obs::Tracer::active());
    {
        obs::TraceSpan span(std::string("span one"), "test");
    }
    tracer.instant("point", "test");
    std::thread other([] {
        obs::TraceSpan span("from another thread", "test");
    });
    other.join();
    tracer.stop();
    EXPECT_FALSE(obs::Tracer::active());
    EXPECT_EQ(tracer.pendingEvents(), 3u);

    std::ostringstream os;
    tracer.writeJson(os);
    Json doc;
    std::string err;
    ASSERT_TRUE(Json::parse(os.str(), doc, err)) << err;
    const Json &events = doc.at("traceEvents");
    ASSERT_EQ(events.size(), 3u);
    std::set<std::uint64_t> tids;
    for (const Json &e : events.elements()) {
        // The keys chrome://tracing requires on every record.
        for (const char *key : {"name", "ph", "ts", "pid", "tid"})
            ASSERT_NE(e.find(key), nullptr) << key;
        const std::string &ph = e.at("ph").asString();
        EXPECT_TRUE(ph == "X" || ph == "i") << ph;
        if (ph == "X") {
            EXPECT_NE(e.find("dur"), nullptr);
        }
        tids.insert(e.at("tid").asUint());
    }
    // The cross-thread span landed in its own buffer.
    EXPECT_EQ(tids.size(), 2u);
    EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ms");
    tracer.reset();
}

TEST(Tracer, StopWritesTheStartPathOnce)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.reset();
    const std::string path =
        ::testing::TempDir() + "nucache_tracer_test.json";
    tracer.start(path);
    { obs::TraceSpan span("one", "test"); }
    tracer.stop();
    tracer.stop(); // idempotent

    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    std::ostringstream ss;
    ss << is.rdbuf();
    Json doc;
    std::string err;
    ASSERT_TRUE(Json::parse(ss.str(), doc, err)) << err;
    EXPECT_EQ(doc.at("traceEvents").size(), 1u);
    std::remove(path.c_str());
    tracer.reset();
}

TEST(Tracer, RingOverwritesOldestWhenFull)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.reset();
    tracer.start("");
    for (std::size_t i = 0; i < obs::Tracer::kRingCapacity + 10; ++i) {
        // Appending (not "e" + s) sidesteps a GCC 12 -Wrestrict false
        // positive in the inlined operator+ at -O3.
        std::string name = "e";
        name += std::to_string(i);
        tracer.instant(name, "test");
    }
    tracer.stop();
    EXPECT_EQ(tracer.pendingEvents(), obs::Tracer::kRingCapacity);
    EXPECT_EQ(tracer.droppedEvents(), 10u);
    tracer.reset();
}

} // anonymous namespace
} // namespace nucache
