/**
 * @file
 * serve_exact: two connections, one request in flight each, send
 * seeded ad-hoc 2- and 4-core run_mix requests under the paper's
 * baselines with mode "exact" and no_cache, to an in-process server.
 * Every request is one full simulation through parse -> queue ->
 * execute -> flush, so this workload is latency-bound and shares the
 * trace/mem/sim code of fig_grid without ever entering core/.
 */

#include <algorithm>

#include "bench.hh"
#include "client.hh"
#include "inputs.hh"
#include "obs/tracer.hh"
#include "serve/protocol.hh"
#include "sim/run_engine.hh"
#include "trace/arena.hh"

namespace e2e
{

using namespace nucache;

namespace
{

constexpr unsigned kConnections = 2;
/** Metrics are medians over windows of this length (~150 requests). */
constexpr double kWindowSeconds = 3.0;

/**
 * @return lru requests whose workload lists cover every workload the
 * pool runs at each core count: sending them primes the server's
 * run-alone baselines for exactly the geometries the pool uses.
 */
std::vector<std::string>
warmBodies(const std::vector<PoolRequest> &pool)
{
    std::vector<std::string> bodies;
    for (const unsigned cores : {2u, 4u}) {
        std::vector<std::string> names;
        for (const PoolRequest &r : pool) {
            if (r.workloads.size() != cores)
                continue;
            for (const std::string &w : r.workloads) {
                if (std::find(names.begin(), names.end(), w) == names.end())
                    names.push_back(w);
            }
        }
        for (std::size_t i = 0; i < names.size(); i += cores) {
            PoolRequest warm;
            warm.policy = "lru";
            warm.noCache = true;
            for (unsigned c = 0; c < cores; ++c)
                warm.workloads.push_back(names[(i + c) % names.size()]);
            bodies.push_back(warm.body());
        }
    }
    return bodies;
}

/** @return @p n indices dealt round-robin over @p conns orders. */
std::vector<std::vector<std::uint32_t>>
dealt(std::size_t n, unsigned conns)
{
    std::vector<std::vector<std::uint32_t>> orders(conns);
    for (std::size_t i = 0; i < n; ++i)
        orders[i % conns].push_back(static_cast<std::uint32_t>(i));
    return orders;
}

} // anonymous namespace

Report
runServeExact(const Options &opt)
{
    Report report;
    const unsigned conns = std::min(kConnections, opt.jobs);
    const std::vector<PoolRequest> pool = exactPool(opt.seed, kExactRecords);
    std::vector<std::string> bodies;
    std::vector<WorkloadMix> lists;
    for (const PoolRequest &r : pool) {
        bodies.push_back(r.body());
        lists.push_back({"", r.workloads});
    }
    const std::vector<std::string> workloads = distinctWorkloads(lists);
    const std::vector<std::string> warm = warmBodies(pool);

    const Golden golden = loadGolden(opt.goldenPath);
    const bool useGolden = golden.loaded && golden.seed == opt.seed &&
                           golden.exactRecords == kExactRecords &&
                           golden.exactRequests.size() == pool.size();
    report.note("serve_exact: " + std::to_string(pool.size()) +
                " no_cache exact requests (2/3 two-core, 1/3 four-core, "
                "every list under every baseline), " +
                std::to_string(conns) + " connections x 1 in flight, " +
                std::to_string(kExactRecords) + " records/core, golden " +
                (useGolden ? "checked" : "not applicable"));

    if (opt.trace)
        obs::Tracer::instance().start("");
    std::unique_ptr<serve::Server> server;
    std::vector<double> setupS, materializeS;
    for (unsigned round = 0; round < kSetupRounds; ++round) {
        stopServer(server);
        TraceArena::instance().clear();
        const Clock::time_point t0 = Clock::now();
        materializeS.push_back(materialize(workloads, opt.jobs));
        server = startServer(conns, 256);
        LoadSpec w;
        w.port = server->port();
        w.bodies = &warm;
        w.orders = dealt(warm.size(), conns);
        w.once = true;
        report.ledger.merge(runLoad(w).ledger);
        setupS.push_back(secondsSince(t0));
    }
    obs::Tracer::instance().stop();

    LoadSpec spec;
    spec.bodies = &bodies;
    const double window = std::min(kWindowSeconds, opt.seconds);
    spec.windowSeconds = window;
    for (unsigned c = 0; c < conns; ++c)
        spec.orders.push_back(shuffledOrder(pool.size(), opt.seed * 31 + c));
    const ServeLoad run = driveServer(opt, spec, server, report);

    // Verification, outside every timed window: each response against
    // the simulator's own run of the same request, and (default seed)
    // each of those runs against golden.json.
    const std::vector<MixResult> refs = exactReferences(opt.seed, opt.jobs);
    std::vector<std::string> expected;
    for (std::size_t i = 0; i < refs.size(); ++i) {
        expected.push_back(exactFields(refs[i]));
        if (useGolden &&
            digestOf(expected.back()) != golden.exactRequests[i])
            expected.back() = "digest differs from golden.json";
    }
    for (const KeptResponse &k : run.kept) {
        if (!k.envelopeOk)
            continue;
        const std::string problem =
            checkResult(k.line, expected[k.poolIndex], false);
        if (!problem.empty())
            report.ledger.reclassify(problem);
    }

    if (!opt.trace) {
        reportServeEnds(run.load, window, 0.9, "exact", "p90",
                        median(setupS), report);
        return report;
    }

    // Traced run: the simulation layers, the pool replayed with probes.
    report.layer("trace.materialize_s", median(materializeS), "s");
    std::vector<SimCell> cells;
    std::vector<SystemResult> results;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        cells.push_back({pool[i].workloads, pool[i].policy,
                         defaultHierarchy(static_cast<unsigned>(
                             pool[i].workloads.size()))});
        results.push_back(refs[i].system);
    }
    reportAloneRuns(cells, kExactRecords, opt.jobs, report);
    report.layer("sim.cell_s",
                 median(replayLayers(cells, results, kExactRecords,
                                     opt.jobs, report)),
                 "s");

    report.detail("exact_p50_ms", median(run.load.latencyMs), "ms");
    report.detail("exact_p90_ms", quantile(run.load.latencyMs, 0.9), "ms");
    report.detail("exact_p50_ms.traced", median(run.traced.latencyMs), "ms");
    serve::Request req;
    std::string err;
    std::vector<std::string> lines;
    for (const std::string &b : bodies)
        lines.push_back(requestLine(1, b));
    report.detail("serve.parse_us",
                  meanMicros(lines.size(),
                             [&](std::size_t i) {
                                 serve::parseRequest(lines[i], req, err);
                             }),
                  "us");
    for (const char *name :
         {"serve.key_us", "serve.try_cached_us", "serve.try_estimate_us"})
        report.absent(name, "no_cache exact traffic never consults the "
                            "result cache");
    for (const char *name :
         {"model.profile_s", "model.estimate_us", "model.iterations"})
        report.absent(name, "serve_exact sends no estimate requests");
    return report;
}

} // namespace e2e
