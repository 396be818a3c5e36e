/**
 * @file
 * serve_inline: two pipelined connections (16 requests in flight
 * each) send a seeded, Zipf-popular pool of estimate-mode run_mix
 * requests over 2/4/8-core lists x modeled policies x four llc_kib
 * values, mixed with exact keys primed during set-up.  Every answer
 * comes from the server's event loop: repeated keys are result-cache
 * reads (tryCached), new or evicted keys are model evaluations plus a
 * cache store (tryEstimate), so the serve and model layers do all the
 * work and the simulator none.
 */

#include <algorithm>
#include <map>

#include "bench.hh"
#include "client.hh"
#include "common/thread_pool.hh"
#include "inputs.hh"
#include "model/predictor.hh"
#include "model/profile.hh"
#include "obs/tracer.hh"
#include "serve/protocol.hh"
#include "serve/service.hh"
#include "sim/run_engine.hh"
#include "trace/arena.hh"

namespace e2e
{

using namespace nucache;

namespace
{

constexpr unsigned kConnections = 2;
constexpr unsigned kDepth = 16;
/** Larger than the hot set, smaller than the pool: misses stay steady. */
constexpr std::size_t kCacheEntries = 1024;
constexpr std::size_t kOrderLength = 1 << 18;
/** Besides each key's first answer, verify one response in this many. */
constexpr std::uint64_t kKeepEvery = 512;
constexpr std::uint64_t kEstimateRecords = 250'000;
/** Metrics are medians over one-second windows (~80k requests each). */
constexpr double kWindowSeconds = 1.0;

} // anonymous namespace

Report
runServeInline(const Options &opt)
{
    Report report;
    const unsigned conns = std::min(kConnections, opt.jobs);
    const InlinePool pool = inlinePool(opt.seed, kEstimateRecords);
    std::vector<std::string> bodies;
    std::vector<WorkloadMix> lists;
    for (const PoolRequest &r : pool.keys) {
        bodies.push_back(r.body());
        lists.push_back({"", r.workloads});
    }
    const std::vector<std::string> workloads = distinctWorkloads(lists);
    report.note("serve_inline: " + std::to_string(pool.exactKeys) +
                " primed exact keys + " +
                std::to_string(pool.keys.size() - pool.exactKeys) +
                " estimate keys (Zipf 1), " + std::to_string(conns) +
                " connections x " + std::to_string(kDepth) +
                " in flight, result cache " + std::to_string(kCacheEntries) +
                " entries");

    std::vector<std::vector<std::uint32_t>> primeOrders(conns);
    for (std::size_t i = 0; i < pool.exactKeys; ++i)
        primeOrders[i % conns].push_back(static_cast<std::uint32_t>(i));

    if (opt.trace)
        obs::Tracer::instance().start("");
    std::unique_ptr<serve::Server> server;
    std::vector<double> setupS, materializeS, profileS;
    for (unsigned round = 0; round < kSetupRounds; ++round) {
        stopServer(server);
        TraceArena::instance().clear();
        model::ProfileStore::instance().clear();
        const Clock::time_point t0 = Clock::now();
        server = startServer(conns, kCacheEntries);
        materializeS.push_back(materialize(workloads, opt.jobs));
        const Clock::time_point t1 = Clock::now();
        ThreadPool profilers(opt.jobs);
        profilers.parallelFor(workloads.size(), [&](std::size_t i) {
            model::ProfileStore::instance().get(workloads[i],
                                                kEstimateRecords);
        });
        profileS.push_back(secondsSince(t1));
        LoadSpec prime;
        prime.port = server->port();
        prime.bodies = &bodies;
        prime.orders = primeOrders;
        prime.once = true;
        report.ledger.merge(runLoad(prime).ledger);
        setupS.push_back(secondsSince(t0));
    }
    obs::Tracer::instance().stop();

    LoadSpec spec;
    spec.depth = kDepth;
    spec.bodies = &bodies;
    spec.keepEvery = kKeepEvery;
    spec.windowSeconds = kWindowSeconds;
    for (unsigned c = 0; c < conns; ++c)
        spec.orders.push_back(inlineOrder(pool, opt.seed, c, kOrderLength));
    const ServeLoad run = driveServer(opt, spec, server, report);

    // Verification, outside every timed window.  Exact keys against the
    // simulator's own runs; estimate keys against a direct model call.
    std::vector<serve::Request> reqs(pool.keys.size());
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < pool.keys.size(); ++i) {
        lines.push_back(requestLine(1, bodies[i]));
        std::string err;
        if (!serve::parseRequest(lines.back(), reqs[i], err))
            report.ledger.record("pool request rejected: " + err);
    }
    RunEngine engine(kExactRecords, opt.jobs);
    std::vector<MixResult> refs(pool.exactKeys);
    engine.parallelFor(pool.exactKeys, [&](std::size_t i) {
        refs[i] = engine.runMix(reqs[i].mix, reqs[i].policy,
                                serve::requestHierarchy(reqs[i]));
    });
    const auto profilesOf = [](const serve::Request &req) {
        std::vector<model::ProfilePtr> profiles;
        for (const std::string &w : req.mix.workloads) {
            profiles.push_back(
                model::ProfileStore::instance().get(w, kEstimateRecords));
        }
        return profiles;
    };
    std::map<std::uint32_t, std::string> expected;
    std::uint64_t verified = 0;
    for (const KeptResponse &k : run.kept) {
        if (!k.envelopeOk)
            continue;
        const bool estimate = k.poolIndex >= pool.exactKeys;
        auto it = expected.find(k.poolIndex);
        if (it == expected.end()) {
            const serve::Request &req = reqs[k.poolIndex];
            it = expected
                     .emplace(k.poolIndex,
                              estimate
                                  ? estimateFields(model::estimateMix(
                                        profilesOf(req),
                                        serve::requestHierarchy(req),
                                        req.policy))
                                  : exactFields(refs[k.poolIndex]))
                     .first;
        }
        ++verified;
        const std::string problem = checkResult(k.line, it->second, estimate);
        if (!problem.empty())
            report.ledger.reclassify(problem);
    }

    if (!opt.trace) {
        reportServeEnds(run.load, kWindowSeconds, 0.99, "inline", "p99",
                        median(setupS), report);
        report.detail("responses_verified", static_cast<double>(verified),
                      "count");
        return report;
    }

    // Traced run.  Simulation layers: the primed exact keys, replayed.
    report.layer("trace.materialize_s", median(materializeS), "s");
    std::vector<SimCell> cells;
    std::vector<SystemResult> results;
    for (std::size_t i = 0; i < pool.exactKeys; ++i) {
        cells.push_back({reqs[i].mix.workloads, reqs[i].policy,
                         serve::requestHierarchy(reqs[i])});
        results.push_back(refs[i].system);
    }
    reportAloneRuns(cells, kExactRecords, opt.jobs, report);
    report.layer("sim.cell_s",
                 median(replayLayers(cells, results, kExactRecords,
                                     opt.jobs, report)),
                 "s");

    // Serve and model layers: direct timed calls on the same keys.
    std::vector<std::size_t> est;
    for (std::size_t i = pool.exactKeys; i < pool.keys.size(); ++i)
        est.push_back(i);
    serve::Request parsed;
    std::string err, payload;
    report.detail("serve.parse_us",
                  meanMicros(lines.size(),
                             [&](std::size_t i) {
                                 serve::parseRequest(lines[i], parsed, err);
                             }),
                  "us");
    report.detail("serve.key_us",
                  meanMicros(reqs.size(),
                             [&](std::size_t i) {
                                 payload = serve::cacheKey(reqs[i],
                                                           kExactRecords);
                             }),
                  "us");
    serve::ServiceConfig warmCfg;
    warmCfg.defaultRecords = kExactRecords;
    warmCfg.resultCacheEntries = pool.keys.size();
    serve::SimulationService warmSvc(warmCfg);
    for (const std::size_t i : est)
        warmSvc.tryEstimate(reqs[i], payload);
    report.detail("serve.try_cached_us",
                  meanMicros(est.size(),
                             [&](std::size_t j) {
                                 warmSvc.tryCached(reqs[est[j]], payload);
                             }),
                  "us");
    serve::ServiceConfig coldCfg = warmCfg;
    coldCfg.resultCacheEntries = 0;
    serve::SimulationService coldSvc(coldCfg);
    report.detail("serve.try_estimate_us",
                  meanMicros(est.size(),
                             [&](std::size_t j) {
                                 coldSvc.tryEstimate(reqs[est[j]], payload);
                             }),
                  "us");

    std::vector<std::vector<model::ProfilePtr>> profiles;
    std::vector<HierarchyConfig> hiers;
    double iterations = 0.0;
    for (const std::size_t i : est) {
        profiles.push_back(profilesOf(reqs[i]));
        hiers.push_back(serve::requestHierarchy(reqs[i]));
        iterations += model::estimateMix(profiles.back(), hiers.back(),
                                         reqs[i].policy)
                          .iterations;
    }
    report.detail("model.profile_s", median(profileS), "s");
    report.detail("model.estimate_us",
                  meanMicros(est.size(),
                             [&](std::size_t j) {
                                 model::estimateMix(profiles[j], hiers[j],
                                                    reqs[est[j]].policy);
                             }),
                  "us");
    report.detail("model.iterations",
                  iterations / static_cast<double>(est.size()), "count");
    report.detail("inline_rps",
                  static_cast<double>(run.load.latencyMs.size()) /
                      run.load.seconds,
                  "1/s");
    report.detail("inline_p99_ms", quantile(run.load.latencyMs, 0.99), "ms");
    report.detail("inline_p99_ms.traced",
                  quantile(run.traced.latencyMs, 0.99), "ms");
    report.detail("responses_verified", static_cast<double>(verified),
                  "count");
    report.note("the simulation layers here are the primed exact keys; "
                "steady-state traffic never simulates");
    return report;
}

} // namespace e2e
