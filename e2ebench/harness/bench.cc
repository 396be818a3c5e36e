#include "bench.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "client.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "inputs.hh"
#include "obs/tracer.hh"
#include "serve/protocol.hh"
#include "sim/policies.hh"
#include "sim/run_engine.hh"
#include "trace/arena.hh"
#include "trace/workloads.hh"

namespace e2e
{

using nucache::Json;

void
Report::endToEnd(std::string name, double value, std::string unit)
{
    ends.push_back({std::move(name), value, std::move(unit)});
}

void
Report::layer(std::string name, double value, std::string unit)
{
    layers.push_back({std::move(name), value, std::move(unit)});
}

void
Report::detail(std::string name, double value, std::string unit)
{
    details.push_back({std::move(name), value, std::move(unit)});
}

void
Report::absent(std::string name, std::string why)
{
    missing.emplace_back(std::move(name), std::move(why));
}

void
Report::note(std::string text)
{
    notes.push_back(std::move(text));
}

double
Report::value(const std::string &name) const
{
    for (const auto *list : {&ends, &layers, &details}) {
        for (const Metric &m : *list) {
            if (m.name == name)
                return m.value;
        }
    }
    return 0.0;
}

void
Report::print(std::ostream &os, bool trace) const
{
    char buf[160];
    const auto line = [&](const Metric &m) {
        std::snprintf(buf, sizeof buf, "  %-34s %16.6f %s\n",
                      m.name.c_str(), m.value, m.unit.c_str());
        os << buf;
    };
    for (const std::string &n : notes)
        os << "# " << n << "\n";
    os << (trace ? "# per-layer metrics (result line)\n"
                 : "# end-to-end metrics (result line)\n");
    for (const Metric &m : trace ? layers : ends)
        line(m);
    if (!details.empty())
        os << "# by name\n";
    for (const Metric &m : details)
        line(m);
    for (const auto &[name, why] : missing)
        os << "  " << name << ": absent (" << why << ")\n";
    std::snprintf(buf, sizeof buf, "  %-34s %16.6f ratio (%llu of %llu)\n",
                  "fail_ratio", ledger.failRatio(),
                  static_cast<unsigned long long>(ledger.failed()),
                  static_cast<unsigned long long>(ledger.attempted()));
    os << buf;
    for (const std::string &r : ledger.reasons())
        os << "# failure: " << r << "\n";

    Json metrics = Json::object();
    for (const Metric &m : trace ? layers : ends) {
        Json v = Json::object();
        v["value"] = m.value;
        v["unit"] = m.unit;
        metrics[m.name] = std::move(v);
    }
    Json result = Json::object();
    result["correct"] = ledger.failed() == 0 && ledger.attempted() > 0;
    result["attempted"] = ledger.attempted();
    result["failed"] = ledger.failed();
    result["metrics"] = std::move(metrics);
    os << result.str(0) << std::endl;
}

Golden
loadGolden(const std::string &path)
{
    Golden g;
    std::ifstream is(path);
    if (path.empty() || !is)
        return g;
    std::stringstream ss;
    ss << is.rdbuf();
    Json doc;
    std::string err;
    if (!Json::parse(ss.str(), doc, err) || !doc.isObject())
        return g;
    const auto strings = [](const Json *arr) {
        std::vector<std::string> out;
        if (arr != nullptr && arr->isArray()) {
            for (const Json &v : arr->elements())
                out.push_back(v.isString() ? v.asString() : "");
        }
        return out;
    };
    const Json *seed = doc.find("seed");
    const Json *grid = doc.find("fig_grid");
    const Json *exact = doc.find("serve_exact");
    if (seed == nullptr || grid == nullptr || exact == nullptr ||
        !grid->isObject() || !exact->isObject())
        return g;
    g.seed = seed->asUint();
    g.gridRecords = grid->at("records_per_core").asUint();
    g.gridCells = strings(grid->find("cells"));
    g.exactRecords = exact->at("records_per_core").asUint();
    g.exactRequests = strings(exact->find("requests"));
    g.loaded = true;
    return g;
}

std::string
digestOf(const std::string &fields)
{
    return hex64(fnv1a(fields));
}

std::vector<nucache::WorkloadMix>
gridMixes(std::uint64_t seed)
{
    return drawMixes(seed, kGridCores, nucache::workloadNames().size());
}

std::vector<nucache::MixResult>
exactReferences(std::uint64_t seed, unsigned jobs)
{
    const std::vector<PoolRequest> pool = exactPool(seed, kExactRecords);
    nucache::RunEngine engine(kExactRecords, jobs);
    std::vector<nucache::MixResult> out(pool.size());
    engine.parallelFor(pool.size(), [&](std::size_t i) {
        const nucache::WorkloadMix mix{"", pool[i].workloads};
        out[i] = engine.runMix(
            mix, pool[i].policy,
            nucache::defaultHierarchy(
                static_cast<unsigned>(mix.workloads.size())));
    });
    return out;
}

void
writeGolden(const Options &opt, const std::string &path)
{
    Json doc = Json::object();
    doc["schema"] = "e2ebench-golden/v1";
    doc["seed"] = opt.seed;
    Json grid = Json::object();
    grid["records_per_core"] = kGridRecords;
    Json cells = Json::array();
    nucache::RunEngine engine(kGridRecords, opt.jobs);
    const nucache::GridRun run = engine.runGrid(
        nucache::defaultHierarchy(kGridCores),
        gridMixes(opt.seed),
        nucache::evaluationPolicySet(), "lru");
    for (const auto &row : run.cells) {
        for (const nucache::GridCell &cell : row)
            cells.push(digestOf(exactFields(cell.result)));
    }
    grid["cells"] = std::move(cells);
    doc["fig_grid"] = std::move(grid);
    Json exact = Json::object();
    exact["records_per_core"] = kExactRecords;
    Json reqs = Json::array();
    for (const nucache::MixResult &r :
         exactReferences(opt.seed, opt.jobs))
        reqs.push(digestOf(exactFields(r)));
    exact["requests"] = std::move(reqs);
    doc["serve_exact"] = std::move(exact);
    std::ofstream os(path);
    if (!os)
        nucache::fatal("cannot write '", path, "'");
    doc.dump(os);
    os << "\n";
}

double
materialize(const std::vector<std::string> &workloads, unsigned jobs)
{
    nucache::ThreadPool pool(jobs);
    const Clock::time_point t0 = Clock::now();
    pool.parallelFor(workloads.size(), [&](std::size_t i) {
        nucache::TraceArena::instance().get(workloads[i]);
    });
    return secondsSince(t0);
}

std::unique_ptr<nucache::serve::Server>
startServer(unsigned workers, std::size_t cache_entries)
{
    nucache::serve::ServerConfig cfg;
    cfg.port = 0;
    // Requests hash to shards by window and every request of a
    // workload shares one window, so one shard takes all the traffic;
    // its engine gets one worker per connection.
    cfg.shards = 1;
    cfg.service.jobs = workers;
    cfg.service.defaultRecords = kExactRecords;
    cfg.service.resultCacheEntries = cache_entries;
    auto server = std::make_unique<nucache::serve::Server>(cfg);
    std::string err;
    if (!server->start(err))
        nucache::fatal("e2ebench: server start failed: ", err);
    return server;
}

void
stopServer(std::unique_ptr<nucache::serve::Server> &server)
{
    if (!server)
        return;
    server->requestShutdown();
    server->join();
    server.reset();
}

namespace
{

double
numberAt(const Json *obj, const char *key)
{
    const Json *v = obj != nullptr && obj->isObject() ? obj->find(key)
                                                      : nullptr;
    return v != nullptr && v->isNumber() ? v->asDouble() : 0.0;
}

} // anonymous namespace

void
reportServerMetrics(std::uint16_t port, Report &report)
{
    const std::string line =
        roundTrip(port, "{\"id\":1,\"op\":\"metrics\"}\n");
    Json doc;
    std::string err;
    const Json *m = nullptr;
    if (Json::parse(line, doc, err) && doc.isObject())
        m = doc.find("result");
    if (m == nullptr || !m->isObject()) {
        report.absent("serve.*", "metrics scrape failed");
        return;
    }
    const Json *phases = m->find("phases");
    const auto phaseMs = [&](const char *phase) {
        return numberAt(phases != nullptr ? phases->find(phase) : nullptr,
                        "p50_us") /
               1000.0;
    };
    report.detail("serve.queue_wait_p50_ms", phaseMs("queue_wait"), "ms");
    report.detail("serve.execute_p50_ms", phaseMs("execute"), "ms");
    report.detail("serve.flush_p50_ms", phaseMs("flush"), "ms");

    double batches = 0.0, cells = 0.0, alone = 0.0, modeled = 0.0;
    if (const Json *shards = m->find("shards");
        shards != nullptr && shards->isArray()) {
        for (const Json &s : shards->elements()) {
            const Json *svc = s.find("service");
            batches += numberAt(svc, "batches");
            cells += numberAt(svc, "batched_cells");
            alone += numberAt(svc, "alone_runs");
            modeled += numberAt(svc, "estimates_inline");
        }
    }
    if (batches > 0.0)
        report.detail("serve.batch_mean", cells / batches, "requests");
    else
        report.absent("serve.batch_mean",
                      "no request reached a dispatcher batch");
    report.detail("serve.alone_runs", alone, "count");
    report.detail("serve.cache_hit_ratio",
                  numberAt(m->find("cache"), "result_hit_ratio"), "ratio");

    double inlined = 0.0, total = 0.0;
    if (const Json *classes = m->find("requests");
        classes != nullptr && classes->isObject()) {
        for (const auto &[name, hist] : classes->members()) {
            if (name == "control")
                continue;
            const double n = numberAt(&hist, "count");
            total += n;
            if (name == "cache_hit" || name == "estimate_inline")
                inlined += n;
        }
    }
    report.detail("serve.inline_frac", total > 0.0 ? inlined / total : 0.0,
                  "ratio");
    // The result-cache ratio above counts only dispatcher lookups; the
    // share of requests that ran the model inline (then stored the
    // answer) is the inline path's miss share.
    report.detail("serve.model_eval_frac",
                  total > 0.0 ? modeled / total : 0.0, "ratio");
}

namespace
{

/**
 * Report the per-layer split of decorated replays: trace replay cost,
 * policy hook counts and times (overall and per policy), System::run
 * self time, and the NUcache core counters when a cell ran nucache.
 * Timer cost (@p floor_ns per clock read) is subtracted throughout.
 */
void
reportProbes(const std::vector<CellProbe> &cells, double floor_ns,
             Report &report)
{
    struct Tally
    {
        HookTimes hooks;
        std::vector<double> hookS;
        std::vector<double> selfS;
        std::vector<double> selectionS;
        std::uint64_t epochs = 0, deliHits = 0, churn = 0, llcHits = 0;
    };
    std::map<std::string, Tally> byPolicy;
    std::vector<std::string> order;
    Tally all;
    TraceTimes trace;
    for (const CellProbe &c : cells)
        trace.merge(c.trace);
    const double nextNs =
        trace.sampled == 0
            ? 0.0
            : std::max(0.0, static_cast<double>(trace.sampledNs) /
                                    static_cast<double>(trace.sampled) -
                                floor_ns);

    for (const CellProbe &c : cells) {
        if (byPolicy.find(c.policy) == byPolicy.end())
            order.push_back(c.policy);
        Tally &t = byPolicy[c.policy];
        const double calls = static_cast<double>(c.hooks.totalCalls());
        const double hookNs = std::max(
            0.0, static_cast<double>(c.hooks.totalNs()) - calls * floor_ns);
        // Wall cost of the probes themselves: one more clock read per
        // timed hook, two per sampled trace record.
        const double traceWallNs =
            static_cast<double>(c.trace.records) * nextNs +
            static_cast<double>(c.trace.sampled) * 2.0 * floor_ns;
        const double hookWallNs =
            static_cast<double>(c.hooks.totalNs()) + calls * floor_ns;
        const double selfNs = c.runS * 1e9 - hookWallNs - traceWallNs;
        for (Tally *x : {&t, &all}) {
            x->hooks.merge(c.hooks);
            x->hookS.push_back(hookNs * 1e-9);
            x->selfS.push_back(std::max(0.0, selfNs) * 1e-9);
        }
        if (c.policy == "nucache") {
            t.selectionS.push_back(
                std::max(0.0, static_cast<double>(c.hooks.selectionNs) -
                                  static_cast<double>(
                                      c.hooks.selectionCalls) *
                                      floor_ns) *
                1e-9);
            t.epochs += c.epochs;
            t.deliHits += c.deliHits;
            t.churn += c.churn;
            for (const nucache::CoreResult &core : c.result.cores)
                t.llcHits += core.llc.hits;
        }
    }

    const auto perCallNs = [floor_ns](const HookTimes &h, unsigned hook) {
        return h.calls[hook] == 0
                   ? 0.0
                   : std::max(0.0, static_cast<double>(h.ns[hook]) /
                                           static_cast<double>(
                                               h.calls[hook]) -
                                       floor_ns);
    };
    report.detail("probe.timer_floor_ns", floor_ns, "ns");
    report.layer("trace.records", static_cast<double>(trace.records),
                 "count");
    report.layer("trace.next_ns", nextNs, "ns");
    report.layer("system.self_s", median(all.selfS), "s");
    report.layer("policy.hook_s", median(all.hookS), "s");
    report.layer("policy.calls", static_cast<double>(all.hooks.totalCalls()),
                 "count");
    for (unsigned h = 0; h < kHooks; ++h) {
        report.layer(std::string("policy.") + hookName(h) + "_ns",
                     perCallNs(all.hooks, h), "ns");
    }
    for (const std::string &p : order) {
        const Tally &t = byPolicy[p];
        report.detail("policy.hook_s." + p, median(t.hookS), "s");
        report.detail("policy.calls." + p,
                      static_cast<double>(t.hooks.totalCalls()), "count");
        for (unsigned h = 0; h < kHooks; ++h) {
            report.detail(std::string("policy.") + hookName(h) + "_ns." + p,
                          perCallNs(t.hooks, h), "ns");
        }
        report.detail("system.self_s." + p, median(t.selfS), "s");
    }

    const auto nu = byPolicy.find("nucache");
    if (nu == byPolicy.end()) {
        for (const char *name :
             {"core.selection_s", "core.epochs", "core.deli_hits",
              "core.selection_churn", "core.deli_hit_frac"})
            report.absent(name, "no nucache run here: the workload never "
                                "enters core/");
        return;
    }
    const Tally &t = nu->second;
    report.detail("core.selection_s", median(t.selectionS), "s");
    report.detail("core.epochs", static_cast<double>(t.epochs), "count");
    report.detail("core.deli_hits", static_cast<double>(t.deliHits),
                  "count");
    report.detail("core.selection_churn", static_cast<double>(t.churn),
                  "count");
    report.detail("core.deli_hit_frac",
                  t.llcHits == 0 ? 0.0
                                 : static_cast<double>(t.deliHits) /
                                       static_cast<double>(t.llcHits),
                  "ratio");
}

/** Report the simulated LLC/DRAM counts of @p runs (mem.*). */
void
reportMem(const std::vector<nucache::SystemResult> &runs, Report &report)
{
    std::uint64_t accesses = 0, misses = 0, dram = 0;
    for (const nucache::SystemResult &r : runs) {
        for (const nucache::CoreResult &core : r.cores) {
            accesses += core.llc.accesses;
            misses += core.llc.misses;
        }
        dram += r.dramReads;
    }
    report.layer("mem.llc_accesses", static_cast<double>(accesses),
                 "count");
    report.layer("mem.llc_miss_rate",
                 accesses == 0 ? 0.0
                               : static_cast<double>(misses) /
                                     static_cast<double>(accesses),
                 "ratio");
    report.layer("mem.dram_reads", static_cast<double>(dram), "count");
}

} // anonymous namespace

void
reportAloneRuns(const std::vector<SimCell> &cells, std::uint64_t records,
                unsigned jobs, Report &report)
{
    // One task per baseline: the engine would share duplicates anyway,
    // but a duplicate task would hold a worker while it waits.
    std::vector<std::string> keys;
    std::vector<std::pair<std::string, const nucache::HierarchyConfig *>>
        runs;
    for (const SimCell &c : cells) {
        for (const std::string &w : c.workloads) {
            const std::string key = w + "/" +
                                    std::to_string(c.hier.numCores) + "/" +
                                    std::to_string(c.hier.llc.sizeBytes);
            if (std::find(keys.begin(), keys.end(), key) != keys.end())
                continue;
            keys.push_back(key);
            runs.emplace_back(w, &c.hier);
        }
    }
    nucache::RunEngine engine(records, jobs);
    const Clock::time_point t0 = Clock::now();
    engine.parallelFor(runs.size(), [&](std::size_t i) {
        engine.aloneIpc(runs[i].first, *runs[i].second);
    });
    report.layer("sim.alone_s", secondsSince(t0), "s");
    report.layer("sim.alone_runs",
                 static_cast<double>(engine.aloneRunCount()), "count");
}

std::vector<double>
replayLayers(const std::vector<SimCell> &cells,
             const std::vector<nucache::SystemResult> &refs,
             std::uint64_t records, unsigned jobs, Report &report)
{
    const double floorNs = timerFloorNs();
    std::vector<CellProbe> probes(cells.size());
    std::vector<double> plainS(cells.size()), ratio(cells.size());
    nucache::ThreadPool pool(jobs);
    pool.parallelFor(cells.size(), [&](std::size_t i) {
        // Back to back on one worker, so both runs see the same load
        // from the rest of the host.
        const SimCell &c = cells[i];
        plainS[i] = plainRunSeconds(c.workloads, c.policy, c.hier, records);
        probes[i] = probeCell(c.workloads, c.policy, c.hier, records);
        ratio[i] = probes[i].runS / plainS[i];
    });
    for (std::size_t i = 0; i < cells.size(); ++i) {
        report.ledger.record(systemFields(probes[i].result) ==
                                     systemFields(refs[i])
                                 ? ""
                                 : "decorated replay differs from the "
                                   "reference run");
    }
    report.layer("trace.overhead_frac", median(ratio) - 1.0, "ratio");
    reportProbes(probes, floorNs, report);
    reportMem(refs, report);
    report.note("distortion: the wrapped lru loses the LLC's typeid-gated "
                "fast lane, so its hook times are the generic virtual path");
    return plainS;
}

ServeLoad
driveServer(const Options &opt, LoadSpec spec,
            std::unique_ptr<nucache::serve::Server> &server, Report &report)
{
    ServeLoad out;
    spec.port = server->port();
    if (opt.trace) {
        spec.seconds = opt.seconds / 2;
        spec.windowSeconds = 0.0;
    } else {
        spec.seconds = opt.seconds;
    }
    out.load = runLoad(spec);
    report.ledger.merge(out.load.ledger);
    out.kept = out.load.kept;
    if (opt.trace) {
        reportServerMetrics(spec.port, report);
        nucache::obs::Tracer::instance().start(opt.traceOut);
        spec.traced = true;
        out.traced = runLoad(spec);
        nucache::obs::Tracer::instance().stop();
        report.ledger.merge(out.traced.ledger);
        out.kept.insert(out.kept.end(), out.traced.kept.begin(),
                        out.traced.kept.end());
        // What the request spans cost the live load (the probes' own
        // overhead is trace.overhead_frac).
        const auto rate = [](const LoadResult &l) {
            return static_cast<double>(l.latencyMs.size()) / l.seconds;
        };
        report.detail("trace.span_overhead_frac",
                      rate(out.load) / rate(out.traced) - 1.0, "ratio");
    }
    stopServer(server);
    return out;
}

void
reportServeEnds(const LoadResult &load, double window_seconds, double tail_q,
                const std::string &prefix, const std::string &tail,
                double setup_s, Report &report)
{
    const WindowStats w = windowed(load, window_seconds, tail_q);
    const double answered = static_cast<double>(load.latencyMs.size());
    report.endToEnd("setup_s", setup_s, "s");
    report.endToEnd("peak_rss_mib", peakRssMib(), "MiB");
    report.endToEnd("p50_ms", median(w.p50Ms), "ms");
    report.endToEnd("tail_ms", median(w.tailMs), "ms");
    report.endToEnd("rate_per_s", median(w.rate), "1/s");
    report.endToEnd("cpu_ms", median(w.cpuMs), "ms");
    report.detail(prefix + "_p50_ms", median(w.p50Ms), "ms");
    report.detail(prefix + "_" + tail + "_ms", median(w.tailMs), "ms");
    report.detail(prefix + "_rps", median(w.rate), "1/s");
    report.detail("requests", answered, "count");
    report.detail("windows", static_cast<double>(w.rate.size()), "count");
    report.detail("whole_run." + tail + "_ms",
                  quantile(load.latencyMs, tail_q), "ms");
    report.detail("whole_run.rps", answered / load.seconds, "1/s");
    report.detail("whole_run.cpu_ms", load.serverCpuS * 1e3 / answered,
                  "ms");
}

std::string
checkResult(const std::string &line, const std::string &expected,
            bool estimate)
{
    Json doc;
    std::string err;
    if (!Json::parse(line, doc, err) || !doc.isObject())
        return "unparsable response";
    const Json *result = doc.find("result");
    if (result == nullptr || !result->isObject())
        return "response without a result";
    const std::string got =
        estimate ? estimateFields(*result) : exactFields(*result);
    if (got.empty())
        return "result missing fields";
    return got == expected ? std::string() : "wrong result";
}

double
meanMicros(std::size_t n, const std::function<void(std::size_t)> &fn,
           double min_seconds)
{
    if (n == 0)
        return 0.0;
    std::uint64_t calls = 0;
    const Clock::time_point t0 = Clock::now();
    do {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        calls += n;
    } while (secondsSince(t0) < min_seconds);
    return secondsSince(t0) * 1e6 / static_cast<double>(calls);
}

} // namespace e2e
