/**
 * @file
 * Simulator-throughput benchmark: accesses per second through
 * Cache::access for each management policy across LLC geometries,
 * the cost of the delinquent-PC selection algorithm, and a whole
 * eight-core System run with its private levels replayed from the
 * shared private-level log (the path fig_grid takes) against the same
 * run on live private caches.  This sizes the experiment harness
 * itself (not the paper's results) and its JSON output
 * (BENCH_throughput.json, schema nucache-bench/v1) is committed at
 * the repo root so the perf trajectory is tracked PR-over-PR.
 *
 * Successor of the google-benchmark bench_micro_cache: the same
 * seeded access stream (uniform addresses over 2x capacity, 32 PCs,
 * 2 cores, 20% stores), but sweeping policies x geometries, with the
 * shared --records/--quick/--json flags and a machine-readable
 * report.  --jobs is accepted for run_all_benches.sh compatibility
 * and ignored: cells are timed serially so they never contend.
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "common/net.hh"
#include "common/rng.hh"
#include "core/pc_selection.hh"
#include "mem/cache.hh"
#include "obs/metrics.hh"
#include "serve/server.hh"
#include "sim/mixes.hh"
#include "sim/system.hh"
#include "trace/arena.hh"

namespace
{

using namespace nucache;
using namespace nucache::bench;

/** One LLC geometry of the sweep. */
struct Geometry
{
    const char *label;
    std::uint64_t sizeBytes;
    std::uint32_t ways;
};

constexpr Geometry kGeometries[] = {
    {"1MiB-16w", 1ull << 20, 16},
    {"2MiB-16w", 2ull << 20, 16},
    {"8MiB-32w", 8ull << 20, 32},
};

constexpr const char *kPolicies[] = {
    "lru",  "nru", "dip", "tadip",   "srrip",
    "ship", "ucp", "pipp", "nucache",
};

/** Timed result of one (policy, geometry) cell. */
struct CellResult
{
    std::uint64_t accesses = 0;
    double seconds = 0.0;
    double hitRate = 0.0;

    double
    accessesPerSec() const
    {
        return seconds > 0.0
            ? static_cast<double>(accesses) / seconds
            : 0.0;
    }
};

/**
 * Drive the seeded uniform stream through one cache.  The footprint
 * is twice the cache capacity (the bench_micro_cache ratio), so the
 * lookup, victim-selection and eviction paths all stay hot.
 */
CellResult
runCell(const std::string &policy, const Geometry &geo,
        std::uint64_t accesses)
{
    CacheConfig cfg{"tp", geo.sizeBytes, geo.ways, 64};
    Cache cache(cfg, makePolicy(policy), 2);
    const std::uint64_t footprint_blocks =
        2 * (geo.sizeBytes / cfg.blockSize);
    Rng rng(99);

    const auto issue = [&](std::uint64_t n) {
        std::uint64_t hits = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            AccessInfo info;
            info.addr = rng.below(footprint_blocks) * 64;
            info.pc = 0x400000 + rng.below(32) * 4;
            info.coreId = static_cast<CoreId>(rng.below(2));
            info.isWrite = rng.chance(0.2);
            hits += cache.access(info).hit ? 1 : 0;
        }
        return hits;
    };

    const std::string cell_tag =
        obs::Tracer::active() ? policy + "/" + geo.label : std::string();

    // Warm the tag store and policy metadata before timing.
    {
        obs::TraceSpan warm(obs::Tracer::active() ? "warmup " + cell_tag
                                                  : std::string(),
                            "bench");
        issue(std::min<std::uint64_t>(accesses / 8, 500'000));
    }

    const auto start = std::chrono::steady_clock::now();
    std::uint64_t hits = 0;
    {
        obs::TraceSpan measure(obs::Tracer::active()
                                   ? "measure " + cell_tag
                                   : std::string(),
                               "bench");
        hits = issue(accesses);
    }
    const auto stop = std::chrono::steady_clock::now();

    CellResult res;
    res.accesses = accesses;
    res.seconds = std::chrono::duration<double>(stop - start).count();
    res.hitRate = static_cast<double>(hits) /
                  static_cast<double>(accesses);
    return res;
}

/** Lookup throughput and the host-speed calibration beside it. */
struct LookupRates
{
    double lookupsPerSec = 0.0;
    double scansPerSec = 0.0;
    /** Lookups per calibration scan. */
    double normalized = 0.0;
};

/** @return ops per second of @p ops calls timed around @p body. */
template <typename Body>
double
opsPerSec(std::uint64_t ops, Body body)
{
    const auto start = std::chrono::steady_clock::now();
    body(ops);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    return secs > 0.0 ? static_cast<double>(ops) / secs : 0.0;
}

/**
 * Pure lookup throughput: probe() on a warmed LRU cache — the tag
 * scan in isolation, with no policy update, fill, or statistics work.
 * Half the probes hit, half miss, addresses pre-generated so stream
 * synthesis is outside the timed loop.
 *
 * Beside it runs a calibration loop of the same shape — a random
 * set, a 16-tag compare over a 2 MiB table — in plain code that
 * calls nothing in the simulator, so a change to the cache model
 * cannot move it.  The two alternate in short rounds and each
 * reports its best round: the quietest moments of a shared host,
 * taken side by side, so the ratio of the two measures the lookup
 * path with the host's speed cancelled out.
 */
LookupRates
measureLookups(std::uint64_t lookups)
{
    CacheConfig cfg{"look", 1ull << 20, 16, 64};
    Cache cache(cfg, makePolicy("lru"), 1);
    const std::uint32_t sets = cache.numSets();

    // Fill every way of every set with distinct tags.
    for (std::uint32_t s = 0; s < sets; ++s) {
        for (std::uint32_t w = 0; w < cfg.ways; ++w) {
            AccessInfo info;
            info.addr = (static_cast<Addr>(w) * sets + s) * 64;
            info.pc = 0x400000;
            cache.access(info);
        }
    }

    // Tags 0..15 are resident, 16..31 are not: a 50/50 hit mix.
    Rng rng(1234);
    std::vector<Addr> addrs(std::size_t{1} << 16);
    for (auto &a : addrs)
        a = (rng.below(2 * cfg.ways) * sets + rng.below(sets)) * 64;

    // The calibration table: the same 50/50 mix over the same shape.
    std::vector<std::uint64_t> table(std::size_t{sets} * cfg.ways);
    for (auto &t : table)
        t = rng.below(2 * cfg.ways);
    std::vector<std::size_t> spans(addrs.size());
    for (auto &v : spans)
        v = static_cast<std::size_t>(rng.below(sets)) * cfg.ways;

    const std::size_t mask = addrs.size() - 1;
    std::uint64_t present = 0;
    const auto probe = [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i)
            present += cache.probe(addrs[i & mask]) ? 1 : 0;
    };
    const auto scan = [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint64_t *span = &table[spans[i & mask]];
            const std::uint64_t key = i & 31;
            std::uint64_t eq = 0;
            for (std::uint32_t w = 0; w < 16; ++w)
                eq |= std::uint64_t{span[w] == key} << w;
            present += eq != 0 ? 1 : 0;
        }
    };
    probe(addrs.size());
    scan(addrs.size());

    constexpr int kRounds = 15;
    std::vector<double> lps, cps;
    for (int r = 0; r < kRounds; ++r) {
        lps.push_back(opsPerSec(lookups / kRounds, probe));
        cps.push_back(opsPerSec(lookups / kRounds, scan));
    }
    // Keep the probe results observable so the loops are not elided.
    if (present == 0)
        std::cerr << "";
    const auto best = [](const std::vector<double> &v) {
        return *std::max_element(v.begin(), v.end());
    };
    return {best(lps), best(cps), best(lps) / best(cps)};
}

/**
 * Forwards a trace source unchanged.  It is not an ArenaCursor, so a
 * TraceCpu replaying it simulates its private levels live.
 */
class ForwardingSource : public TraceSource
{
  public:
    explicit ForwardingSource(TraceSourcePtr wrapped)
        : inner(std::move(wrapped))
    {
    }

    bool next(TraceRecord &rec) override { return inner->next(rec); }
    void reset() override { inner->reset(); }
    const std::string &name() const override { return inner->name(); }

  private:
    TraceSourcePtr inner;
};

/**
 * Run @p mix under @p policy on @p hier over arena cursors, through
 * the private-level log (@p logged) or wrapped so the private caches
 * run live.  @return {records replayed by all cores, seconds}.
 */
std::pair<std::uint64_t, double>
timeMixRun(const WorkloadMix &mix, const std::string &policy,
           const HierarchyConfig &hier, std::uint64_t records, bool logged)
{
    std::vector<TraceSourcePtr> traces;
    for (const std::string &w : mix.workloads) {
        TraceSourcePtr cursor = TraceArena::instance().open(w);
        traces.push_back(logged ? std::move(cursor)
                                : std::make_unique<ForwardingSource>(
                                      std::move(cursor)));
    }
    const auto start = std::chrono::steady_clock::now();
    System sys(hier, makePolicy(policy), std::move(traces), records, false);
    sys.run();
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    std::uint64_t replayed = 0;
    const Json stats = sys.statsJson();
    for (std::uint32_t c = 0; c < hier.numCores; ++c)
        replayed += stats.at("cpu" + std::to_string(c)).at("records").asUint();
    return {replayed, secs};
}

/** Time selectDelinquentPcs over @p n populated candidates. */
double
selectionOpsPerSec(int n, std::uint64_t iterations)
{
    std::vector<LogHistogram> hists;
    std::vector<PcProfile> profiles;
    Rng rng(5);
    hists.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        hists.emplace_back(32u, 2u);
        hists.back().add(1000 + rng.below(50000), 100);
    }
    for (int i = 0; i < n; ++i) {
        PcProfile p;
        p.pc = 0x400000 + i * 4;
        p.misses = 100 + rng.below(400);
        p.retires = p.misses + rng.below(100);
        p.nextUse = &hists[static_cast<std::size_t>(i)];
        profiles.push_back(p);
    }
    std::size_t sink = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iterations; ++i)
        sink += selectDelinquentPcs(profiles, 10240, 100000)
                    .selected.size();
    const auto stop = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration<double>(stop - start).count();
    // Keep the selection result observable so the loop is not elided.
    if (sink == 0)
        std::cerr << "";
    return secs > 0.0 ? static_cast<double>(iterations) / secs : 0.0;
}

/**
 * One closed-loop pipelined loopback trial against an in-process
 * nucached: @p conns connections blast @p per_conn copies of @p line
 * (a result-cache hit, answered inline on the event loop) and read
 * every response.  @return aggregate requests/second.
 */
double
serveLoopbackRps(std::uint16_t port, unsigned conns,
                 unsigned per_conn, const std::string &line)
{
    std::string framed = line;
    framed += '\n';
    std::vector<std::thread> workers;
    std::atomic<std::uint64_t> served{0};
    const auto start = std::chrono::steady_clock::now();
    for (unsigned c = 0; c < conns; ++c) {
        workers.emplace_back([&] {
            std::string err;
            const int fd = net::connectTcp("127.0.0.1", port, err);
            if (fd < 0)
                fatal("serve_loopback: ", err);
            net::LineReader reader(fd);
            // Writer pipelines every request; the kernel's socket
            // buffers throttle it while this thread drains responses.
            std::thread writer([&framed, fd, per_conn] {
                for (unsigned r = 0; r < per_conn; ++r) {
                    if (!net::writeAll(fd, framed.data(),
                                       framed.size()))
                        return;
                }
            });
            std::string response;
            std::uint64_t got = 0;
            for (unsigned r = 0; r < per_conn; ++r) {
                if (!reader.readLine(response))
                    break;
                ++got;
            }
            writer.join();
            ::close(fd);
            served.fetch_add(got);
        });
    }
    for (auto &w : workers)
        w.join();
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    if (served.load() != std::uint64_t{conns} * per_conn)
        fatal("serve_loopback: dropped responses");
    return secs > 0.0 ? static_cast<double>(served.load()) / secs
                      : 0.0;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const CliArgs args = bench::benchArgs(argc, argv);
    BenchOptions opt = parseOptions(args, 4'000'000);
    // Unlike the figure benches this one defaults its JSON mirror on:
    // BENCH_throughput.json at the cwd (the repo root in normal use)
    // is the tracked perf-trajectory file.
    if (opt.jsonPath.empty())
        opt.jsonPath = "BENCH_throughput.json";
    JsonReport report(opt, "throughput");

    banner(std::cout, "throughput",
           "simulator accesses/second by policy and LLC geometry",
           opt.records);

    // Recorded so numbers taken on different hosts can be compared.
    const unsigned hw_threads = std::thread::hardware_concurrency();
    Json &section = report.section("throughput", "throughput");
    section["hardware_threads"] = hw_threads;
    Json cells = Json::array();

    TextTable table;
    table.header({"policy", "geometry", "Macc/s", "hit_rate"});
    BarChart chart(48, 0.0);
    for (const auto &geo : kGeometries) {
        for (const char *policy : kPolicies) {
            const CellResult res = runCell(policy, geo, opt.records);
            table.row()
                .cell(policy)
                .cell(geo.label)
                .cell(res.accessesPerSec() / 1e6)
                .cell(res.hitRate);
            if (std::string(geo.label) == "1MiB-16w")
                chart.add(policy, res.accessesPerSec() / 1e6);

            Json c = Json::object();
            c["policy"] = policy;
            c["geometry"] = geo.label;
            c["llc_bytes"] = geo.sizeBytes;
            c["llc_ways"] = geo.ways;
            c["block_bytes"] = 64;
            c["accesses"] = res.accesses;
            c["seconds"] = res.seconds;
            c["accesses_per_sec"] = res.accessesPerSec();
            c["hit_rate"] = res.hitRate;
            cells.push(std::move(c));
        }
    }
    section["cells"] = std::move(cells);

    table.print(std::cout);
    std::cout << "\n# accesses/second (millions), 1MiB-16w LLC\n";
    chart.print(std::cout);

    // Lookup path in isolation: probe() is findWay with none of the
    // policy/fill/statistics work of a full access.
    Json &look = report.section("lru_lookup", "lookups_per_sec");
    const std::uint64_t lookups = 4 * opt.records;
    // The gate compares lookups per calibration scan, so the host's
    // speed cancels between the committed run and a CI run.
    const LookupRates rates = measureLookups(lookups);
    look["geometry"] = "1MiB-16w";
    look["hit_fraction"] = 0.5;
    look["lookups"] = lookups;
    look["lookups_per_sec"] = rates.lookupsPerSec;
    look["calibration_scans_per_sec"] = rates.scansPerSec;
    look["normalized"] = rates.normalized;
    look["hardware_threads"] = hw_threads;
    std::cout << "\n# LRU lookup (probe) throughput, 1MiB-16w\n"
              << "lookups/sec  "
              << static_cast<std::uint64_t>(rates.lookupsPerSec) << "  ("
              << rates.lookupsPerSec / 1e6 << " M/s), "
              << rates.normalized << " per calibration scan\n";

    // Private-level log against live private caches: one eight-core
    // paper mix, both policies.  Each trial times the log and the live
    // path of both policies back to back, so host drift hits a trial's
    // two sides alike; the gated ratio is the median of the trials'
    // ratios, which one descheduled run cannot move.  An untimed run
    // first builds the traces and logs, as the first grid of a figure
    // does.
    Json &memo = report.section("private_memo", "records_per_sec");
    {
        constexpr int kMemoTrials = 5;
        const WorkloadMix &mix = eightCoreMixes().front();
        const HierarchyConfig hier = defaultHierarchy(8);
        const std::uint64_t window = args.has("quick") ? 25'000 : 50'000;
        const std::vector<std::string> policies = {"lru", "nucache"};
        for (const std::string &policy : policies)
            timeMixRun(mix, policy, hier, window, true);

        // The log and live runs replay the same records (checked).
        double log_secs = 0.0, live_secs = 0.0;
        std::uint64_t records = 0;
        std::vector<double> best_log(policies.size(), 0.0);
        std::vector<double> best_live(policies.size(), 0.0);
        std::vector<double> trial_ratios;
        for (int trial = 0; trial < kMemoTrials; ++trial) {
            double trial_log_secs = 0.0, trial_live_secs = 0.0;
            for (std::size_t p = 0; p < policies.size(); ++p) {
                const auto [lr, ls] =
                    timeMixRun(mix, policies[p], hier, window, true);
                const auto [vr, vs] =
                    timeMixRun(mix, policies[p], hier, window, false);
                if (lr != vr)
                    fatal("private_memo: the log and live runs of ",
                          mix.name, "/", policies[p], " replayed ", lr,
                          " and ", vr, " records");
                records += lr;
                trial_log_secs += ls;
                trial_live_secs += vs;
                best_log[p] =
                    std::max(best_log[p], static_cast<double>(lr) / ls);
                best_live[p] =
                    std::max(best_live[p], static_cast<double>(vr) / vs);
            }
            // Equal records: the rate ratio is the inverse time ratio.
            trial_ratios.push_back(trial_live_secs / trial_log_secs);
            log_secs += trial_log_secs;
            live_secs += trial_live_secs;
        }

        Json memo_cells = Json::array();
        TextTable memo_table;
        memo_table.header({"policy", "log_Mrec/s", "live_Mrec/s", "speedup"});
        for (std::size_t p = 0; p < policies.size(); ++p) {
            memo_table.row()
                .cell(policies[p])
                .cell(best_log[p] / 1e6)
                .cell(best_live[p] / 1e6)
                .cell(best_log[p] / best_live[p]);
            Json c = Json::object();
            c["policy"] = policies[p];
            c["log_records_per_sec"] = best_log[p];
            c["live_records_per_sec"] = best_live[p];
            memo_cells.push(std::move(c));
        }
        Json ratios = Json::array();
        for (const double r : trial_ratios)
            ratios.push(r);
        std::sort(trial_ratios.begin(), trial_ratios.end());
        const double ratio = trial_ratios[trial_ratios.size() / 2];
        memo["mix"] = mix.name;
        memo["cores"] = hier.numCores;
        memo["records_per_core"] = window;
        memo["trials"] = kMemoTrials;
        memo["cells"] = std::move(memo_cells);
        memo["log_records_per_sec"] =
            static_cast<double>(records) / log_secs;
        memo["live_records_per_sec"] =
            static_cast<double>(records) / live_secs;
        memo["trial_ratios"] = std::move(ratios);
        memo["log_live_ratio"] = ratio;
        memo["hardware_threads"] = hw_threads;
        std::cout << "\n# " << mix.name
                  << " System runs, private levels from the log vs live, "
                  << window << " records/core\n";
        memo_table.print(std::cout);
        std::cout << "log/live records/sec ratio " << ratio
                  << " (median of " << kMemoTrials << " trials)\n";
    }

    // The delinquent-PC selection micro (the other half of the old
    // bench_micro_cache): runs per second at realistic pool sizes.
    Json &sel = report.section("pc_selection", "ops_per_sec");
    Json sel_cells = Json::array();
    const std::uint64_t sel_iters = args.has("quick") ? 2'000 : 10'000;
    std::cout << "\n# delinquent-PC selection, runs/second\n";
    TextTable sel_table;
    sel_table.header({"candidates", "runs_per_sec"});
    for (int n : {16, 32, 64}) {
        const double ops = selectionOpsPerSec(n, sel_iters);
        sel_table.row().cell(std::to_string(n)).cell(ops);
        Json c = Json::object();
        c["candidates"] = n;
        c["ops_per_sec"] = ops;
        sel_cells.push(std::move(c));
    }
    sel["cells"] = std::move(sel_cells);
    sel["hardware_threads"] = hw_threads;
    sel_table.print(std::cout);

    // Serve-loopback A/B: prove the always-on server observability
    // plane (per-request tracing + histograms) costs nothing beyond
    // noise on the hottest path, the inline result-cache hit.  Trials
    // alternate metrics off/on so drift (thermal, page cache, noisy
    // neighbours) hits both arms equally; the gate compares medians.
    Json &serveSec = report.section("serve_loopback", "serve_ab");
    {
        serve::ServerConfig scfg;
        scfg.port = 0;
        scfg.service.jobs = 1;
        scfg.service.defaultRecords = 2'000;
        serve::Server server(scfg);
        std::string err;
        if (!server.start(err))
            fatal("serve_loopback: ", err);

        const std::string hit_line =
            R"({"op":"run_mix","params":{"mix":"mix2_01"}})";
        const unsigned conns = 2;
        const unsigned per_conn = args.has("quick") ? 2'000 : 5'000;
        const unsigned pairs = args.has("quick") ? 3 : 5;
        const double tolerance = args.has("quick") ? 0.85 : 0.90;

        // Prime the result cache (and warm sockets/allocators with
        // one untimed trial) so every measured request is an inline
        // cache hit.
        serveLoopbackRps(server.port(), 1, 1, hit_line);
        serveLoopbackRps(server.port(), conns, per_conn / 2,
                         hit_line);

        std::vector<double> off_rps, on_rps;
        for (unsigned p = 0; p < pairs; ++p) {
            obs::setServeMetricsEnabled(false);
            off_rps.push_back(serveLoopbackRps(server.port(), conns,
                                               per_conn, hit_line));
            obs::setServeMetricsEnabled(true);
            on_rps.push_back(serveLoopbackRps(server.port(), conns,
                                              per_conn, hit_line));
        }
        obs::setServeMetricsEnabled(true);

        const double off_med = median(off_rps);
        const double on_med = median(on_rps);
        const double ratio = off_med > 0.0 ? on_med / off_med : 0.0;
        const bool within = ratio >= tolerance;

        serveSec["connections"] = std::uint64_t{conns};
        serveSec["requests_per_connection"] = std::uint64_t{per_conn};
        serveSec["pairs"] = std::uint64_t{pairs};
        Json offArr = Json::array(), onArr = Json::array();
        for (const double r : off_rps)
            offArr.push(r);
        for (const double r : on_rps)
            onArr.push(r);
        serveSec["rps_off"] = std::move(offArr);
        serveSec["rps_on"] = std::move(onArr);
        serveSec["median_off_rps"] = off_med;
        serveSec["median_on_rps"] = on_med;
        serveSec["ab_ratio"] = ratio;
        serveSec["noise_tolerance"] = tolerance;
        serveSec["within_noise"] = within;
        std::cout << "\n# serve loopback A/B, inline cache hits, "
                  << conns << " conns x " << per_conn
                  << " reqs, " << pairs << " off/on pairs\n"
                  << "metrics off median " << off_med / 1000.0
                  << " kreq/s, on median " << on_med / 1000.0
                  << " kreq/s, ratio " << ratio
                  << (within ? " (within noise)\n"
                             : " (REGRESSION)\n");

        // --serve-metrics-json: persist the metrics scrape the A/B
        // traffic produced (CI validates it with nucache_report
        // --check, proving the document shape under real load).
        const std::string metrics_path =
            args.get("serve-metrics-json", "");
        if (!metrics_path.empty()) {
            std::ofstream os(metrics_path);
            if (!os)
                fatal("cannot write '", metrics_path, "'");
            server.metricsJson().dump(os);
            os << "\n";
            std::cout << "wrote serve metrics to " << metrics_path
                      << "\n";
        }
        server.requestShutdown();
        server.join();
    }

    report.write();
    return 0;
}
