/**
 * @file
 * Simulator-throughput benchmark: accesses per second through
 * Cache::access for each management policy across LLC geometries,
 * plus the cost of the delinquent-PC selection algorithm.  This sizes
 * the experiment harness itself (not the paper's results) and its
 * JSON output (BENCH_throughput.json, schema nucache-bench/v1) is
 * committed at the repo root so the perf trajectory is tracked
 * PR-over-PR.
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
    "lru", "nru", "dip", "srrip", "ship", "ucp", "pipp", "nucache",
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

/**
 * Pure lookup throughput: probe() on a warmed LRU cache — the tag
 * scan in isolation, with no policy update, fill, or statistics work.
 * Half the probes hit, half miss, addresses pre-generated so stream
 * synthesis is outside the timed loop.
 */
double
lookupsPerSec(std::uint64_t lookups)
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

    const std::size_t mask = addrs.size() - 1;
    std::uint64_t present = 0;
    for (const Addr a : addrs)
        present += cache.probe(a) ? 1 : 0;

    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < lookups; ++i)
        present += cache.probe(addrs[i & mask]) ? 1 : 0;
    const auto stop = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration<double>(stop - start).count();
    // Keep the probe results observable so the loop is not elided.
    if (present == 0)
        std::cerr << "";
    return secs > 0.0 ? static_cast<double>(lookups) / secs : 0.0;
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
    const double lps = lookupsPerSec(lookups);
    look["geometry"] = "1MiB-16w";
    look["hit_fraction"] = 0.5;
    look["lookups"] = lookups;
    look["lookups_per_sec"] = lps;
    look["hardware_threads"] = hw_threads;
    std::cout << "\n# LRU lookup (probe) throughput, 1MiB-16w\n"
              << "lookups/sec  " << static_cast<std::uint64_t>(lps)
              << "  (" << lps / 1e6 << " M/s)\n";

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
        scfg.shards = 2;
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
