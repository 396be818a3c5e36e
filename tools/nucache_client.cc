/**
 * @file
 * nucache_client: command-line client for nucached (nucache-rpc/v1).
 *
 * Single-request mode builds one request from flags, prints the
 * response and exits non-zero on an error response:
 *   nucache_client [--host=127.0.0.1] [--port=7411] --op=health
 *   nucache_client --op=run_mix --mix=mix2_01 --policy=nucache
 *   nucache_client --op=run_mix --workloads=loop_medium,stream_pure \
 *       --records=62500 [--telemetry[=N]] [--no-cache] [--repeat=K]
 *   nucache_client --op=run_mix --mix=mix2_01 --telemetry --stream
 *   nucache_client --op=run_trace a.nutrace b.nutrace
 *   nucache_client --raw='{"op":"health"}'
 *
 * --metrics scrapes the server's observability plane: it sends the
 * `metrics` op and prints only the result document (pipe into
 * `nucache_report --check -` or a file).  --format=prometheus prints
 * the text exposition verbatim instead, ready for a scrape endpoint.
 *
 * --repeat sends the same request K times on one connection and
 * prints each latency (cold first request vs warm repeats).
 * --stream (with --telemetry) requests chunked delivery: every
 * stream frame is printed as it arrives, so a long telemetry run
 * shows incremental progress instead of one giant response.
 *
 * Load mode (--bench N) opens N concurrent connections and drives a
 * cold priming phase followed by a measured phase of M=--requests
 * run requests per connection.  By default the measured phase is
 * closed-loop with --pipeline=D requests in flight per connection
 * (D=1 reproduces classic one-at-a-time round trips); responses are
 * matched to requests in order, which the server's in-order delivery
 * contract guarantees.  --rate=R switches the measured phase to
 * open-loop: sends are paced to R req/s total across connections and
 * latency is measured from each request's *scheduled* send time, so
 * server queueing delay (coordinated omission) is not hidden.  The
 * report prints requests/sec plus per-phase latency percentiles and
 * log2-bucketed histograms ("n/a" where a phase has no samples);
 * --json=FILE additionally writes the `nucache-bench/v1` document.
 * Exits non-zero on any error response or dropped connection.
 *
 * --mode=exact|estimate forwards the run_mix execution tier.  With
 * --bench, --mode=estimate appends an *estimate phase* after the
 * exact measured phase: one unmeasured priming request builds the
 * server's workload profiles, then the same connection fleet drives
 * estimate-path requests so estimate req/s and percentiles print
 * next to the exact-path numbers (and land in the JSON document as
 * the "estimate" phase).
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/net.hh"
#include "serve/protocol.hh"

using namespace nucache;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** Split a comma-separated list. */
std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::istringstream is(csv);
    std::string item;
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/**
 * Build the request line from the command-line flags.
 * @param mode_override when non-null, forces the run_mix "mode"
 * param (the bench harness builds exact and estimate variants of
 * one flag set); null forwards --mode as given.
 */
std::string
buildRequest(const CliArgs &args, std::uint64_t id,
             const char *mode_override = nullptr)
{
    const std::string raw = args.get("raw", "");
    if (!raw.empty())
        return raw;

    Json req = Json::object();
    req["v"] = serve::kProtocolVersion;
    req["id"] = id;
    const std::string op = args.get("op", "health");
    req["op"] = op;
    if (args.has("deadline-ms"))
        req["deadline_ms"] = args.getInt("deadline-ms", 0);
    if (op != "run_mix" && op != "run_trace")
        return req.str(0);

    Json params = Json::object();
    if (op == "run_mix") {
        if (args.has("mix")) {
            params["mix"] = args.get("mix", "");
        } else {
            Json workloads = Json::array();
            for (const auto &w : splitList(
                     args.get("workloads", "loop_medium,stream_pure")))
                workloads.push(w);
            params["workloads"] = std::move(workloads);
        }
    } else {
        Json traces = Json::array();
        for (const auto &path : args.positional())
            traces.push(path);
        params["traces"] = std::move(traces);
    }
    if (args.has("policy"))
        params["policy"] = args.get("policy", "nucache");
    if (args.has("records"))
        params["records"] = args.getInt("records", 0);
    if (args.has("llc-kib"))
        params["llc_kib"] = args.getInt("llc-kib", 0);
    if (args.has("llc-ways"))
        params["llc_ways"] = args.getInt("llc-ways", 0);
    if (args.has("telemetry"))
        params["telemetry"] = args.getInt("telemetry", 50'000);
    if (args.has("stream"))
        params["stream"] = true;
    if (args.has("no-cache"))
        params["no_cache"] = true;
    if (mode_override != nullptr)
        params["mode"] = std::string(mode_override);
    else if (args.has("mode"))
        params["mode"] = args.get("mode", "exact");
    req["params"] = std::move(params);
    return req.str(0);
}

/** One open client connection. */
class ClientConn
{
  public:
    bool
    open(const std::string &host, std::uint16_t port, std::string &err)
    {
        fd = net::connectTcp(host, port, err);
        if (fd < 0)
            return false;
        reader = std::make_unique<net::LineReader>(fd);
        return true;
    }

    ~ClientConn()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool
    send(const std::string &line)
    {
        std::string framed = line;
        framed += '\n';
        return net::writeAll(fd, framed.data(), framed.size());
    }

    bool
    recv(std::string &response)
    {
        return reader->readLine(response);
    }

    /** Send @p line and read one response line. */
    bool
    roundTrip(const std::string &line, std::string &response)
    {
        return send(line) && recv(response);
    }

  private:
    int fd = -1;
    std::unique_ptr<net::LineReader> reader;
};

/** @return whether @p response_line is an ok:true response. */
bool
responseOk(const std::string &response_line)
{
    Json doc;
    std::string err;
    if (!Json::parse(response_line, doc, err) || !doc.isObject())
        return false;
    const Json *ok = doc.find("ok");
    return ok != nullptr && ok->isBool() && ok->asBool();
}

/**
 * @return whether @p response_line is a non-final streaming frame
 * (its "stream" object says more frames follow).
 */
bool
responseContinues(const std::string &response_line)
{
    Json doc;
    std::string err;
    if (!Json::parse(response_line, doc, err) || !doc.isObject())
        return false;
    const Json *stream = doc.find("stream");
    if (stream == nullptr || !stream->isObject())
        return false;
    const Json *last = stream->find("last");
    return last != nullptr && last->isBool() && !last->asBool();
}

double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

/** @return @p ms formatted, or "n/a" when the phase had no samples. */
std::string
fmtMs(double ms, bool have_samples)
{
    if (!have_samples)
        return "n/a";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", ms);
    return buf;
}

/** One log2-spaced latency histogram bucket. */
struct LatencyBucket
{
    double leMs;         // upper bound (inclusive); last is +inf
    std::uint64_t count;
};

/**
 * Bucket @p sorted latencies into log2-spaced bins starting at
 * 0.25 ms.  Power-of-two bounds keep the histogram stable across runs
 * of different speeds, so reports diff cleanly.
 */
std::vector<LatencyBucket>
latencyHistogram(const std::vector<double> &sorted)
{
    std::vector<LatencyBucket> buckets;
    if (sorted.empty())
        return buckets;
    double bound = 0.25;
    while (bound < sorted.back())
        bound *= 2.0;
    for (double b = 0.25; b <= bound; b *= 2.0)
        buckets.push_back({b, 0});
    for (const double ms : sorted) {
        for (LatencyBucket &bucket : buckets) {
            if (ms <= bucket.leMs) {
                ++bucket.count;
                break;
            }
        }
    }
    return buckets;
}

/** Print one phase's percentiles and histogram ("n/a" when empty). */
void
printPhase(const char *name, const std::vector<double> &sorted)
{
    const bool have = !sorted.empty();
    std::printf("%s phase: %llu samples, latency ms p50 %s  p90 %s  "
                "p99 %s  max %s\n",
                name, static_cast<unsigned long long>(sorted.size()),
                fmtMs(percentile(sorted, 0.50), have).c_str(),
                fmtMs(percentile(sorted, 0.90), have).c_str(),
                fmtMs(percentile(sorted, 0.99), have).c_str(),
                fmtMs(have ? sorted.back() : 0.0, have).c_str());
    if (!have) {
        std::printf("  histogram: n/a (no samples)\n");
        return;
    }
    double lower = 0.0;
    for (const LatencyBucket &bucket : latencyHistogram(sorted)) {
        if (bucket.count != 0) {
            std::printf("  %7.2f..%7.2f ms  %llu\n", lower, bucket.leMs,
                        static_cast<unsigned long long>(bucket.count));
        }
        lower = bucket.leMs;
    }
}

/** One phase's block of the nucache-bench/v1 document. */
Json
phaseJson(const std::vector<double> &sorted)
{
    Json p = Json::object();
    p["samples"] = std::uint64_t{sorted.size()};
    if (sorted.empty())
        return p; // no latency keys: the JSON shape of "n/a"
    p["p50_ms"] = percentile(sorted, 0.50);
    p["p90_ms"] = percentile(sorted, 0.90);
    p["p99_ms"] = percentile(sorted, 0.99);
    p["max_ms"] = sorted.back();
    Json hist = Json::array();
    for (const LatencyBucket &bucket : latencyHistogram(sorted)) {
        Json b = Json::object();
        b["le_ms"] = bucket.leMs;
        b["count"] = bucket.count;
        hist.push(std::move(b));
    }
    p["histogram_ms"] = std::move(hist);
    return p;
}

/**
 * Cheap ok-check for the bench hot loop: a full Json parse of every
 * response costs more than the server spends producing it, so the
 * harness looks for the envelope's `"ok":true` marker instead (error
 * envelopes carry `"ok":false`; result payloads never embed the
 * marker).  Non-bench paths keep the strict parse.
 */
bool
responseOkFast(const std::string &response_line)
{
    return response_line.find("\"ok\":true") != std::string::npos;
}

/**
 * One bench connection of the measured phase: a writer thread sends
 * (pipelined or paced) while this thread reads responses, matching
 * each to its send timestamp in order — sound because the server
 * delivers pipelined responses strictly in request order.
 */
struct BenchWorker
{
    std::vector<double> latencies;
    std::uint64_t ok = 0;
    std::uint64_t errors = 0;
    bool dropped = false;

    void
    run(const std::string &line, const std::string &host,
        std::uint16_t port, unsigned per_conn, unsigned pipeline,
        double interval_s, Clock::time_point epoch)
    {
        ClientConn conn;
        std::string err;
        if (!conn.open(host, port, err)) {
            dropped = true;
            return;
        }

        std::mutex mtx;
        std::condition_variable cv;
        std::deque<Clock::time_point> sendTimes;
        bool writeFailed = false;

        // One request line per phase, built once by the caller:
        // responses are matched to requests by order (the server's
        // in-order contract), so per-request ids buy nothing in the
        // hot loop.

        std::thread writer([&] {
            for (unsigned r = 0; r < per_conn; ++r) {
                Clock::time_point stamp;
                if (interval_s > 0.0) {
                    // Open loop: send on the connection's schedule and
                    // stamp the *scheduled* time, so time a request
                    // spends waiting behind a slow server counts as
                    // latency instead of silently stretching the run.
                    stamp = epoch +
                            std::chrono::duration_cast<
                                Clock::duration>(
                                std::chrono::duration<double>(
                                    interval_s *
                                    static_cast<double>(r)));
                    std::this_thread::sleep_until(stamp);
                } else {
                    // Closed loop: at most `pipeline` in flight.
                    std::unique_lock<std::mutex> lock(mtx);
                    cv.wait(lock, [&] {
                        return sendTimes.size() < pipeline ||
                               writeFailed;
                    });
                    if (writeFailed)
                        return;
                    stamp = Clock::now();
                }
                {
                    std::lock_guard<std::mutex> lock(mtx);
                    sendTimes.push_back(stamp);
                }
                if (!conn.send(line)) {
                    std::lock_guard<std::mutex> lock(mtx);
                    writeFailed = true;
                    return;
                }
            }
        });

        for (unsigned r = 0; r < per_conn; ++r) {
            std::string response;
            if (!conn.recv(response)) {
                dropped = true;
                break;
            }
            Clock::time_point sent;
            {
                std::lock_guard<std::mutex> lock(mtx);
                sent = sendTimes.front();
                sendTimes.pop_front();
            }
            cv.notify_one();
            latencies.push_back(
                std::chrono::duration<double, std::milli>(
                    Clock::now() - sent)
                    .count());
            if (responseOkFast(response))
                ++ok;
            else
                ++errors;
        }
        {
            // A dead reader must release a writer parked on the
            // pipeline window.
            std::lock_guard<std::mutex> lock(mtx);
            writeFailed = writeFailed || dropped;
        }
        cv.notify_one();
        writer.join();
        dropped = dropped || writeFailed;
    }
};

/** Aggregated outcome of one measured bench phase. */
struct PhaseResult
{
    std::vector<double> lats; // sorted ascending
    std::uint64_t ok = 0;
    std::uint64_t errors = 0;
    std::uint64_t dropped = 0;
    double wallS = 0.0;

    double
    rps() const
    {
        return wallS > 0.0
                   ? static_cast<double>(lats.size()) / wallS
                   : 0.0;
    }
};

/**
 * Drive one measured phase: @p conns connections each send
 * @p per_conn copies of @p line (closed-loop with @p pipeline in
 * flight, or open-loop when @p interval_s > 0).
 */
PhaseResult
runMeasuredPhase(const std::string &line, const std::string &host,
                 std::uint16_t port, unsigned conns,
                 unsigned per_conn, unsigned pipeline,
                 double interval_s)
{
    std::vector<BenchWorker> results(conns);
    std::vector<std::thread> workers;
    const Clock::time_point start = Clock::now();
    for (unsigned c = 0; c < conns; ++c) {
        workers.emplace_back([&, c] {
            // Open-loop connections are phase-staggered across one
            // send period so the aggregate arrival stream is smooth,
            // not a burst of `conns` requests every interval.
            const Clock::time_point epoch =
                start +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        interval_s * static_cast<double>(c) /
                        static_cast<double>(conns)));
            results[c].run(line, host, port, per_conn, pipeline,
                           interval_s, epoch);
        });
    }
    for (auto &w : workers)
        w.join();

    PhaseResult out;
    out.wallS =
        std::chrono::duration<double>(Clock::now() - start).count();
    for (const BenchWorker &res : results) {
        out.lats.insert(out.lats.end(), res.latencies.begin(),
                        res.latencies.end());
        out.ok += res.ok;
        out.errors += res.errors;
        out.dropped += res.dropped ? 1 : 0;
    }
    std::sort(out.lats.begin(), out.lats.end());
    return out;
}

/** The --metrics scrape mode. @return the process exit code. */
int
runMetricsScrape(const CliArgs &args, const std::string &host,
                 std::uint16_t port)
{
    const std::string format = args.get("format", "json");
    if (format != "json" && format != "prometheus")
        fatal("--format must be json or prometheus");

    Json req = Json::object();
    req["v"] = serve::kProtocolVersion;
    req["id"] = std::uint64_t{1};
    req["op"] = "metrics";
    Json params = Json::object();
    params["format"] = format;
    req["params"] = std::move(params);

    ClientConn conn;
    std::string err, response;
    if (!conn.open(host, port, err))
        fatal("nucache_client: ", err);
    if (!conn.roundTrip(req.str(0), response))
        fatal("nucache_client: connection closed by server");

    Json doc;
    if (!Json::parse(response, doc, err))
        fatal("nucache_client: malformed response: ", err);
    if (!responseOk(response)) {
        std::cout << doc.str(2) << "\n";
        return 1;
    }
    const Json *result = doc.find("result");
    if (result == nullptr)
        fatal("nucache_client: metrics response has no result");
    if (format == "prometheus") {
        const Json *text = result->find("text");
        if (text == nullptr || !text->isString())
            fatal("nucache_client: prometheus response has no text");
        std::cout << text->asString();
        return 0;
    }
    std::cout << result->str(args.has("compact") ? 0 : 2) << "\n";
    return 0;
}

/** The --bench load mode. @return the process exit code. */
int
runBench(const CliArgs &args, const std::string &host,
         std::uint16_t port)
{
    const unsigned conns =
        static_cast<unsigned>(args.getInt("bench", 4));
    const unsigned per_conn =
        static_cast<unsigned>(args.getInt("requests", 32));
    const unsigned pipeline =
        static_cast<unsigned>(args.getInt("pipeline", 1));
    const double rate =
        static_cast<double>(args.getInt("rate", 0));
    if (conns == 0 || per_conn == 0 || pipeline == 0)
        fatal("--bench, --requests and --pipeline must be at least 1");
    if (args.has("rate") && rate <= 0.0)
        fatal("--rate must be a positive total req/s");
    // Per-connection send interval; 0 selects the closed loop.
    const double interval_s =
        rate > 0.0 ? static_cast<double>(conns) / rate : 0.0;

    // With --mode=estimate the cold/warm phases stay on the exact
    // path (that is the baseline the estimate numbers sit next to);
    // the estimate tier gets its own phase below.
    const bool estimate_phase =
        args.get("mode", "exact") == "estimate";

    // Cold phase: one priming request on its own connection.  Its
    // latency is the uncached cost, and it warms the server's arena
    // buffers, run-alone IPC cache and result cache for the measured
    // phase.
    const std::string request =
        buildRequest(args, 1, estimate_phase ? "exact" : nullptr);
    std::vector<double> cold_lats;
    {
        ClientConn conn;
        std::string err, response;
        if (!conn.open(host, port, err))
            fatal("bench: ", err);
        const Clock::time_point t0 = Clock::now();
        if (!conn.roundTrip(request, response) ||
            !responseOk(response))
            fatal("bench: cold priming request failed");
        cold_lats.push_back(msSince(t0));
    }
    const double cold_ms = cold_lats.empty() ? 0.0 : cold_lats.front();

    const PhaseResult warm = runMeasuredPhase(
        request, host, port, conns, per_conn, pipeline, interval_s);
    const std::vector<double> &lats = warm.lats;
    const std::uint64_t ok = warm.ok;
    const std::uint64_t errors = warm.errors;
    const std::uint64_t dropped = warm.dropped;
    const double wall_s = warm.wallS;
    std::sort(cold_lats.begin(), cold_lats.end());

    // Estimate phase: one unmeasured priming request builds the
    // per-workload profiles (and caches the estimate), then the same
    // fleet drives the estimate fast path.
    std::vector<double> est_cold_lats;
    PhaseResult est;
    if (estimate_phase) {
        const std::string est_request =
            buildRequest(args, 1, "estimate");
        ClientConn conn;
        std::string err, response;
        if (!conn.open(host, port, err))
            fatal("bench: ", err);
        const Clock::time_point t0 = Clock::now();
        if (!conn.roundTrip(est_request, response) ||
            !responseOk(response))
            fatal("bench: estimate priming request failed");
        est_cold_lats.push_back(msSince(t0));
        est = runMeasuredPhase(est_request, host, port, conns,
                               per_conn, pipeline, interval_s);
    }

    if (interval_s > 0.0) {
        std::printf("bench: open loop, %u connections, %.0f req/s "
                    "target, %u requests each against %s:%u\n",
                    conns, rate, per_conn, host.c_str(), port);
    } else {
        std::printf("bench: closed loop, %u connections x %u "
                    "requests, pipeline %u against %s:%u\n",
                    conns, per_conn, pipeline, host.c_str(), port);
    }
    std::printf("requests: %llu ok, %llu errors, %llu dropped "
                "connections, wall %.2f s\n",
                static_cast<unsigned long long>(ok),
                static_cast<unsigned long long>(errors),
                static_cast<unsigned long long>(dropped), wall_s);
    if (!lats.empty() && wall_s > 0.0) {
        std::printf("throughput: %.1f req/s\n",
                    static_cast<double>(lats.size()) / wall_s);
        const double warm_p50 = percentile(lats, 0.50);
        std::printf("cold vs warm: first (uncached) %s ms, "
                    "warm p50 %s ms (%.1fx)\n",
                    fmtMs(cold_ms, !cold_lats.empty()).c_str(),
                    fmtMs(warm_p50, true).c_str(),
                    warm_p50 > 0.0 ? cold_ms / warm_p50 : 0.0);
    }
    printPhase("cold", cold_lats);
    printPhase("warm", lats);
    if (estimate_phase) {
        std::printf("estimate requests: %llu ok, %llu errors, %llu "
                    "dropped connections, wall %.2f s\n",
                    static_cast<unsigned long long>(est.ok),
                    static_cast<unsigned long long>(est.errors),
                    static_cast<unsigned long long>(est.dropped),
                    est.wallS);
        if (!est.lats.empty() && est.wallS > 0.0)
            std::printf("estimate throughput: %.1f req/s\n",
                        est.rps());
        printPhase("estimate_cold", est_cold_lats);
        printPhase("estimate", est.lats);
    }

    const std::string json_path = args.get("json", "");
    if (!json_path.empty()) {
        Json doc = Json::object();
        doc["schema"] = "nucache-bench/v1";
        doc["host"] = host;
        doc["port"] = std::uint64_t{port};
        doc["mode"] = interval_s > 0.0 ? "open_loop" : "closed_loop";
        doc["connections"] = std::uint64_t{conns};
        doc["requests_per_connection"] = std::uint64_t{per_conn};
        doc["pipeline"] = std::uint64_t{pipeline};
        if (interval_s > 0.0)
            doc["target_rps"] = rate;
        // Full client configuration, so a report file alone is enough
        // to reproduce the load shape that produced it.
        Json client = Json::object();
        client["connections"] = std::uint64_t{conns};
        client["requests_per_connection"] = std::uint64_t{per_conn};
        client["pipeline"] = std::uint64_t{pipeline};
        client["loop"] = interval_s > 0.0 ? "open" : "closed";
        client["target_rps"] = interval_s > 0.0 ? rate : 0.0;
        client["run_mode"] = args.get("mode", "exact");
        doc["client"] = std::move(client);
        doc["ok"] = ok;
        doc["errors"] = errors;
        doc["dropped_connections"] = dropped;
        doc["wall_s"] = wall_s;
        doc["throughput_rps"] =
            wall_s > 0.0 ? static_cast<double>(lats.size()) / wall_s
                         : 0.0;
        Json phases = Json::object();
        phases["cold"] = phaseJson(cold_lats);
        phases["warm"] = phaseJson(lats);
        if (estimate_phase) {
            phases["estimate_cold"] = phaseJson(est_cold_lats);
            phases["estimate"] = phaseJson(est.lats);
            doc["estimate_ok"] = est.ok;
            doc["estimate_errors"] = est.errors;
            doc["estimate_throughput_rps"] = est.rps();
        }
        doc["phases"] = std::move(phases);
        std::ofstream os(json_path);
        if (!os)
            fatal("cannot write bench JSON to '", json_path, "'");
        doc.dump(os);
        os << "\n";
        std::fprintf(stderr, "wrote bench JSON to %s\n",
                     json_path.c_str());
    }
    return errors == 0 && dropped == 0 && est.errors == 0 &&
                   est.dropped == 0
               ? 0
               : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv,
                       {"no-cache", "telemetry", "compact", "stream",
                        "metrics"});
    const std::string host = args.get("host", "127.0.0.1");
    const std::uint16_t port =
        static_cast<std::uint16_t>(args.getInt("port", 7411));

    if (args.has("metrics"))
        return runMetricsScrape(args, host, port);
    if (args.has("bench"))
        return runBench(args, host, port);

    const std::uint64_t repeat = args.getInt("repeat", 1);
    if (repeat == 0)
        fatal("--repeat must be at least 1");

    ClientConn conn;
    std::string err;
    if (!conn.open(host, port, err))
        fatal("nucache_client: ", err);

    bool all_ok = true;
    for (std::uint64_t r = 0; r < repeat; ++r) {
        const std::string request = buildRequest(args, r + 1);
        std::string response;
        const Clock::time_point t0 = Clock::now();
        if (!conn.roundTrip(request, response))
            fatal("nucache_client: connection closed by server");
        // A streaming run answers in frames; print each as it lands
        // and keep reading until the final frame closes the stream.
        while (responseContinues(response)) {
            Json frame;
            std::string perr;
            if (Json::parse(response, frame, perr))
                std::cout << frame.str(args.has("compact") ? 0 : 2)
                          << "\n";
            all_ok = all_ok && responseOk(response);
            if (!conn.recv(response))
                fatal("nucache_client: connection closed mid-stream");
        }
        const double ms = msSince(t0);
        if (repeat > 1)
            std::fprintf(stderr, "request %llu: %.2f ms%s\n",
                         static_cast<unsigned long long>(r + 1), ms,
                         r == 0 ? " (cold)" : "");
        Json doc;
        std::string perr;
        if (!Json::parse(response, doc, perr)) {
            std::cout << response << "\n";
            fatal("nucache_client: malformed response: ", perr);
        }
        if (repeat == 1 || r + 1 == repeat)
            std::cout << doc.str(args.has("compact") ? 0 : 2) << "\n";
        all_ok = all_ok && responseOk(response);
    }
    return all_ok ? 0 : 1;
}
