/**
 * @file
 * The closed-loop load generator of the serving workloads: one thread
 * per connection keeps a fixed number of requests in flight against a
 * nucache-rpc/v1 server on loopback, sends the next request only when
 * a response arrives, and times each request from its send to the
 * arrival of its response line.
 */

#ifndef E2EBENCH_CLIENT_HH
#define E2EBENCH_CLIENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hh"

namespace e2e
{

/** What to send, over how many connections, for how long. */
struct LoadSpec
{
    std::uint16_t port = 0;
    /** Requests in flight per connection (1 = strict request/reply). */
    unsigned depth = 1;
    /** Stop sending after this many seconds, then drain. */
    double seconds = 1.0;
    /** Request bodies by pool index (PoolRequest::body()). */
    const std::vector<std::string> *bodies = nullptr;
    /** Per connection: pool indices to send, cycled. */
    std::vector<std::vector<std::uint32_t>> orders;
    /**
     * Keep the response line of every request whose pool index this
     * connection has not answered before, plus one in keepEvery, for
     * verification after the run; keepEvery = 1 keeps them all.
     */
    std::uint64_t keepEvery = 1;
    /** Emit one obs::Tracer span per request (the traced run). */
    bool traced = false;
    /**
     * Send each connection's order exactly once and stop (setup
     * warm-up) instead of cycling until `seconds` pass.
     */
    bool once = false;
    /**
     * Also sample the server's CPU time every windowSeconds (0 = off),
     * so the run can be summarized per window (see windowed()).
     */
    double windowSeconds = 0.0;
};

/** One response kept for verification. */
struct KeptResponse
{
    std::uint32_t poolIndex = 0;
    /** The envelope passed (so the ledger counted a success). */
    bool envelopeOk = false;
    std::string line;
};

/** The outcome of one load run. */
struct LoadResult
{
    /** Send-to-response latency of every answered request, in ms. */
    std::vector<double> latencyMs;
    /** When each of those responses arrived, in s since the start. */
    std::vector<double> doneAt;
    /**
     * Server CPU seconds spent in each full window: the process's CPU
     * time minus that of the connection threads, which are the load
     * generator and not the measured program.
     */
    std::vector<double> windowCpuS;
    /** The same over the whole load. */
    double serverCpuS = 0.0;
    /** From the first send to the last response, in seconds. */
    double seconds = 0.0;
    /** Protocol-level outcome per request (error, wrong id, dropped). */
    FailureLedger ledger;
    std::vector<KeptResponse> kept;
};

/** Run @p spec (one thread per entry of spec.orders) to completion. */
LoadResult runLoad(const LoadSpec &spec);

/**
 * Per-window summaries of a windowed load: each full window's request
 * rate, latency median and @p tail_q quantile, and CPU per request.
 * A burst of interference from other processes on the host then moves
 * one window, and the run reports the median window.
 */
struct WindowStats
{
    std::vector<double> rate;
    std::vector<double> p50Ms;
    std::vector<double> tailMs;
    std::vector<double> cpuMs;
};

WindowStats windowed(const LoadResult &load, double window_seconds,
                     double tail_q);

/**
 * Send one request line to @p port and @return its response line
 * ("" on any error) — the end-of-run metrics scrape.
 */
std::string roundTrip(std::uint16_t port, const std::string &line);

} // namespace e2e

#endif // E2EBENCH_CLIENT_HH
