/**
 * @file
 * The `nucache-rpc/v1` wire protocol: newline-delimited JSON
 * request/response framing for the nucached simulation server.
 *
 * Request line:
 *   {"v": "nucache-rpc/v1",      // optional, v1 assumed
 *    "id": 7,                    // optional u64, echoed back
 *    "op": "run_mix" | "run_trace" | "stats" | "metrics" |
 *          "health" | "shutdown",
 *    "deadline_ms": 30000,       // optional queue deadline override
 *    "params": { ... }}          // op-specific, see below
 *
 * metrics params:  {"format": "json" | "prometheus"} (optional,
 *                  default "json").  "json" answers the
 *                  nucache-metrics/v1 document (latency histograms
 *                  by request class and phase, the dispatcher's
 *                  queue state, cache hit ratios, shed/overload
 *                  counters, process gauges, the slow-request
 *                  sample log); "prometheus" answers
 *                  {"content_type": "text/plain; version=0.0.4",
 *                  "text": "..."} carrying the same series in
 *                  Prometheus text exposition format.  Answered
 *                  inline on the event loop, like health/stats.
 *
 * run_mix params:  {"workloads": ["loop_medium", "stream_pure"]} or
 *                  {"mix": "mix2_01"} (a canonical 2/4/8-core mix),
 *                  plus optional "policy" (spec grammar of
 *                  sim/policies.hh, default "nucache"; results echo
 *                  its canonical spelling), "records",
 *                  "llc_kib", "llc_ways", "telemetry" (sampling
 *                  stride; attaches the nucache-telemetry/v1 doc),
 *                  "stream" (with telemetry: deliver the run as
 *                  incremental frames, see below), "no_cache" (skip
 *                  the server's result cache), and "llc_defense"
 *                  (the randomized-index defense spec of
 *                  mem/rand_index.hh: "none", "rand[:key=N]" or
 *                  "rand-dynamic[:key=N][,period=N]").
 *
 * run_mix workload names include the adversarial-traffic family
 * "attack:<scenario>[:key=value,...]" (scenarios evset / storm; see
 * src/attack/attack.hh) next to the synthetic catalog — hostile
 * traces are ordinary workloads to the server.
 * run_trace params: {"traces": ["/path/a.nutrace", ...]} plus the
 *                  same "policy"/"records"/"llc_kib"/"llc_ways".
 *
 * run_mix additionally accepts "mode": "exact" (default) runs the
 * simulator; "estimate" answers from the analytical reuse-distance
 * model (src/model/) — a model evaluation of ~15 us for two cores
 * to ~0.13 ms for eight once the per-workload profiles are warm
 * (EXPERIMENTS.md, M2), with the response carrying "estimated": true
 * plus a "model_version" tag.  Estimate mode rejects telemetry /
 * stream attachments and policy families outside the model (lru,
 * nru, ucp, pipp and the nucache variants are covered).
 *
 * Response line:
 *   {"v": "nucache-rpc/v1", "id": 7, "ok": true,  "result": {...}}
 *   {"v": "nucache-rpc/v1", "id": 7, "ok": false,
 *    "error": {"code": "overload", "message": "..."}}
 *
 * Responses on one connection are delivered in request order
 * (pipelining: clients may send many request lines before reading),
 * with one exception: a run with "stream": true answers as a
 * sequence of frames that may interleave with other responses on
 * the connection — correlate by "id".  Each frame carries
 *   "stream": {"seq": K, "last": false}
 * Frame 0 holds the run "result" (without telemetry), the following
 * frames each carry a "telemetry" chunk (a nucache-telemetry/v1
 * document holding a subset of the series), and the final frame has
 * "last": true and no payload.  Streaming is what keeps a multi-MB
 * telemetry run from head-of-line-blocking cheap control ops queued
 * behind it on the same connection.
 *
 * Error codes: bad_request, too_large, overload, deadline_exceeded,
 * shutting_down, internal.
 *
 * Parsing is strict and never fatal()s: every malformed line maps to
 * a bad_request response, so untrusted bytes cannot take the server
 * down (the same posture as trace_io's try-parsers).
 */

#ifndef NUCACHE_SERVE_PROTOCOL_HH
#define NUCACHE_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/experiment.hh"
#include "sim/mixes.hh"

namespace nucache::serve
{

/** Protocol identifier, echoed in every response. */
inline constexpr const char *kProtocolVersion = "nucache-rpc/v1";

/** Hard cap on one request line (framing guard, not a JSON limit). */
inline constexpr std::size_t kMaxRequestBytes = 1 << 20;

/** Caps on the simulation work one request may ask for. */
inline constexpr std::uint64_t kMinRecords = 1'000;
inline constexpr std::uint64_t kMaxRecords = 64'000'000;

/** Machine-readable error codes of failed responses. */
namespace error
{
inline constexpr const char *kBadRequest = "bad_request";
inline constexpr const char *kTooLarge = "too_large";
inline constexpr const char *kOverload = "overload";
inline constexpr const char *kDeadlineExceeded = "deadline_exceeded";
inline constexpr const char *kShuttingDown = "shutting_down";
inline constexpr const char *kInternal = "internal";
} // namespace error

/** Execution tier of a run_mix request. */
enum class Mode
{
    /** Full simulation (the default; byte-stable results). */
    Exact,
    /** Analytical reuse-distance estimate (src/model/). */
    Estimate,
};

/** The request verbs of nucache-rpc/v1. */
enum class Op
{
    RunMix,
    RunTrace,
    Stats,
    Metrics,
    Health,
    Shutdown,
};

/** @return the wire name of @p op. */
const char *opName(Op op);

/** A validated request, ready for admission. */
struct Request
{
    Op op = Op::Health;
    /** Client correlation id ("id"); echoed when present. */
    std::uint64_t id = 0;
    bool hasId = false;
    /** Queue deadline in ms; 0 = use the server default. */
    std::uint64_t deadlineMs = 0;

    /** run_mix: the resolved mix (named or ad-hoc workload list). */
    WorkloadMix mix;
    /** run_trace: server-side trace file paths, one per core. */
    std::vector<std::string> tracePaths;
    /** run_mix / run_trace: policy spec, in its canonical spelling. */
    std::string policy = "nucache";
    /** Measurement window per core; 0 = server default. */
    std::uint64_t records = 0;
    /** LLC geometry overrides; 0 = canonical for the core count. */
    std::uint64_t llcKib = 0;
    std::uint32_t llcWays = 0;
    /** Randomized-index defense spec, canonical (every key spelled
     *  out); empty = plain indexing. */
    std::string llcDefense;
    /** Telemetry sampling stride; 0 = no telemetry attachment. */
    std::uint64_t telemetry = 0;
    /** Deliver the run as incremental frames (telemetry runs only). */
    bool stream = false;
    /** Skip the server's result cache for this request. */
    bool noCache = false;
    /** Execution tier: exact simulation or analytical estimate. */
    Mode mode = Mode::Exact;
    /** metrics: answer as Prometheus text exposition instead of the
     *  nucache-metrics/v1 JSON document. */
    bool promFormat = false;
};

/**
 * Parse and validate one request line.  Strict: unknown ops, unknown
 * workload/mix names, malformed policy specs, out-of-range records
 * and impossible LLC geometries are all rejected here, before any
 * simulation object is built — makePolicy()/System would fatal() on
 * them.  Policy, defense and attack specs are parsed once and stored
 * in their canonical spellings, so equal configurations share one
 * cache key.
 * @param err on failure, a human-readable reason.
 * @return whether @p out holds a valid request.
 */
bool parseRequest(const std::string &line, Request &out,
                  std::string &err);

/**
 * @return the hierarchy a validated request simulates: the canonical
 * configuration for its core count with the LLC overrides applied.
 */
HierarchyConfig requestHierarchy(const Request &req);

/**
 * @return the admission-batching compatibility key of @p req: two
 * requests with equal keys may be dispatched as one engine batch
 * (same measurement window and hierarchy, both telemetry-free).
 * Empty when @p req must run exclusively (telemetry attachment).
 */
std::string batchKey(const Request &req, std::uint64_t default_records);

/**
 * @return the result-cache key of @p req — a canonical rendering of
 * every simulation-relevant parameter.  Deterministic simulation
 * makes caching sound: equal keys imply byte-equal results.  Empty
 * when the request is uncacheable (telemetry, no_cache, non-run ops).
 */
std::string cacheKey(const Request &req, std::uint64_t default_records);

/**
 * @return one streaming frame envelope for @p req: `ok` true plus a
 * "stream" object with @p seq and @p last.  The caller attaches the
 * payload ("result" on frame 0, "telemetry" on chunk frames; the
 * last frame carries none).
 */
Json streamFrame(const Request &req, std::uint64_t seq, bool last);

/** @return a success envelope carrying @p result. */
Json okResponse(const Request &req, Json result);

/** @return a failure envelope (@p req supplies the echoed id). */
Json errorResponse(const Request &req, const std::string &code,
                   const std::string &message);

/** @return a failure envelope for a line that never parsed (no id). */
Json errorResponse(const std::string &code, const std::string &message);

} // namespace nucache::serve

#endif // NUCACHE_SERVE_PROTOCOL_HH
