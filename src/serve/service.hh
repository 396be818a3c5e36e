/**
 * @file
 * The simulation service behind nucached: executes validated
 * nucache-rpc/v1 run requests on shared RunEngines, so served
 * traffic gets the same reuse machinery the bench layer has —
 * shared arena workload traces, the memoized run-alone IPC
 * cache, and pool-parallel batch execution — plus a server-side
 * result cache that deterministic simulation makes sound (equal
 * request keys imply byte-equal results).
 *
 * The service is transport-free (no sockets): the Server's
 * dispatcher feeds it admitted batches, and tests can drive it
 * directly.  executeBatch() must not be called concurrently with
 * itself *on one instance* (the Server's one dispatcher feeds its
 * one instance), but a process may hold several instances — tests
 * and benchmarks do — and those run concurrently.  A process-wide
 * reader/writer gate keeps telemetry runs exclusive across every
 * instance: telemetry mutates process-wide observer state (the
 * sampling interval and the TelemetryHub), so a telemetry run takes
 * the gate exclusively while ordinary runs elsewhere hold it
 * shared.  The stats accessors are thread-safe.
 */

#ifndef NUCACHE_SERVE_SERVICE_HH
#define NUCACHE_SERVE_SERVICE_HH

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hh"
#include "serve/protocol.hh"
#include "sim/run_engine.hh"

namespace nucache::serve
{

/** Tuning knobs of the simulation service. */
struct ServiceConfig
{
    /** Worker threads per engine (request-level batch parallelism). */
    unsigned jobs = 1;
    /** Measurement window when a request omits "records". */
    std::uint64_t defaultRecords = 250'000;
    /** Result-cache capacity in responses (0 disables). */
    std::size_t resultCacheEntries = 256;
};

/** Executes admitted request batches; see file comment. */
class SimulationService
{
  public:
    explicit SimulationService(ServiceConfig cfg);

    /**
     * Response sink: invoked exactly once per batch element with its
     * index and the complete (final) response envelope.  Calls may
     * arrive from engine worker threads, in any order.
     */
    using Emit = std::function<void(std::size_t, Json)>;

    /**
     * Sink for the non-final frames of a streaming ("stream": true)
     * run: invoked zero or more times before the element's final
     * Emit, each time with one self-contained frame envelope.
     */
    using EmitFrame = std::function<void(std::size_t, Json)>;

    /**
     * Execute one admitted batch.  Every element must be a run_mix /
     * run_trace request, and all elements must be sameBatch() with
     * each other (the dispatcher's grouping invariant); requests
     * attaching telemetry arrive as singleton batches and run
     * exclusively.
     * Streaming requests deliver their payload through @p frame and
     * close with a final frame through @p emit (when @p frame is
     * null they fall back to one monolithic response).  Blocks until
     * every response has been emitted.
     */
    void executeBatch(const std::vector<Request> &batch,
                      const Emit &emit, const EmitFrame &frame = {});

    /**
     * Lock-briefly fast path for the server's event loop: when @p req
     * is a cacheable run_mix whose result is already in the result
     * cache, copies the pre-serialized hit payload (the result JSON
     * with its server block marked cached, frozen at store time) into
     * @p result_payload and returns true.  A miss is free — it is
     * counted by whichever path then computes the answer — and
     * touches no engine, so warm traffic can be answered inline
     * without the queue → dispatcher → wake round trip, and without
     * re-serializing the result per hit.
     */
    bool tryCached(const Request &req, std::string &result_payload);

    /**
     * Inline fast path for estimate-mode requests: answers from the
     * result cache when the estimate is already cached, else — when
     * every workload profile the request needs is warm in the
     * process-wide ProfileStore — evaluates the analytical model
     * right here (pure arithmetic, tens of microseconds) and caches
     * the response.  Returns false without blocking when a profile
     * is cold; the dispatcher path then builds it.  Safe on the
     * event-loop thread: never builds a System, never takes the
     * telemetry gate.  On an answer, @p from_cache (when given) says
     * whether it was a result-cache read rather than a model
     * evaluation.
     */
    bool tryEstimate(const Request &req, std::string &result_payload,
                     bool *from_cache = nullptr);

    /** @return service counters as a JSON object (for op "stats"). */
    Json statsJson() const;

    /** @return the measurement window for requests that omit it. */
    std::uint64_t defaultRecords() const { return cfg.defaultRecords; }

  private:
    /** @return the warm engine for @p records, creating/evicting. */
    RunEngine &engineFor(std::uint64_t records);

    /** Execute one run_trace request on the calling thread. */
    Json runTraceResult(const Request &req, std::string &err);

    /**
     * The one estimate path of tryEstimate and executeBatch: evaluate
     * an estimate-mode run_mix that missed the cache, store it under
     * @p key and attach its server block.  @p build_profiles collects
     * cold profiles (dispatcher); else a cold profile returns an
     * empty Json (event loop).
     */
    Json estimate(const Request &req, const std::string &key,
                  bool build_profiles, std::size_t batch_size);

    /** Append the "server" block (cache/batch/reuse hints). */
    void attachServerInfo(Json &result, bool cached,
                          std::size_t batch_size, double wall_ms);

    /**
     * Deliver one finished streaming run as frames: the result,
     * bounded telemetry chunks, then the final frame through @p emit.
     */
    void emitStream(std::size_t i, const Request &req, Json result,
                    Json telemetry, const Emit &emit,
                    const EmitFrame &frame);

    /** @return @p req's cache key; empty if uncacheable or cache off. */
    std::string keyOf(const Request &req) const;

    /**
     * The one result-cache lookup (an empty key misses).  A hit copies
     * the result into @p result and the hit payload into @p payload
     * (each if non-null) and counts; a miss is counted by cacheStore().
     */
    bool lookup(const std::string &key, Json *result,
                std::string *payload);

    /** Store @p result, computed after a miss, under @p key (if not
     *  empty) and count that miss; LRU eviction at capacity. */
    void cacheStore(const std::string &key, const Json &result);

    ServiceConfig cfg;

    mutable std::mutex mtx;
    /** Engines keyed by measurement window, newest-used first. */
    std::list<std::pair<std::uint64_t, std::unique_ptr<RunEngine>>>
        engines;
    /** One cached result plus its pre-serialized hit payload. */
    struct CacheEntry
    {
        Json result;
        /** result serialized with a cached=true server block, built
         *  once at store time for the event loop's fast path. */
        std::string hitPayload;
        /** This entry's position in cacheOrder (O(1) LRU touch). */
        std::list<std::string>::iterator pos;
    };
    /** Result cache: canonical request key -> entry. */
    std::map<std::string, CacheEntry> cache;
    /** Cache keys, most recently used first (LRU order). */
    std::list<std::string> cacheOrder;

    /** Counters (guarded by mtx). */
    struct Counters
    {
        std::uint64_t runMix = 0;
        std::uint64_t runTrace = 0;
        std::uint64_t cacheHits = 0;
        std::uint64_t cacheMisses = 0;
        std::uint64_t batches = 0;
        std::uint64_t batchedCells = 0;
        std::uint64_t maxBatch = 0;
        std::uint64_t telemetryRuns = 0;
        std::uint64_t estimates = 0;
        std::uint64_t estimatesInline = 0;
        std::uint64_t streamedRuns = 0;
        std::uint64_t streamFrames = 0;
        std::uint64_t engineHits = 0;
        std::uint64_t enginesBuilt = 0;
        std::uint64_t enginesEvicted = 0;
        std::uint64_t failures = 0;
    } stats;
};

} // namespace nucache::serve

#endif // NUCACHE_SERVE_SERVICE_HH
