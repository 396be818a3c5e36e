#include "serve/service.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <shared_mutex>

#include "model/predictor.hh"
#include "model/profile.hh"
#include "obs/obs_mode.hh"
#include "obs/telemetry.hh"
#include "sim/policies.hh"
#include "trace/arena.hh"
#include "trace/trace_io.hh"

namespace nucache::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * Process-wide telemetry gate.  Telemetry runs mutate process-wide
 * observer state (obs::setTelemetryInterval and the TelemetryHub),
 * so with several services running batches concurrently in one
 * process a telemetry run must exclude *every* other simulation, not
 * just its own service's: ordinary runs hold this shared, telemetry
 * runs hold it exclusively.
 */
std::shared_mutex gTelemetryGate;

/** Serialized-size budget of one streamed telemetry frame. */
constexpr std::size_t kStreamChunkBytes = 256 * 1024;

/** Windows kept warm at once, one RunEngine each (an engine's window
 *  is fixed); least-recently-used engines beyond it are torn down. */
constexpr std::size_t kMaxEngines = 4;

/** @return elapsed ms since @p start. */
double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** @return the LLC/DRAM geometry of @p hier as a JSON object. */
Json
hierarchyJson(const HierarchyConfig &hier)
{
    Json h = Json::object();
    h["cores"] = hier.numCores;
    h["llc_bytes"] = hier.llc.sizeBytes;
    h["llc_ways"] = hier.llc.ways;
    h["block_bytes"] = hier.llc.blockSize;
    return h;
}

/** @return the run_mix result payload for @p res. */
Json
mixResultJson(const MixResult &res, std::uint64_t records,
              const HierarchyConfig &hier)
{
    Json c = Json::object();
    c["mix"] = res.mixName;
    c["policy"] = res.policy;
    c["records_per_core"] = records;
    c["hierarchy"] = hierarchyJson(hier);
    c["weighted_speedup"] = res.weightedSpeedup;
    c["hmean_speedup"] = res.hmeanSpeedup;
    c["antt"] = res.antt;
    c["fairness"] = res.fairness;
    std::uint64_t accesses = 0, misses = 0;
    Json cores = Json::array();
    for (std::size_t i = 0; i < res.system.cores.size(); ++i) {
        const auto &core = res.system.cores[i];
        Json cj = Json::object();
        cj["workload"] = core.workload;
        cj["ipc"] = core.ipc;
        if (i < res.ipcAlone.size())
            cj["ipc_alone"] = res.ipcAlone[i];
        cj["llc_accesses"] = core.llc.accesses;
        cj["llc_misses"] = core.llc.misses;
        accesses += core.llc.accesses;
        misses += core.llc.misses;
        cores.push(std::move(cj));
    }
    c["llc_accesses"] = accesses;
    c["llc_misses"] = misses;
    c["llc_writebacks"] = res.system.llcWritebacks;
    c["dram_reads"] = res.system.dramReads;
    c["cores"] = std::move(cores);
    return c;
}

/** The estimate-mode run_mix payload (mirrors mixResultJson). */
Json
estimateResultJson(const model::MixEstimate &est,
                   const WorkloadMix &mix, const std::string &policy,
                   std::uint64_t records, const HierarchyConfig &hier)
{
    Json c = Json::object();
    c["mix"] = mix.name;
    c["policy"] = policy;
    c["records_per_core"] = records;
    c["hierarchy"] = hierarchyJson(hier);
    c["estimated"] = true;
    c["model_version"] = model::kModelVersion;
    c["weighted_speedup"] = est.weightedSpeedup;
    c["hmean_speedup"] = est.hmeanSpeedup;
    c["antt"] = est.antt;
    c["fairness"] = est.fairness;
    double accesses = 0.0, misses = 0.0;
    Json cores = Json::array();
    for (const model::CoreEstimate &core : est.cores) {
        Json cj = Json::object();
        cj["workload"] = core.workload;
        cj["ipc"] = core.ipc;
        cj["ipc_alone"] = core.ipcAlone;
        cj["llc_accesses"] =
            static_cast<std::uint64_t>(core.llcAccesses + 0.5);
        cj["llc_misses"] =
            static_cast<std::uint64_t>(core.llcMisses + 0.5);
        cj["llc_hit_rate"] = core.hitRate;
        if (core.deliHitRate > 0.0)
            cj["deli_hit_rate"] = core.deliHitRate;
        accesses += core.llcAccesses;
        misses += core.llcMisses;
        cores.push(std::move(cj));
    }
    c["llc_accesses"] = static_cast<std::uint64_t>(accesses + 0.5);
    c["llc_misses"] = static_cast<std::uint64_t>(misses + 0.5);
    c["llc_hit_rate"] = est.llcHitRate;
    c["cores"] = std::move(cores);
    return c;
}

} // anonymous namespace

SimulationService::SimulationService(ServiceConfig config)
    : cfg(std::move(config))
{
    if (cfg.jobs == 0)
        cfg.jobs = 1;
}

RunEngine &
SimulationService::engineFor(std::uint64_t records)
{
    std::lock_guard<std::mutex> lock(mtx);
    for (auto it = engines.begin(); it != engines.end(); ++it) {
        if (it->first == records) {
            engines.splice(engines.begin(), engines, it);
            ++stats.engineHits;
            return *engines.front().second;
        }
    }
    engines.emplace_front(records,
                          std::make_unique<RunEngine>(records, cfg.jobs));
    ++stats.enginesBuilt;
    while (engines.size() > kMaxEngines) {
        engines.pop_back();
        ++stats.enginesEvicted;
    }
    return *engines.front().second;
}

std::string
SimulationService::keyOf(const Request &req) const
{
    return cfg.resultCacheEntries == 0 ? std::string()
                                       : cacheKey(req, cfg.defaultRecords);
}

bool
SimulationService::lookup(const std::string &key, Json *result,
                          std::string *payload)
{
    if (key.empty())
        return false;
    std::lock_guard<std::mutex> lock(mtx);
    const auto it = cache.find(key);
    if (it == cache.end())
        return false;
    ++stats.cacheHits;
    cacheOrder.splice(cacheOrder.begin(), cacheOrder,
                      it->second.pos);
    if (result != nullptr)
        *result = it->second.result;
    if (payload != nullptr)
        *payload = it->second.hitPayload;
    return true;
}

bool
SimulationService::tryCached(const Request &req,
                             std::string &result_payload)
{
    return lookup(keyOf(req), nullptr, &result_payload);
}

void
SimulationService::cacheStore(const std::string &key, const Json &result)
{
    if (key.empty())
        return;
    // The hit payload is frozen here: serve-side hint counters inside
    // its server block (alone_runs, arena_materializations) reflect
    // store time, which cached responses are allowed to do.
    Json hit = result;
    attachServerInfo(hit, true, 1, 0.0);
    std::string payload = hit.str(0);
    std::lock_guard<std::mutex> lock(mtx);
    ++stats.cacheMisses;
    if (cache.find(key) == cache.end()) {
        cacheOrder.push_front(key);
        cache.emplace(key, CacheEntry{result, std::move(payload),
                                      cacheOrder.begin()});
    }
    while (cache.size() > cfg.resultCacheEntries) {
        cache.erase(cacheOrder.back());
        cacheOrder.pop_back();
    }
}

Json
SimulationService::estimate(const Request &req, const std::string &key,
                            bool build_profiles, std::size_t batch_size)
{
    const Clock::time_point start = Clock::now();
    const std::uint64_t records =
        requestRecords(req, cfg.defaultRecords);
    std::vector<model::ProfilePtr> profiles;
    profiles.reserve(req.mix.workloads.size());
    auto &store = model::ProfileStore::instance();
    for (const std::string &w : req.mix.workloads) {
        model::ProfilePtr p = build_profiles
                                  ? store.get(w, records)
                                  : store.peek(w, records);
        if (p == nullptr)
            return Json();
        profiles.push_back(std::move(p));
    }
    const HierarchyConfig hier = requestHierarchy(req);
    Json result = estimateResultJson(
        model::estimateMix(profiles, hier, req.policy), req.mix,
        req.policy, records, hier);
    cacheStore(key, result);
    attachServerInfo(result, false, batch_size, msSince(start));
    return result;
}

bool
SimulationService::tryEstimate(const Request &req,
                               std::string &result_payload,
                               bool *from_cache)
{
    if (req.op != Op::RunMix || req.mode != Mode::Estimate)
        return false;
    const std::string key = keyOf(req);
    const bool cached = lookup(key, nullptr, &result_payload);
    if (from_cache != nullptr)
        *from_cache = cached;
    if (cached)
        return true;
    const Json result = estimate(req, key, /*build_profiles=*/false, 1);
    if (result.isNull())
        return false;
    {
        std::lock_guard<std::mutex> lock(mtx);
        ++stats.runMix;
        ++stats.estimates;
        ++stats.estimatesInline;
    }
    result_payload = result.str(0);
    return true;
}

Json
SimulationService::runTraceResult(const Request &req, std::string &err)
{
    std::vector<TraceSourcePtr> traces;
    std::uint64_t shortest = kMaxRecords;
    for (const auto &path : req.tracePaths) {
        std::ifstream is(path, std::ios::binary);
        if (!is) {
            err = "cannot open trace '" + path + "'";
            return Json();
        }
        TraceParseResult parsed = tryReadBinaryTrace(is);
        if (!parsed.ok) {
            // Not the binary format: retry as the text form before
            // giving up, mirroring what a user would want from a
            // path they know holds a trace.
            std::ifstream text(path);
            parsed = tryReadTextTrace(text);
        }
        if (!parsed.ok) {
            err = "trace '" + path + "': " + parsed.error;
            return Json();
        }
        if (parsed.records.empty()) {
            err = "trace '" + path + "' is empty";
            return Json();
        }
        shortest = std::min(shortest,
                            std::uint64_t{parsed.records.size()});
        traces.push_back(std::make_unique<VectorTraceSource>(
            path, std::move(parsed.records)));
    }

    const std::uint64_t records = requestRecords(req, shortest);
    const HierarchyConfig hier = requestHierarchy(req);
    System sys(hier, makePolicy(req.policy), std::move(traces), records);
    const SystemResult res = sys.run();

    Json out = Json::object();
    out["policy"] = req.policy;
    out["records_per_core"] = records;
    out["hierarchy"] = hierarchyJson(hier);
    Json cores = Json::array();
    for (std::size_t c = 0; c < res.cores.size(); ++c) {
        Json cj = Json::object();
        cj["trace"] = req.tracePaths[c];
        cj["ipc"] = res.cores[c].ipc;
        cj["l1_miss_rate"] = res.cores[c].l1.missRate();
        cj["llc_miss_rate"] = res.cores[c].llc.missRate();
        cj["llc_accesses"] = res.cores[c].llc.accesses;
        cj["llc_misses"] = res.cores[c].llc.misses;
        cores.push(std::move(cj));
    }
    out["cores"] = std::move(cores);
    out["llc_writebacks"] = res.llcWritebacks;
    out["dram_reads"] = res.dramReads;
    out["dram_queue_cycles"] = res.dramQueueCycles;
    out["stats"] = sys.statsJson();
    return out;
}

void
SimulationService::executeBatch(const std::vector<Request> &batch,
                                const Emit &emit,
                                const EmitFrame &frame)
{
    if (batch.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(mtx);
        ++stats.batches;
        stats.batchedCells += batch.size();
        stats.maxBatch =
            std::max(stats.maxBatch, std::uint64_t{batch.size()});
    }

    // The dispatcher's grouping (sameBatch) makes a batch either one
    // tier's telemetry-free run_mix requests of one window, or one
    // exclusive request (run_trace, telemetry attachment).  Cache hits
    // and estimates answer here; exact misses fan out as jobs on the
    // window's engine and emit from their worker callbacks.
    RunEngine *engine = nullptr;
    std::vector<std::pair<std::size_t, std::string>> misses;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Request &req = batch[i];
        const Clock::time_point start = Clock::now();
        if (req.op == Op::RunTrace) {
            {
                std::lock_guard<std::mutex> lock(mtx);
                ++stats.runTrace;
            }
            std::shared_lock<std::shared_mutex> gate(gTelemetryGate);
            std::string err;
            Json result = runTraceResult(req, err);
            if (!err.empty()) {
                {
                    std::lock_guard<std::mutex> lock(mtx);
                    ++stats.failures;
                }
                emit(i, errorResponse(req, error::kBadRequest, err));
                continue;
            }
            attachServerInfo(result, false, 1, msSince(start));
            emit(i, okResponse(req, std::move(result)));
            continue;
        }
        const bool exact = req.mode == Mode::Exact;
        {
            std::lock_guard<std::mutex> lock(mtx);
            ++stats.runMix;
            stats.estimates += !exact;
            stats.telemetryRuns += req.telemetry != 0;
        }
        if (req.telemetry != 0) {
            // Exclusive execution: the sampling interval and the
            // TelemetryHub are process-wide, so nothing else may build
            // Systems while it runs — guaranteed by the exclusive
            // telemetry gate across every service plus the serial
            // dispatcher leaving this engine idle here.
            RunEngine &eng =
                engineFor(requestRecords(req, cfg.defaultRecords));
            const HierarchyConfig hier = requestHierarchy(req);
            Json result, telemetry;
            {
                std::unique_lock<std::shared_mutex> gate(gTelemetryGate);
                obs::TelemetryHub::instance().clear();
                obs::setTelemetryInterval(req.telemetry);
                result = mixResultJson(eng.runMix(req.mix, req.policy, hier),
                                       eng.recordsPerCore(), hier);
                obs::setTelemetryInterval(0);
                telemetry = obs::TelemetryHub::instance().drainJson();
            }
            if (req.stream && frame) {
                attachServerInfo(result, false, 1, msSince(start));
                emitStream(i, req, std::move(result),
                           std::move(telemetry), emit, frame);
                continue;
            }
            result["telemetry"] = std::move(telemetry);
            attachServerInfo(result, false, 1, msSince(start));
            emit(i, okResponse(req, std::move(result)));
            continue;
        }
        if (exact && engine == nullptr)
            engine = &engineFor(requestRecords(req, cfg.defaultRecords));
        std::string key = keyOf(req);
        Json result;
        if (lookup(key, &result, nullptr)) {
            attachServerInfo(result, true, batch.size(), 0.0);
        } else if (!exact) {
            // Cold workload profiles are built here: Systems, hence
            // the shared gate.
            std::shared_lock<std::shared_mutex> gate(gTelemetryGate);
            result = estimate(req, key, /*build_profiles=*/true,
                              batch.size());
        } else {
            misses.emplace_back(i, std::move(key));
            continue;
        }
        emit(i, okResponse(req, std::move(result)));
    }
    if (misses.empty())
        return;

    std::shared_lock<std::shared_mutex> gate(gTelemetryGate);
    const Clock::time_point start = Clock::now();
    for (auto &[i, key] : misses) {
        const Request &req = batch[i];
        const HierarchyConfig hier = requestHierarchy(req);
        engine->submitMix(
            req.mix, req.policy, hier,
            [this, &req, &emit, engine, hier, i = i, key = std::move(key),
             start, n = batch.size()](MixResult res) {
                Json result = mixResultJson(
                    res, engine->recordsPerCore(), hier);
                cacheStore(key, result);
                attachServerInfo(result, false, n, msSince(start));
                emit(i, okResponse(req, std::move(result)));
            });
    }
    engine->waitIdle();
}

void
SimulationService::emitStream(std::size_t i, const Request &req,
                              Json result, Json telemetry,
                              const Emit &emit, const EmitFrame &frame)
{
    std::uint64_t seq = 0;
    Json head = streamFrame(req, seq++, false);
    head["result"] = std::move(result);
    frame(i, std::move(head));

    // Chunk the telemetry series into bounded frames so no single
    // response line grows with the run length: each frame carries a
    // self-contained nucache-telemetry/v1 document holding a slice
    // of the series.
    Json pending = Json::array();
    std::size_t pendingBytes = 0;
    auto flush = [&] {
        if (pending.size() == 0)
            return;
        Json doc = Json::object();
        doc["schema"] = "nucache-telemetry/v1";
        doc["series"] = std::move(pending);
        Json f = streamFrame(req, seq++, false);
        f["telemetry"] = std::move(doc);
        frame(i, std::move(f));
        pending = Json::array();
        pendingBytes = 0;
    };
    if (const Json *series = telemetry.find("series");
        series != nullptr && series->isArray()) {
        for (const Json &s : series->elements()) {
            const std::size_t bytes = s.str(0).size();
            if (pending.size() != 0 &&
                pendingBytes + bytes > kStreamChunkBytes)
                flush();
            pending.push(s);
            pendingBytes += bytes;
        }
    }
    flush();
    emit(i, streamFrame(req, seq, true));
    {
        std::lock_guard<std::mutex> lock(mtx);
        ++stats.streamedRuns;
        stats.streamFrames += seq + 1;
    }
}

void
SimulationService::attachServerInfo(Json &result, bool cached,
                                    std::size_t batch_size,
                                    double wall_ms)
{
    Json s = Json::object();
    s["cached"] = cached;
    s["batch_size"] = std::uint64_t{batch_size};
    s["wall_ms"] = wall_ms;
    std::uint64_t alone = 0;
    {
        std::lock_guard<std::mutex> lock(mtx);
        for (const auto &[records, engine] : engines) {
            (void)records;
            alone += engine->aloneRunCount();
        }
    }
    s["alone_runs"] = alone;
    s["arena_materializations"] =
        TraceArena::instance().materializations();
    result["server"] = std::move(s);
}

Json
SimulationService::statsJson() const
{
    std::lock_guard<std::mutex> lock(mtx);
    Json s = Json::object();
    s["run_mix"] = stats.runMix;
    s["run_trace"] = stats.runTrace;
    s["cache_hits"] = stats.cacheHits;
    s["cache_misses"] = stats.cacheMisses;
    s["cache_entries"] = std::uint64_t{cache.size()};
    s["batches"] = stats.batches;
    s["batched_cells"] = stats.batchedCells;
    s["max_batch"] = stats.maxBatch;
    s["telemetry_runs"] = stats.telemetryRuns;
    s["estimates"] = stats.estimates;
    s["estimates_inline"] = stats.estimatesInline;
    s["profiles_built"] = model::ProfileStore::instance().built();
    s["streamed_runs"] = stats.streamedRuns;
    s["stream_frames"] = stats.streamFrames;
    s["engines"] = std::uint64_t{engines.size()};
    s["engine_hits"] = stats.engineHits;
    s["engines_built"] = stats.enginesBuilt;
    s["engines_evicted"] = stats.enginesEvicted;
    s["failures"] = stats.failures;
    std::uint64_t alone = 0;
    for (const auto &[records, engine] : engines) {
        (void)records;
        alone += engine->aloneRunCount();
    }
    s["alone_runs"] = alone;
    s["arena_materializations"] =
        TraceArena::instance().materializations();
    s["arena_records"] = TraceArena::instance().recordsGenerated();
    s["private_records"] = TraceArena::instance().privateRecordsGenerated();
    s["jobs"] = cfg.jobs;
    s["default_records"] = cfg.defaultRecords;
    return s;
}

} // namespace nucache::serve
