#include "serve/server_metrics.hh"

#include <cstdio>
#include <string>

#include "obs/tracer.hh"

namespace nucache::serve
{

namespace
{

using Clock = ReqTrace::Clock;

/** @return ns from @p a to @p b, 0 when out of order or unset. */
std::uint64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    if (a == Clock::time_point{} || b <= a)
        return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count());
}

/**
 * Emit one complete Tracer span for a phase that ended @p end_ago_ns
 * before the tracer's current instant @p now_ns and lasted
 * @p dur_ns.  Skipped when the phase predates the tracer epoch.
 */
void
traceSpan(const char *name, std::uint64_t now_ns,
          std::uint64_t end_ago_ns, std::uint64_t dur_ns)
{
    if (dur_ns == 0 || end_ago_ns + dur_ns > now_ns)
        return;
    obs::Tracer::instance().complete(name, "serve",
                                     now_ns - end_ago_ns - dur_ns,
                                     dur_ns);
}

} // anonymous namespace

const char *
requestClassName(RequestClass cls)
{
    switch (cls) {
      case RequestClass::CacheHit:
        return "cache_hit";
      case RequestClass::EstimateInline:
        return "estimate_inline";
      case RequestClass::Exact:
        return "exact";
      case RequestClass::Estimate:
        return "estimate";
      case RequestClass::Trace:
        return "trace";
      case RequestClass::Control:
        return "control";
      case RequestClass::Error:
        return "error";
      case RequestClass::Count:
        break;
    }
    return "?";
}

void
SlowRequestLog::offer(const Entry &entry)
{
    // Fast reject: once the log is full, anything quicker than the
    // slowest retained entry cannot place.  Relaxed is fine — a
    // stale floor only costs one harmless mutex round trip.
    if (entry.totalNs <= floorNs.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(mtx);
    auto it = entries.begin();
    while (it != entries.end() && it->totalNs >= entry.totalNs)
        ++it;
    entries.insert(it, entry);
    if (entries.size() > kCapacity)
        entries.pop_back();
    if (entries.size() == kCapacity)
        floorNs.store(entries.back().totalNs,
                      std::memory_order_relaxed);
}

Json
SlowRequestLog::json() const
{
    Json rows = Json::array();
    std::lock_guard<std::mutex> lock(mtx);
    for (const Entry &e : entries) {
        Json row = Json::object();
        row["class"] = requestClassName(e.cls);
        row["total_us"] = e.totalNs / 1000;
        row["queue_us"] = e.queueNs / 1000;
        row["execute_us"] = e.executeNs / 1000;
        row["flush_us"] = e.flushNs / 1000;
        rows.push(std::move(row));
    }
    return rows;
}

void
ServerMetrics::finalize(const ReqTrace &trace,
                        ReqTrace::Clock::time_point flushed)
{
    if (!trace.live)
        return;
    const std::uint64_t totalNs = nsBetween(trace.parsed, flushed);
    classTotalUs[static_cast<std::size_t>(trace.cls)].recordNs(
        totalNs);

    std::uint64_t queueNs = 0, execNs = 0, flushNs = 0;
    if (trace.dispatched != Clock::time_point{}) {
        queueNs = nsBetween(trace.enqueued, trace.dispatched);
        queueWaitUs.recordNs(queueNs);
    }
    if (trace.executed != Clock::time_point{}) {
        const Clock::time_point from =
            trace.dispatched != Clock::time_point{} ? trace.dispatched
                                                    : trace.parsed;
        execNs = nsBetween(from, trace.executed);
        executeUs.recordNs(execNs);
    }
    if (trace.queued != Clock::time_point{}) {
        flushNs = nsBetween(trace.queued, flushed);
        flushUs.recordNs(flushNs);
    }
    slowLog.offer({trace.cls, totalNs, queueNs, execNs, flushNs});

    if (obs::Tracer::active()) {
        // finalize() runs at the flush instant, so "flushed" is the
        // tracer's now and each phase's end is now minus how long
        // before the flush it completed.
        const std::uint64_t now = obs::Tracer::instance().nowNs();
        if (totalNs != 0 && totalNs <= now) {
            obs::Tracer::instance().complete(
                std::string("req ") + requestClassName(trace.cls),
                "serve", now - totalNs, totalNs);
        }
        traceSpan("queue_wait", now,
                  nsBetween(trace.dispatched, flushed), queueNs);
        traceSpan("execute", now, nsBetween(trace.executed, flushed),
                  execNs);
        traceSpan("flush", now, 0, flushNs);
    }
}

namespace
{

/** Append one `# TYPE` header line. */
void
promType(std::string &out, const char *metric, const char *type)
{
    out += "# TYPE ";
    out += metric;
    out += ' ';
    out += type;
    out += '\n';
}

/** Append one un-labelled sample line with an integral value. */
void
promSample(std::string &out, const char *metric, std::uint64_t value)
{
    out += metric;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
}

/** Render the numeric member @p key of @p block (when present) as
 *  metric @p metric of @p type. */
void
promFromBlock(std::string &out, const Json *block, const char *key,
              const char *metric, const char *type)
{
    if (block == nullptr)
        return;
    const Json *v = block->find(key);
    if (v == nullptr || !v->isNumber())
        return;
    promType(out, metric, type);
    promSample(out, metric, v->asUint());
}

/**
 * Render one nucache-metrics/v1 histogram object as a Prometheus
 * histogram with cumulative le buckets, optionally labelled
 * {@p label_key="@p label_val"}.
 */
void
promHistogram(std::string &out, const char *metric,
              const char *label_key, const std::string &label_val,
              const Json &hist)
{
    const Json *buckets = hist.find("buckets");
    const Json *count = hist.find("count");
    const Json *sum = hist.find("sum_us");
    if (buckets == nullptr || !buckets->isArray() ||
        count == nullptr || sum == nullptr)
        return;
    std::string label;
    if (label_key != nullptr) {
        label = std::string("{") + label_key + "=\"" + label_val +
                "\"";
    }
    auto line = [&](const char *suffix, const std::string &le,
                    std::uint64_t value) {
        out += metric;
        out += suffix;
        if (label_key != nullptr) {
            out += label;
            if (!le.empty())
                out += ",le=\"" + le + "\"";
            out += '}';
        } else if (!le.empty()) {
            out += "{le=\"" + le + "\"}";
        }
        out += ' ';
        out += std::to_string(value);
        out += '\n';
    };
    std::uint64_t cumulative = 0;
    for (const Json &row : buckets->elements()) {
        const Json *le = row.find("le_us");
        const Json *c = row.find("count");
        if (le == nullptr || c == nullptr)
            continue;
        cumulative += c->asUint();
        line("_bucket", std::to_string(le->asUint()), cumulative);
    }
    line("_bucket", "+Inf", count->asUint());
    line("_sum", "", sum->asUint());
    line("_count", "", count->asUint());
}

} // anonymous namespace

std::string
prometheusText(const Json &metrics)
{
    std::string out;
    out.reserve(8192);

    const Json *server = metrics.find("server");
    static const struct
    {
        const char *key;
        const char *metric;
        const char *type;
    } kServerSeries[] = {
        {"accepted", "nucache_accepted_connections_total", "counter"},
        {"rejected_connections", "nucache_rejected_connections_total",
         "counter"},
        {"requests", "nucache_requests_total", "counter"},
        {"responses", "nucache_responses_total", "counter"},
        {"bad_requests", "nucache_bad_requests_total", "counter"},
        {"too_large", "nucache_too_large_total", "counter"},
        {"overloads", "nucache_overloads_total", "counter"},
        {"deadline_expired", "nucache_deadline_expired_total",
         "counter"},
        {"rejected_shutting_down", "nucache_rejected_shutdown_total",
         "counter"},
        {"dropped_responses", "nucache_dropped_responses_total",
         "counter"},
        {"slow_clients", "nucache_slow_clients_total", "counter"},
        {"metrics_scrapes", "nucache_metrics_scrapes_total",
         "counter"},
        {"connections", "nucache_connections", "gauge"},
        {"outbound_bytes", "nucache_outbound_bytes", "gauge"},
        {"outbound_hwm_bytes", "nucache_outbound_hwm_bytes", "gauge"},
        {"serve_shards", "nucache_serve_shards", "gauge"},
    };
    for (const auto &s : kServerSeries)
        promFromBlock(out, server, s.key, s.metric, s.type);

    const Json *process = metrics.find("process");
    promFromBlock(out, process, "rss_bytes",
                  "nucache_process_rss_bytes", "gauge");
    promFromBlock(out, process, "threads", "nucache_process_threads",
                  "gauge");
    if (process != nullptr) {
        const Json *up = process->find("uptime_ms");
        if (up != nullptr && up->isNumber()) {
            promType(out, "nucache_uptime_seconds", "gauge");
            char buf[64];
            std::snprintf(buf, sizeof(buf),
                          "nucache_uptime_seconds %.3f\n",
                          up->asDouble() / 1000.0);
            out += buf;
        }
    }

    const Json *cache = metrics.find("cache");
    promFromBlock(out, cache, "result_hits",
                  "nucache_result_cache_hits_total", "counter");
    promFromBlock(out, cache, "result_misses",
                  "nucache_result_cache_misses_total", "counter");
    promFromBlock(out, cache, "engine_hits",
                  "nucache_engine_cache_hits_total", "counter");
    promFromBlock(out, cache, "engines_built",
                  "nucache_engines_built_total", "counter");
    promFromBlock(out, cache, "estimates",
                  "nucache_estimates_total", "counter");
    promFromBlock(out, cache, "exact_runs",
                  "nucache_exact_runs_total", "counter");

    if (const Json *requests = metrics.find("requests");
        requests != nullptr && requests->isObject()) {
        promType(out, "nucache_request_duration_us", "histogram");
        for (const auto &[cls, hist] : requests->members()) {
            promHistogram(out, "nucache_request_duration_us", "class",
                          cls, hist);
        }
    }
    if (const Json *phases = metrics.find("phases");
        phases != nullptr && phases->isObject()) {
        promType(out, "nucache_phase_duration_us", "histogram");
        for (const auto &[phase, hist] : phases->members()) {
            promHistogram(out, "nucache_phase_duration_us", "phase",
                          phase, hist);
        }
    }

    if (const Json *shards = metrics.find("shards");
        shards != nullptr && shards->isArray() && shards->size() != 0) {
        promType(out, "nucache_shard_queue_len", "gauge");
        promType(out, "nucache_shard_queue_depth_hwm", "gauge");
        promType(out, "nucache_shard_dispatched_total", "counter");
        for (const Json &shard : shards->elements()) {
            const Json *idx = shard.find("shard");
            if (idx == nullptr || !idx->isNumber())
                continue;
            const std::string label =
                "{shard=\"" + std::to_string(idx->asUint()) + "\"} ";
            auto gauge = [&](const char *key, const char *metric) {
                const Json *v = shard.find(key);
                if (v == nullptr || !v->isNumber())
                    return;
                out += metric;
                out += label;
                out += std::to_string(v->asUint());
                out += '\n';
            };
            gauge("queue_len", "nucache_shard_queue_len");
            gauge("queue_depth_hwm", "nucache_shard_queue_depth_hwm");
            gauge("dispatched", "nucache_shard_dispatched_total");
        }
    }
    return out;
}

} // namespace nucache::serve
