/**
 * @file
 * nucache_report: offline viewer for the observability artifacts the
 * benches emit — bench results (nucache-bench/v1), telemetry
 * time-series (nucache-telemetry/v1), run_trace stat dumps
 * (nucache-run/v1), server metrics scrapes (nucache-metrics/v1, as
 * written by `nucache_client --metrics`) and Chrome trace_event
 * timelines.
 *
 * Modes:
 *   nucache_report FILE...
 *       Summarize each file (type auto-detected): grid geomeans and
 *       throughput tables for bench docs, per-series probe tables
 *       with sparkline time-series for telemetry, span counts by
 *       category for traces.
 *   nucache_report --check FILE...
 *       Validate each file against its schema; exit 1 on the first
 *       malformed document (CI gate for emitted artifacts).
 *   nucache_report --diff OLD NEW [--threshold=0.05]
 *       Compare two BENCH_throughput.json snapshots cell by cell and
 *       fail (exit 2) when the LRU lookup throughput, normalized by
 *       each run's own calibration loop, regressed by more than the
 *       threshold fraction; when PIPP or NUcache in NEW runs
 *       below its kPolicyFloors fraction of its own lru at
 *       kFloorGeometry (1MiB-16w); when NEW's
 *       private-level log runs below kMinPrivateMemoRatio of its own
 *       live private caches; or when two estimate_tier sweeps of one
 *       model version and window disagree on any est_* value.
 *   --series=SUBSTR limits telemetry detail to matching labels.
 */

#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/chart.hh"
#include "common/cli.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"

namespace
{

using namespace nucache;

std::string
readFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot read '", path, "'");
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

enum class DocType
{
    Bench,
    Telemetry,
    RunStats,
    Metrics,
    Trace,
    Unknown
};

DocType
docTypeOf(const Json &doc)
{
    if (!doc.isObject())
        return DocType::Unknown;
    if (const Json *schema = doc.find("schema"); schema != nullptr &&
        schema->isString()) {
        const std::string &s = schema->asString();
        if (s == "nucache-bench/v1")
            return DocType::Bench;
        if (s == "nucache-telemetry/v1")
            return DocType::Telemetry;
        if (s == "nucache-run/v1")
            return DocType::RunStats;
        if (s == "nucache-metrics/v1")
            return DocType::Metrics;
    }
    if (const Json *ev = doc.find("traceEvents");
        ev != nullptr && ev->isArray()) {
        return DocType::Trace;
    }
    return DocType::Unknown;
}

const char *
docTypeName(DocType t)
{
    switch (t) {
      case DocType::Bench:
        return "bench results";
      case DocType::Telemetry:
        return "telemetry";
      case DocType::RunStats:
        return "run stats";
      case DocType::Metrics:
        return "server metrics";
      case DocType::Trace:
        return "trace_event timeline";
      default:
        return "unknown";
    }
}

// ---------------------------------------------------------------- check

/** Append "path: why" to @p errs when @p ok is false. */
bool
require(bool ok, const std::string &why, std::vector<std::string> &errs)
{
    if (!ok)
        errs.push_back(why);
    return ok;
}

/**
 * Validate an estimate_tier calibration section: every policy row
 * must carry its committed error bound and a measured error at or
 * under it, and the latency block must be present.  This is the
 * nightly gate that keeps the committed BENCH_throughput.json honest
 * — a sweep whose errors burst their bounds fails --check even if
 * the producing bench was not re-run.
 */
void
checkEstimateTier(const Json &s, const std::string &where,
                  std::vector<std::string> &errs)
{
    const Json *pols = s.find("policies");
    if (!require(pols != nullptr && pols->isArray(),
                 where + " lacks a policies array", errs))
        return;
    for (std::size_t i = 0; i < pols->size(); ++i) {
        const Json &p = pols->at(i);
        const std::string pwhere =
            where + " policy " + std::to_string(i);
        if (!require(p.isObject(), pwhere + " is not an object", errs))
            continue;
        const Json *bound = p.find("error_bound_abs_hit_rate");
        const Json *err = p.find("max_abs_hit_rate_error");
        if (!require(bound != nullptr && bound->isNumber(),
                     pwhere + " lacks its committed error bound",
                     errs) ||
            !require(err != nullptr && err->isNumber(),
                     pwhere + " lacks a measured max error", errs)) {
            continue;
        }
        require(err->asDouble() <= bound->asDouble(),
                pwhere + " error " +
                    std::to_string(err->asDouble()) +
                    " exceeds its bound " +
                    std::to_string(bound->asDouble()),
                errs);
    }
    const Json *lat = s.find("latency");
    require(lat != nullptr && lat->isObject() &&
                lat->find("p50_us") != nullptr,
            where + " lacks a latency block with p50_us", errs);
}

/**
 * Validate an attack_suite section: every replay cell must carry the
 * attack-rate metrics, and the committed gate must have passed — a
 * defended rate at or above the plain one fails --check even when
 * the producing bench was not re-run.
 */
void
checkAttackSuite(const Json &s, const std::string &where,
                 std::vector<std::string> &errs)
{
    const Json *cells = s.find("cells");
    if (!require(cells != nullptr && cells->isArray() &&
                     cells->size() > 0,
                 where + " lacks a non-empty cells array", errs))
        return;
    for (std::size_t i = 0; i < cells->size(); ++i) {
        const Json &c = cells->at(i);
        const std::string cwhere =
            where + " cell " + std::to_string(i);
        if (!require(c.isObject(), cwhere + " is not an object", errs))
            continue;
        for (const char *key : {"scenario", "defense", "policy"}) {
            require(c.find(key) != nullptr && c.at(key).isString(),
                    cwhere + " lacks string '" + key + "'", errs);
        }
        for (const char *key :
             {"accesses", "rounds", "evictions",
              "evictions_per_1k_accesses"}) {
            require(c.find(key) != nullptr && c.at(key).isNumber(),
                    cwhere + " lacks numeric '" + key + "'", errs);
        }
    }
    const Json *gate = s.find("gate");
    if (!require(gate != nullptr && gate->isObject(),
                 where + " lacks a gate object", errs))
        return;
    const Json *plain = gate->find("plain");
    const Json *defended = gate->find("rand_dynamic");
    const Json *pass = gate->find("pass");
    if (!require(plain != nullptr && plain->isNumber() &&
                     defended != nullptr && defended->isNumber() &&
                     pass != nullptr && pass->isBool(),
                 where + " gate lacks plain/rand_dynamic/pass", errs))
        return;
    require(pass->asBool(),
            where + " gate did not pass when produced", errs);
    require(defended->asDouble() < plain->asDouble(),
            where + " defended attack rate " +
                std::to_string(defended->asDouble()) +
                " is not below the plain rate " +
                std::to_string(plain->asDouble()),
            errs);
}

void
checkBench(const Json &doc, std::vector<std::string> &errs)
{
    const Json *sections = doc.find("sections");
    if (!require(sections != nullptr && sections->isArray(),
                 "missing sections array", errs))
        return;
    for (std::size_t i = 0; i < sections->size(); ++i) {
        const Json &s = sections->at(i);
        const std::string where = "section " + std::to_string(i);
        require(s.isObject(), where + " is not an object", errs);
        if (!s.isObject())
            continue;
        const Json *label = s.find("label");
        require(label != nullptr && label->isString(),
                where + " lacks a string label", errs);
        const Json *kind = s.find("kind");
        require(kind != nullptr && kind->isString(),
                where + " lacks a string kind", errs);
        if (kind != nullptr && kind->isString() &&
            kind->asString() == "estimate_tier") {
            checkEstimateTier(s, where, errs);
        }
        if (kind != nullptr && kind->isString() &&
            kind->asString() == "attack_suite") {
            checkAttackSuite(s, where, errs);
        }
    }
}

void
checkTelemetry(const Json &doc, std::vector<std::string> &errs)
{
    const Json *series = doc.find("series");
    if (!require(series != nullptr && series->isArray(),
                 "missing series array", errs))
        return;
    for (std::size_t i = 0; i < series->size(); ++i) {
        const Json &s = series->at(i);
        const std::string where = "series " + std::to_string(i);
        if (!require(s.isObject(), where + " is not an object", errs))
            continue;
        const Json *label = s.find("label");
        require(label != nullptr && label->isString(),
                where + " lacks a string label", errs);
        const Json *interval = s.find("interval");
        require(interval != nullptr && interval->isNumber(),
                where + " lacks a numeric interval", errs);
        const Json *rows = s.find("rows");
        const Json *at = s.find("llc_accesses");
        const Json *probes = s.find("probes");
        if (!require(rows != nullptr && rows->isNumber(),
                     where + " lacks a numeric rows count", errs) ||
            !require(at != nullptr && at->isArray(),
                     where + " lacks an llc_accesses array", errs) ||
            !require(probes != nullptr && probes->isObject(),
                     where + " lacks a probes object", errs)) {
            continue;
        }
        const std::uint64_t n = rows->asUint();
        require(at->size() == n,
                where + " llc_accesses length != rows", errs);
        for (const auto &kv : probes->members()) {
            require(kv.second.isArray() && kv.second.size() == n,
                    where + " probe '" + kv.first +
                        "' column length != rows",
                    errs);
        }
    }
}

void
checkTrace(const Json &doc, std::vector<std::string> &errs)
{
    const Json &events = doc.at("traceEvents");
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Json &e = events.at(i);
        const std::string where = "event " + std::to_string(i);
        if (!require(e.isObject(), where + " is not an object", errs))
            continue;
        // The keys chrome://tracing / Perfetto require on every record.
        for (const char *key : {"name", "ph", "ts", "pid", "tid"}) {
            require(e.find(key) != nullptr,
                    where + " lacks required key '" + key + "'", errs);
        }
        if (errs.size() > 8)
            return; // enough evidence; don't spam thousands of lines
    }
}

void
checkRunStats(const Json &doc, std::vector<std::string> &errs)
{
    const Json *stats = doc.find("stats");
    require(stats != nullptr && stats->isObject(),
            "missing stats object", errs);
}

/** Validate one nucache-metrics/v1 histogram block. */
void
checkHistogram(const Json &hist, const std::string &where,
               std::vector<std::string> &errs)
{
    if (!require(hist.isObject(), where + " is not an object", errs))
        return;
    const Json *count = hist.find("count");
    const Json *sum = hist.find("sum_us");
    require(count != nullptr && count->isNumber(),
            where + " lacks a numeric count", errs);
    require(sum != nullptr && sum->isNumber(),
            where + " lacks a numeric sum_us", errs);
    if (const Json *buckets = hist.find("buckets")) {
        if (!require(buckets->isArray(),
                     where + " buckets is not an array", errs))
            return;
        std::uint64_t total = 0;
        for (const Json &row : buckets->elements()) {
            const Json *le = row.find("le_us");
            const Json *c = row.find("count");
            if (!require(le != nullptr && le->isNumber() &&
                             c != nullptr && c->isNumber(),
                         where + " has a malformed bucket row", errs))
                return;
            total += c->asUint();
        }
        if (const Json *overflow = hist.find("overflow");
            overflow != nullptr && overflow->isNumber())
            total += overflow->asUint();
        require(count == nullptr || total == count->asUint(),
                where + " bucket counts do not sum to count", errs);
    }
}

void
checkMetrics(const Json &doc, std::vector<std::string> &errs)
{
    const Json *server = doc.find("server");
    if (require(server != nullptr && server->isObject(),
                "missing server object", errs)) {
        for (const char *key :
             {"uptime_ms", "connections", "accepted", "requests",
              "responses", "slow_clients", "outbound_bytes",
              "outbound_hwm_bytes", "serve_shards"}) {
            const Json *v = server->find(key);
            require(v != nullptr && v->isNumber(),
                    std::string("server lacks numeric '") + key + "'",
                    errs);
        }
    }
    const Json *process = doc.find("process");
    require(process != nullptr && process->isObject() &&
                process->find("rss_bytes") != nullptr,
            "missing process block with rss_bytes", errs);
    const Json *requests = doc.find("requests");
    if (require(requests != nullptr && requests->isObject(),
                "missing requests histogram object", errs)) {
        for (const auto &[cls, hist] : requests->members())
            checkHistogram(hist, "requests." + cls, errs);
    }
    const Json *phases = doc.find("phases");
    if (require(phases != nullptr && phases->isObject(),
                "missing phases histogram object", errs)) {
        for (const char *key : {"queue_wait", "execute", "flush"}) {
            const Json *h = phases->find(key);
            if (require(h != nullptr,
                        std::string("phases lacks '") + key + "'",
                        errs))
                checkHistogram(*h, std::string("phases.") + key, errs);
        }
    }
    const Json *shards = doc.find("shards");
    if (require(shards != nullptr && shards->isArray() &&
                    shards->size() != 0,
                "missing non-empty shards array", errs)) {
        for (std::size_t i = 0; i < shards->size(); ++i) {
            const Json &s = shards->at(i);
            const std::string where = "shard " + std::to_string(i);
            if (!require(s.isObject(), where + " is not an object",
                         errs))
                continue;
            for (const char *key :
                 {"shard", "queue_len", "queue_depth_hwm",
                  "dispatched"}) {
                const Json *v = s.find(key);
                require(v != nullptr && v->isNumber(),
                        where + " lacks numeric '" + key + "'", errs);
            }
        }
    }
    const Json *cache = doc.find("cache");
    if (require(cache != nullptr && cache->isObject(),
                "missing cache block", errs)) {
        for (const char *key :
             {"result_hits", "result_misses", "engines_built"}) {
            const Json *v = cache->find(key);
            require(v != nullptr && v->isNumber(),
                    std::string("cache lacks numeric '") + key + "'",
                    errs);
        }
    }
    const Json *slow = doc.find("slow_requests");
    require(slow != nullptr && slow->isArray(),
            "missing slow_requests array", errs);
}

int
checkFiles(const std::vector<std::string> &paths)
{
    int bad = 0;
    for (const auto &path : paths) {
        Json doc;
        std::string err;
        if (!Json::parse(readFile(path), doc, err)) {
            std::cout << path << ": FAIL (" << err << ")\n";
            ++bad;
            continue;
        }
        const DocType type = docTypeOf(doc);
        std::vector<std::string> errs;
        switch (type) {
          case DocType::Bench:
            checkBench(doc, errs);
            break;
          case DocType::Telemetry:
            checkTelemetry(doc, errs);
            break;
          case DocType::Trace:
            checkTrace(doc, errs);
            break;
          case DocType::RunStats:
            checkRunStats(doc, errs);
            break;
          case DocType::Metrics:
            checkMetrics(doc, errs);
            break;
          default:
            errs.push_back("unrecognized document schema");
            break;
        }
        if (errs.empty()) {
            std::cout << path << ": OK (" << docTypeName(type) << ")\n";
        } else {
            ++bad;
            std::cout << path << ": FAIL (" << docTypeName(type)
                      << ")\n";
            for (const auto &e : errs)
                std::cout << "  - " << e << "\n";
        }
    }
    return bad == 0 ? 0 : 1;
}

// ------------------------------------------------------------- summarize

void
summarizeBench(const Json &doc)
{
    if (const Json *fig = doc.find("figure"))
        std::cout << "figure: " << fig->asString() << "\n";
    if (const Json *rec = doc.find("records_per_core"))
        std::cout << "records/core: " << rec->asUint() << "\n";
    const Json *sections = doc.find("sections");
    if (sections == nullptr)
        return;
    for (const Json &s : sections->elements()) {
        const std::string kind =
            s.find("kind") != nullptr ? s.at("kind").asString() : "?";
        const std::string label =
            s.find("label") != nullptr ? s.at("label").asString() : "?";
        std::cout << "\n[" << label << "] (" << kind << ")\n";
        if (kind == "policy_grid" &&
            s.find("geomean_norm_ws") != nullptr) {
            TextTable t;
            t.header({"policy", "geomean_norm_ws"});
            BarChart chart(48, 1.0);
            for (const auto &kv : s.at("geomean_norm_ws").members()) {
                t.row().cell(kv.first).cell(kv.second.asDouble());
                chart.add(kv.first, kv.second.asDouble());
            }
            t.print(std::cout);
            chart.print(std::cout);
        } else if (kind == "throughput" && s.find("cells") != nullptr) {
            TextTable t;
            t.header({"policy", "geometry", "Macc/s", "hit_rate"});
            for (const Json &c : s.at("cells").elements()) {
                t.row()
                    .cell(c.at("policy").asString())
                    .cell(c.at("geometry").asString())
                    .cell(c.at("accesses_per_sec").asDouble() / 1e6)
                    .cell(c.at("hit_rate").asDouble());
            }
            t.print(std::cout);
        } else if (kind == "estimate_tier" &&
                   s.find("policies") != nullptr) {
            TextTable t;
            t.header({"policy", "max|dhit|", "mean|dhit|", "bound"});
            for (const Json &p : s.at("policies").elements()) {
                t.row()
                    .cell(p.at("policy").asString())
                    .cell(p.at("max_abs_hit_rate_error").asDouble())
                    .cell(p.at("mean_abs_hit_rate_error").asDouble())
                    .cell(
                        p.at("error_bound_abs_hit_rate").asDouble());
            }
            t.print(std::cout);
            if (const Json *lat = s.find("latency")) {
                std::cout << "model eval latency us: p50 "
                          << lat->at("p50_us").asDouble() << ", p90 "
                          << lat->at("p90_us").asDouble() << ", max "
                          << lat->at("max_us").asDouble() << " over "
                          << lat->at("evals").asUint() << " evals\n";
                if (const Json *byCores = lat->find("by_cores")) {
                    for (const Json &row : byCores->elements()) {
                        std::cout << "  " << row.at("cores").asUint()
                                  << "-core p50 "
                                  << row.at("p50_us").asDouble()
                                  << " us over "
                                  << row.at("evals").asUint()
                                  << " evals\n";
                    }
                }
            }
        } else if (kind == "attack_suite" &&
                   s.find("cells") != nullptr) {
            TextTable t;
            t.header({"scenario", "defense", "policy",
                      "evic/1k_acc", "round_rate"});
            for (const Json &c : s.at("cells").elements()) {
                t.row()
                    .cell(c.at("scenario").asString())
                    .cell(c.at("defense").asString())
                    .cell(c.at("policy").asString())
                    .cell(
                        c.at("evictions_per_1k_accesses").asDouble())
                    .cell(c.at("round_rate").asDouble());
            }
            t.print(std::cout);
            if (const Json *gate = s.find("gate")) {
                std::cout << "gate (" << gate->at("metric").asString()
                          << "): plain "
                          << gate->at("plain").asDouble()
                          << ", rand-dynamic "
                          << gate->at("rand_dynamic").asDouble()
                          << (gate->at("pass").asBool() ? " — pass\n"
                                                        : " — FAIL\n");
            }
        } else if (kind == "lookups_per_sec") {
            std::cout << "lookups/sec: "
                      << static_cast<std::uint64_t>(
                             s.at("lookups_per_sec").asDouble())
                      << "\n";
        } else if (kind == "records_per_sec" &&
                   s.find("log_live_ratio") != nullptr) {
            std::cout << "records/sec: log "
                      << static_cast<std::uint64_t>(
                             s.at("log_records_per_sec").asDouble())
                      << ", live "
                      << static_cast<std::uint64_t>(
                             s.at("live_records_per_sec").asDouble())
                      << ", ratio " << s.at("log_live_ratio").asDouble()
                      << "\n";
        } else if (s.find("cells") != nullptr) {
            std::cout << s.at("cells").size() << " cells\n";
        }
    }
}

void
summarizeTelemetry(const Json &doc, const std::string &series_filter)
{
    const Json &series = doc.at("series");
    std::cout << series.size() << " series\n\n";
    TextTable index;
    index.header({"label", "rows", "interval", "probes"});
    for (const Json &s : series.elements()) {
        index.row()
            .cell(s.at("label").asString())
            .cell(s.at("rows").asUint())
            .cell(s.at("interval").asUint())
            .cell(std::uint64_t{s.at("probes").size()});
    }
    index.print(std::cout);

    for (const Json &s : series.elements()) {
        const std::string &label = s.at("label").asString();
        const bool selected =
            !series_filter.empty() &&
            label.find(series_filter) != std::string::npos;
        // Detail every series when there are few; otherwise only the
        // --series selection (73 series x 12 probes is not a summary).
        if (!selected && (series.size() > 4 || !series_filter.empty()))
            continue;
        std::cout << "\n" << label << " (every "
                  << s.at("interval").asUint() << " LLC accesses, "
                  << s.at("rows").asUint() << " rows)\n";
        TextTable t;
        t.header({"probe", "last", "series"});
        for (const auto &kv : s.at("probes").members()) {
            std::vector<double> vals;
            vals.reserve(kv.second.size());
            for (const Json &v : kv.second.elements())
                vals.push_back(v.asDouble());
            t.row()
                .cell(kv.first)
                .cell(vals.empty() ? 0.0 : vals.back())
                .cell(sparkline(vals, 32));
        }
        t.print(std::cout);
    }
}

void
summarizeTrace(const Json &doc)
{
    const Json &events = doc.at("traceEvents");
    std::map<std::string, std::pair<std::uint64_t, double>> byCat;
    double maxTs = 0.0;
    for (const Json &e : events.elements()) {
        const Json *cat = e.find("cat");
        const std::string c =
            cat != nullptr ? cat->asString() : "(none)";
        auto &slot = byCat[c];
        ++slot.first;
        if (const Json *dur = e.find("dur"))
            slot.second += dur->asDouble();
        maxTs = std::max(maxTs, e.at("ts").asDouble());
    }
    std::cout << events.size() << " events over " << maxTs / 1e6
              << " s\n\n";
    TextTable t;
    t.header({"category", "events", "total_s"});
    for (const auto &kv : byCat) {
        t.row()
            .cell(kv.first)
            .cell(kv.second.first)
            .cell(kv.second.second / 1e6);
    }
    t.print(std::cout);
}

void
summarizeRunStats(const Json &doc)
{
    if (const Json *policy = doc.find("policy"))
        std::cout << "policy: " << policy->asString() << "\n";
    if (const Json *rec = doc.find("records_per_core"))
        std::cout << "records/core: " << rec->asUint() << "\n";
    const Json &stats = doc.at("stats");
    TextTable t;
    t.header({"group", "stat", "value"});
    for (const auto &group : stats.members()) {
        for (const auto &kv : group.second.members()) {
            t.row().cell(group.first).cell(kv.first).cell(
                kv.second.asDouble());
        }
    }
    t.print(std::cout);
}

void
summarizeMetrics(const Json &doc)
{
    if (const Json *server = doc.find("server");
        server != nullptr && server->isObject()) {
        TextTable t;
        t.header({"counter", "value"});
        for (const auto &kv : server->members()) {
            if (kv.second.isNumber())
                t.row().cell(kv.first).cell(kv.second.asDouble());
        }
        t.print(std::cout);
    }
    if (const Json *requests = doc.find("requests");
        requests != nullptr && requests->isObject()) {
        std::cout << "\nrequest latency by class (us)\n";
        TextTable t;
        t.header({"class", "count", "p50", "p90", "p99"});
        for (const auto &[cls, hist] : requests->members()) {
            const Json *count = hist.find("count");
            if (count == nullptr || count->asUint() == 0)
                continue;
            auto q = [&](const char *key) {
                const Json *v = hist.find(key);
                return v != nullptr ? v->asDouble() : 0.0;
            };
            t.row()
                .cell(cls)
                .cell(count->asUint())
                .cell(q("p50_us"))
                .cell(q("p90_us"))
                .cell(q("p99_us"));
        }
        t.print(std::cout);
    }
    if (const Json *shards = doc.find("shards");
        shards != nullptr && shards->isArray()) {
        std::cout << "\ndispatcher\n";
        TextTable t;
        t.header({"shard", "queue", "hwm", "dispatched",
                  "last_batch"});
        for (const Json &s : shards->elements()) {
            auto n = [&](const char *key) {
                const Json *v = s.find(key);
                return v != nullptr ? v->asUint() : std::uint64_t{0};
            };
            t.row()
                .cell(n("shard"))
                .cell(n("queue_len"))
                .cell(n("queue_depth_hwm"))
                .cell(n("dispatched"))
                .cell(n("last_batch"));
        }
        t.print(std::cout);
    }
    if (const Json *slow = doc.find("slow_requests");
        slow != nullptr && slow->isArray() && slow->size() != 0) {
        std::cout << "\nslowest requests (us)\n";
        TextTable t;
        t.header({"class", "total", "queue", "execute", "flush"});
        for (const Json &e : slow->elements()) {
            auto n = [&](const char *key) {
                const Json *v = e.find(key);
                return v != nullptr ? v->asUint() : std::uint64_t{0};
            };
            const Json *cls = e.find("class");
            t.row()
                .cell(cls != nullptr ? cls->asString() : "?")
                .cell(n("total_us"))
                .cell(n("queue_us"))
                .cell(n("execute_us"))
                .cell(n("flush_us"));
        }
        t.print(std::cout);
    }
}

int
summarizeFiles(const std::vector<std::string> &paths,
               const std::string &series_filter)
{
    for (const auto &path : paths) {
        Json doc = Json::parseOrDie(readFile(path), path);
        const DocType type = docTypeOf(doc);
        std::cout << "== " << path << " (" << docTypeName(type)
                  << ") ==\n";
        switch (type) {
          case DocType::Bench:
            summarizeBench(doc);
            break;
          case DocType::Telemetry:
            summarizeTelemetry(doc, series_filter);
            break;
          case DocType::Trace:
            summarizeTrace(doc);
            break;
          case DocType::RunStats:
            summarizeRunStats(doc);
            break;
          case DocType::Metrics:
            summarizeMetrics(doc);
            break;
          default:
            std::cout << "unrecognized document; nothing to report\n";
            break;
        }
        std::cout << "\n";
    }
    return 0;
}

// ------------------------------------------------------------------ diff

/** LLC geometry whose same-run policy÷lru ratios gate 1 checks. */
constexpr const char *kFloorGeometry = "1MiB-16w";

/**
 * Floors on a policy's accesses/sec as a fraction of lru's at
 * kFloorGeometry, both taken from the same bench run so the runner's
 * speed cancels.  Each sits under the policy's measured ratio and
 * above the one its scan-based hooks measured (medians of five
 * interleaved --quick runs per side on one 4-thread host): pipp 0.46
 * -> 1.01 (single runs 0.36-0.71 -> 0.93-1.09), nucache 0.13 before
 * its per-set masks -> 0.69.  DIP, TADIP and UCP have no floor: their
 * scan-based ratios overlap the mask/SIMD ones on that host even as
 * medians of in-run repetitions, so no floor could fail on a return
 * to scans without also failing the current code.
 */
struct PolicyFloor
{
    const char *policy;
    double minRatio;
};
constexpr PolicyFloor kPolicyFloors[] = {
    {"pipp", 0.60},
    {"nucache", 0.30},
};

/**
 * Floor on an eight-core System run's records/sec with its private
 * levels replayed from the shared log, as a multiple of the same run
 * on live private caches, both from the same bench run: the median of
 * its interleaved trials' ratios.  Five --quick runs on a 4-thread
 * host measured medians of 1.27-1.46x from single trials of
 * 1.10-1.61x; a run that silently fell back to the live path would
 * measure about 1.0x.
 */
constexpr double kMinPrivateMemoRatio = 1.15;

/**
 * Compare the est_* values of two estimate_tier sections cell by cell
 * (matched by mix and policy).  The model is pure arithmetic over
 * profiles that are a function of (workload, window), so one model
 * version at one window must reproduce every estimate bit for bit.
 * @return false when any shared cell's est_* value differs.
 */
bool
sameEstimates(const Json &old_s, const Json &new_s)
{
    std::map<std::string, const Json *> oldCells;
    for (const Json &c : old_s.at("cells").elements())
        oldCells[c.at("mix").asString() + "/" + c.at("policy").asString()] =
            &c;
    std::size_t compared = 0, changed = 0;
    for (const Json &c : new_s.at("cells").elements()) {
        const std::string key =
            c.at("mix").asString() + "/" + c.at("policy").asString();
        const auto it = oldCells.find(key);
        if (it == oldCells.end())
            continue;
        for (const auto &[name, value] : c.members()) {
            const Json *old = it->second->find(name);
            if (name.rfind("est_", 0) != 0 || old == nullptr)
                continue;
            ++compared;
            if (old->asDouble() != value.asDouble()) {
                ++changed;
                std::cout << "estimate changed: " << key << " " << name
                          << " " << std::setprecision(17)
                          << old->asDouble() << " -> " << value.asDouble()
                          << std::setprecision(6) << "\n";
            }
        }
    }
    std::cout << "estimate_tier: " << compared << " est_* values compared, "
              << changed << " changed\n";
    return changed == 0;
}

/** @return section of @p doc with the given label, or nullptr. */
const Json *
findSection(const Json &doc, const std::string &label)
{
    const Json *sections = doc.find("sections");
    if (sections == nullptr || !sections->isArray())
        return nullptr;
    for (const Json &s : sections->elements()) {
        const Json *l = s.find("label");
        if (l != nullptr && l->isString() && l->asString() == label)
            return &s;
    }
    return nullptr;
}

int
diffBench(const std::string &old_path, const std::string &new_path,
          double threshold)
{
    const Json oldDoc =
        Json::parseOrDie(readFile(old_path), old_path);
    const Json newDoc =
        Json::parseOrDie(readFile(new_path), new_path);

    std::cout << "diff " << old_path << " -> " << new_path
              << " (threshold " << threshold * 100.0 << "%)\n\n";

    // Throughput cells, matched by (policy, geometry).
    const Json *oldTp = findSection(oldDoc, "throughput");
    const Json *newTp = findSection(newDoc, "throughput");
    if (oldTp != nullptr && newTp != nullptr) {
        std::map<std::string, double> oldCells;
        for (const Json &c : oldTp->at("cells").elements()) {
            oldCells[c.at("policy").asString() + "/" +
                     c.at("geometry").asString()] =
                c.at("accesses_per_sec").asDouble();
        }
        TextTable t;
        t.header({"cell", "old_Macc/s", "new_Macc/s", "change_%"});
        for (const Json &c : newTp->at("cells").elements()) {
            const std::string key = c.at("policy").asString() + "/" +
                c.at("geometry").asString();
            const auto it = oldCells.find(key);
            if (it == oldCells.end())
                continue;
            const double nv = c.at("accesses_per_sec").asDouble();
            const double ov = it->second;
            const double change =
                ov > 0.0 ? (nv - ov) / ov * 100.0 : 0.0;
            t.row()
                .cell(key)
                .cell(ov / 1e6)
                .cell(nv / 1e6)
                .cell(change);
        }
        t.print(std::cout);
        std::cout << "\n";
    }

    // Gate 1: the floored policies' hot paths relative to LRU's,
    // within NEW.
    int status = 0;
    if (newTp != nullptr) {
        std::map<std::string, double> rate;
        for (const Json &c : newTp->at("cells").elements()) {
            if (c.at("geometry").asString() == kFloorGeometry) {
                rate[c.at("policy").asString()] =
                    c.at("accesses_per_sec").asDouble();
            }
        }
        const double lru = rate["lru"];
        for (const PolicyFloor &f : kPolicyFloors) {
            const double rt = rate[f.policy];
            if (lru <= 0.0 || rt <= 0.0)
                continue;
            std::cout << f.policy << "/lru accesses/sec at "
                      << kFloorGeometry << ": " << rt / lru << " (floor "
                      << f.minRatio << ")\n";
            if (rt / lru < f.minRatio) {
                std::cout << "REGRESSION: " << f.policy
                          << " fell below its floor relative to lru\n";
                status = 2;
            }
        }
    }

    // Gate 2: the private-level log against live private caches,
    // within NEW.
    if (const Json *memo = findSection(newDoc, "private_memo")) {
        const double ratio = memo->at("log_live_ratio").asDouble();
        std::cout << "private_memo log/live records/sec: " << ratio
                  << " (floor " << kMinPrivateMemoRatio << ")\n";
        if (ratio < kMinPrivateMemoRatio) {
            std::cout << "REGRESSION: the private-level log fell below "
                         "the floor relative to live private caches\n";
            status = 2;
        }
    }

    // Gate 3: estimates are reproducible, so a sweep at the same model
    // version and window must match OLD's outputs exactly.
    const Json *oldEst = findSection(oldDoc, "estimate_tier");
    const Json *newEst = findSection(newDoc, "estimate_tier");
    if (oldEst != nullptr && newEst != nullptr) {
        const auto same = [&](const char *key) {
            const Json *a = oldEst->find(key);
            const Json *b = newEst->find(key);
            return a != nullptr && b != nullptr && a->str(0) == b->str(0);
        };
        if (!same("model_version") || !same("records_per_core")) {
            std::cout << "estimate_tier: model version or window "
                         "differs; estimates not compared\n";
        } else if (!sameEstimates(*oldEst, *newEst)) {
            std::cout << "REGRESSION: estimates changed at the same "
                         "model version and window\n";
            status = 2;
        }
    }

    // Gate 4: LRU lookup throughput per calibration scan, so each
    // side's host speed cancels.
    const Json *oldLook = findSection(oldDoc, "lru_lookup");
    const Json *newLook = findSection(newDoc, "lru_lookup");
    if (oldLook == nullptr || newLook == nullptr) {
        std::cout << "no lru_lookup section on both sides; "
                     "nothing to gate\n";
        return status;
    }
    if (oldLook->find("normalized") == nullptr ||
        newLook->find("normalized") == nullptr) {
        std::cout << "REGRESSION: an lru_lookup section lacks its "
                     "calibration-normalized figure\n";
        return 2;
    }
    const double ov = oldLook->at("normalized").asDouble();
    const double nv = newLook->at("normalized").asDouble();
    const double change = ov > 0.0 ? (nv - ov) / ov : 0.0;
    std::cout << "lru_lookup lookups/sec: "
              << static_cast<std::uint64_t>(
                     oldLook->at("lookups_per_sec").asDouble())
              << " -> "
              << static_cast<std::uint64_t>(
                     newLook->at("lookups_per_sec").asDouble())
              << "; per calibration scan: " << ov << " -> " << nv << " ("
              << (change >= 0 ? "+" : "") << change * 100.0 << "%)\n";
    if (change < -threshold) {
        std::cout << "REGRESSION: normalized lookup throughput dropped "
                     "more than "
                  << threshold * 100.0 << "%\n";
        return 2;
    }
    if (status == 0)
        std::cout << "OK\n";
    return status;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv, {"check"});
    const std::vector<std::string> &files = args.positional();

    if (args.has("diff")) {
        // --diff OLD NEW: OLD is the flag value in "--diff OLD NEW"
        // form, or the first positional in "--diff=OLD NEW" form.
        std::vector<std::string> sides;
        const std::string attached = args.get("diff", "");
        if (!attached.empty())
            sides.push_back(attached);
        sides.insert(sides.end(), files.begin(), files.end());
        if (sides.size() != 2)
            fatal("--diff needs exactly two files, got ",
                  sides.size());
        return diffBench(sides[0], sides[1],
                         args.getDouble("threshold", 0.05));
    }

    if (files.empty()) {
        std::cerr
            << "usage: nucache_report [--check] [--series=SUBSTR] "
               "FILE...\n"
               "       nucache_report --diff OLD NEW "
               "[--threshold=0.05]\n";
        return 1;
    }

    if (args.has("check"))
        return checkFiles(files);
    return summarizeFiles(files, args.get("series", ""));
}
