#include "serve/protocol.hh"

#include <algorithm>

#include "attack/attack.hh"
#include "common/bitutil.hh"
#include "mem/hierarchy.hh"
#include "mem/rand_index.hh"
#include "model/predictor.hh"
#include "obs/obs_mode.hh"
#include "sim/policies.hh"
#include "trace/workloads.hh"

namespace nucache::serve
{

namespace
{

/** @return the canonical mix named @p name, if any (2/4/8 cores). */
const WorkloadMix *
findCanonicalMix(const std::string &name)
{
    for (const unsigned cores : {2u, 4u, 8u}) {
        for (const auto &mix : mixesForCores(cores)) {
            if (mix.name == name)
                return &mix;
        }
    }
    return nullptr;
}

/** Read an optional unsigned member; false + err on a bad type. */
bool
readUint(const Json &obj, const std::string &key, std::uint64_t &out,
         bool &present, std::string &err)
{
    present = false;
    const Json *v = obj.find(key);
    if (v == nullptr)
        return true;
    if (!v->isNumber() || v->asDouble() < 0 ||
        v->asDouble() != static_cast<double>(v->asUint())) {
        err = "'" + key + "' must be a non-negative integer";
        return false;
    }
    out = v->asUint();
    present = true;
    return true;
}

/** The LLC geometry constraints of Cache's constructor, non-fatal. */
bool
validGeometry(const HierarchyConfig &hier, std::string &err)
{
    const auto &llc = hier.llc;
    if (llc.ways == 0 || llc.ways > 64) {
        err = "llc_ways must be in [1, 64]";
        return false;
    }
    const std::uint64_t line_bytes =
        static_cast<std::uint64_t>(llc.ways) * llc.blockSize;
    if (llc.sizeBytes == 0 || llc.sizeBytes % line_bytes != 0) {
        err = "LLC size is not a multiple of ways*block";
        return false;
    }
    const std::uint64_t sets = llc.sizeBytes / line_bytes;
    if ((sets & (sets - 1)) != 0) {
        err = "LLC set count " + std::to_string(sets) +
              " is not a power of two";
        return false;
    }
    return true;
}

/** Validate the shared run_mix / run_trace simulation knobs. */
bool
parseRunParams(const Json &params, Request &out, std::string &err)
{
    const Json *policy = params.find("policy");
    if (policy != nullptr) {
        if (!policy->isString()) {
            err = "'policy' must be a string";
            return false;
        }
        out.policy = policy->asString();
    }
    // Parsed once; every later stage (cache key, engine, estimate
    // tier, the echoed "policy") sees the canonical spelling.
    spec::Spec parsed;
    if (!parsePolicySpec(out.policy, parsed, err))
        return false;
    out.policy = parsed.canonical();

    bool present = false;
    if (!readUint(params, "records", out.records, present, err))
        return false;
    if (present && (out.records < kMinRecords ||
                    out.records > kMaxRecords)) {
        err = "'records' must be in [" + std::to_string(kMinRecords) +
              ", " + std::to_string(kMaxRecords) + "]";
        return false;
    }

    std::uint64_t ways = 0;
    if (!readUint(params, "llc_kib", out.llcKib, present, err))
        return false;
    if (present && (out.llcKib == 0 || out.llcKib > (1u << 18))) {
        err = "'llc_kib' must be in [1, 262144]";
        return false;
    }
    if (!readUint(params, "llc_ways", ways, present, err))
        return false;
    if (present) {
        if (ways == 0 || ways > 64) {
            err = "'llc_ways' must be in [1, 64]";
            return false;
        }
        out.llcWays = static_cast<std::uint32_t>(ways);
    }

    const Json *defense = params.find("llc_defense");
    if (defense != nullptr) {
        if (!defense->isString()) {
            err = "'llc_defense' must be a string";
            return false;
        }
        IndexDefenseConfig cfg;
        std::string defense_err;
        if (!tryParseIndexDefense(defense->asString(), cfg,
                                  defense_err)) {
            err = "'llc_defense': " + defense_err;
            return false;
        }
        // Canonical spec, so "rand" and "rand:key=..." with the
        // default key share one cache entry.
        out.llcDefense = cfg.enabled() ? cfg.spec() : "";
    }

    const Json *telemetry = params.find("telemetry");
    if (telemetry != nullptr) {
        if (telemetry->isBool()) {
            out.telemetry = telemetry->asBool()
                                ? obs::kDefaultTelemetryInterval
                                : 0;
        } else if (telemetry->isNumber() && telemetry->asDouble() > 0 &&
                   telemetry->asDouble() ==
                       static_cast<double>(telemetry->asUint())) {
            out.telemetry = telemetry->asUint();
        } else {
            err = "'telemetry' must be true or a positive stride";
            return false;
        }
    }

    const Json *stream = params.find("stream");
    if (stream != nullptr) {
        if (!stream->isBool()) {
            err = "'stream' must be a boolean";
            return false;
        }
        out.stream = stream->asBool();
        if (out.stream && out.telemetry == 0) {
            err = "'stream' requires 'telemetry' (streaming delivers "
                  "the telemetry document as incremental frames)";
            return false;
        }
    }

    const Json *no_cache = params.find("no_cache");
    if (no_cache != nullptr) {
        if (!no_cache->isBool()) {
            err = "'no_cache' must be a boolean";
            return false;
        }
        out.noCache = no_cache->asBool();
    }

    const Json *mode = params.find("mode");
    if (mode != nullptr) {
        if (!mode->isString() || (mode->asString() != "exact" &&
                                  mode->asString() != "estimate")) {
            err = "'mode' must be \"exact\" or \"estimate\"";
            return false;
        }
        out.mode = mode->asString() == "estimate" ? Mode::Estimate
                                                  : Mode::Exact;
    }
    if (out.mode == Mode::Estimate) {
        if (out.op == Op::RunTrace) {
            err = "'mode': 'estimate' applies to run_mix only (use "
                  "run_trace --mode=estimate client-side)";
            return false;
        }
        if (out.telemetry != 0 || out.stream) {
            err = "'mode': 'estimate' cannot attach telemetry or "
                  "stream (the model does not simulate)";
            return false;
        }
        if (!out.llcDefense.empty()) {
            err = "'mode': 'estimate' cannot apply 'llc_defense' "
                  "(the model does not simulate index randomization)";
            return false;
        }
        if (!model::estimateSupported(parsed, err))
            return false;
    }

    // The final geometry must satisfy the constraints Cache's
    // constructor and the policy's init() enforce with fatal();
    // reject here instead.
    const HierarchyConfig hier = requestHierarchy(out);
    return validGeometry(hier, err) &&
        validatePolicyForLlc(parsed, hier.llc.ways, hier.numCores, err);
}

bool
parseRunMixParams(const Json &params, Request &out, std::string &err)
{
    const Json *mix = params.find("mix");
    const Json *workloads = params.find("workloads");
    if ((mix != nullptr) == (workloads != nullptr)) {
        err = "run_mix needs exactly one of 'mix' or 'workloads'";
        return false;
    }
    if (mix != nullptr) {
        if (!mix->isString()) {
            err = "'mix' must be a string";
            return false;
        }
        const WorkloadMix *canonical = findCanonicalMix(mix->asString());
        if (canonical == nullptr) {
            err = "unknown mix '" + mix->asString() + "'";
            return false;
        }
        out.mix = *canonical;
    } else {
        if (!workloads->isArray() || workloads->size() == 0 ||
            workloads->size() > 8) {
            err = "'workloads' must list 1 to 8 workload names";
            return false;
        }
        std::string name = "adhoc";
        for (const Json &w : workloads->elements()) {
            if (!w.isString()) {
                err = "unknown workload (non-string)";
                return false;
            }
            std::string workload = w.asString();
            if (isAttackName(workload)) {
                AttackSpec attack;
                if (!tryParseAttackSpec(workload, attack, err)) {
                    err = "workload '" + workload + "': " + err;
                    return false;
                }
                workload = attack.name;
            } else if (!isWorkloadName(workload)) {
                err = "unknown workload '" + workload + "'";
                return false;
            }
            out.mix.workloads.push_back(workload);
            name += ":" + workload;
        }
        out.mix.name = name;
    }
    return parseRunParams(params, out, err);
}

bool
parseRunTraceParams(const Json &params, Request &out, std::string &err)
{
    const Json *traces = params.find("traces");
    if (traces == nullptr || !traces->isArray() || traces->size() == 0 ||
        traces->size() > 8) {
        err = "run_trace needs 'traces', a list of 1 to 8 file paths";
        return false;
    }
    for (const Json &t : traces->elements()) {
        if (!t.isString() || t.asString().empty() ||
            t.asString().size() > 4096) {
            err = "'traces' entries must be non-empty paths";
            return false;
        }
        out.tracePaths.push_back(t.asString());
    }
    return parseRunParams(params, out, err);
}

/** Member names each op accepts in "params" (strict v1 surface). */
bool
knownParamKeys(Op op, const Json &params, std::string &err)
{
    static const std::vector<std::string> shared = {
        "policy", "records", "llc_kib", "llc_ways", "llc_defense",
        "telemetry", "stream", "no_cache", "mode"};
    for (const auto &[key, value] : params.members()) {
        (void)value;
        bool known =
            op != Op::Metrics &&
            std::find(shared.begin(), shared.end(), key) != shared.end();
        if (op == Op::RunMix)
            known = known || key == "mix" || key == "workloads";
        if (op == Op::RunTrace)
            known = known || key == "traces";
        if (op == Op::Metrics)
            known = key == "format";
        if (!known) {
            err = "unknown parameter '" + key + "' for op '" +
                  opName(op) + "'";
            return false;
        }
    }
    return true;
}

Json
envelope(const Request *req)
{
    Json res = Json::object();
    res["v"] = kProtocolVersion;
    if (req != nullptr && req->hasId)
        res["id"] = req->id;
    return res;
}

} // anonymous namespace

const char *
opName(Op op)
{
    switch (op) {
      case Op::RunMix:
        return "run_mix";
      case Op::RunTrace:
        return "run_trace";
      case Op::Stats:
        return "stats";
      case Op::Metrics:
        return "metrics";
      case Op::Health:
        return "health";
      case Op::Shutdown:
        return "shutdown";
    }
    return "?";
}

bool
parseRequest(const std::string &line, Request &out, std::string &err)
{
    Json doc;
    if (!Json::parse(line, doc, err))
        return false;
    if (!doc.isObject()) {
        err = "request must be a JSON object";
        return false;
    }

    const Json *version = doc.find("v");
    if (version != nullptr && (!version->isString() ||
                               version->asString() != kProtocolVersion)) {
        err = std::string("unsupported protocol version (expected '") +
              kProtocolVersion + "')";
        return false;
    }

    Request req;
    if (!readUint(doc, "id", req.id, req.hasId, err))
        return false;

    bool present = false;
    if (!readUint(doc, "deadline_ms", req.deadlineMs, present, err))
        return false;
    if (present && req.deadlineMs > 600'000) {
        err = "'deadline_ms' must be at most 600000";
        return false;
    }

    const Json *op = doc.find("op");
    if (op == nullptr || !op->isString()) {
        err = "missing 'op'";
        return false;
    }
    const std::string &opname = op->asString();
    static const std::vector<std::pair<std::string, Op>> ops = {
        {"run_mix", Op::RunMix},     {"run_trace", Op::RunTrace},
        {"stats", Op::Stats},        {"metrics", Op::Metrics},
        {"health", Op::Health},      {"shutdown", Op::Shutdown},
    };
    const auto it =
        std::find_if(ops.begin(), ops.end(),
                     [&](const auto &o) { return o.first == opname; });
    if (it == ops.end()) {
        err = "unknown op '" + opname + "'";
        return false;
    }
    req.op = it->second;

    for (const auto &[key, value] : doc.members()) {
        (void)value;
        if (key != "v" && key != "id" && key != "op" &&
            key != "deadline_ms" && key != "params") {
            err = "unknown member '" + key + "'";
            return false;
        }
    }

    const Json *params = doc.find("params");
    if (params != nullptr && !params->isObject()) {
        err = "'params' must be an object";
        return false;
    }
    static const Json empty = Json::object();
    const Json &p = params != nullptr ? *params : empty;
    if (!knownParamKeys(req.op, p, err))
        return false;

    switch (req.op) {
      case Op::RunMix:
        if (!parseRunMixParams(p, req, err))
            return false;
        break;
      case Op::RunTrace:
        if (!parseRunTraceParams(p, req, err))
            return false;
        break;
      case Op::Metrics: {
        const Json *format = p.find("format");
        if (format != nullptr) {
            if (!format->isString() ||
                (format->asString() != "json" &&
                 format->asString() != "prometheus")) {
                err = "'format' must be \"json\" or \"prometheus\"";
                return false;
            }
            req.promFormat = format->asString() == "prometheus";
        }
        break;
      }
      case Op::Stats:
      case Op::Health:
      case Op::Shutdown:
        if (p.size() != 0) {
            err = std::string("op '") + opName(req.op) +
                  "' takes no parameters";
            return false;
        }
        break;
    }

    out = std::move(req);
    return true;
}

HierarchyConfig
requestHierarchy(const Request &req)
{
    const std::size_t cores = req.op == Op::RunTrace
                                  ? req.tracePaths.size()
                                  : req.mix.workloads.size();
    HierarchyConfig hier =
        defaultHierarchy(static_cast<unsigned>(std::max<std::size_t>(
            cores, 1)));
    if (req.llcKib != 0 || req.llcWays != 0) {
        hier.llc = CacheConfig{
            "llc",
            (req.llcKib != 0 ? req.llcKib : hier.llc.sizeBytes >> 10)
                << 10,
            req.llcWays != 0 ? req.llcWays : hier.llc.ways, 64};
    }
    // After the geometry override, which re-constructs hier.llc
    // wholesale and would reset the defense field.
    if (!req.llcDefense.empty())
        hier.llc.defense = req.llcDefense;
    return hier;
}

bool
sameBatch(const Request &a, const Request &b,
          std::uint64_t default_records)
{
    const auto batchable = [](const Request &r) {
        return r.op == Op::RunMix && r.telemetry == 0;
    };
    // Estimates never touch an engine, so they gain nothing from
    // sharing a batch with exact runs; bursts of them still drain as
    // one dispatch.
    return batchable(a) && batchable(b) && a.mode == b.mode &&
        requestRecords(a, default_records) ==
            requestRecords(b, default_records);
}

std::string
cacheKey(const Request &req, std::uint64_t default_records)
{
    if (req.op != Op::RunMix || req.telemetry != 0 || req.noCache)
        return "";
    // Every field that can change the response bytes: the mix, the
    // policy spec, the window, the tier (an estimate must never answer
    // an exact request or vice versa), then the whole simulated
    // hierarchy, into which llc_kib, llc_ways and llc_defense fold.
    // The hierarchy goes last: keys mostly differ in the request's
    // own fields, so map compares stop early.
    std::string key = req.mix.name;
    for (const auto &w : req.mix.workloads) {
        key += '+';
        key += w;
    }
    key += '|';
    key += req.policy;
    key += '|';
    key += std::to_string(requestRecords(req, default_records));
    key += req.mode == Mode::Estimate ? "|estimate|" : "|exact|";
    key += hierarchyKey(requestHierarchy(req));
    return key;
}

Json
streamFrame(const Request &req, std::uint64_t seq, bool last)
{
    Json res = envelope(&req);
    res["ok"] = true;
    Json s = Json::object();
    s["seq"] = seq;
    s["last"] = last;
    res["stream"] = std::move(s);
    return res;
}

Json
okResponse(const Request &req, Json result)
{
    Json res = envelope(&req);
    res["ok"] = true;
    res["result"] = std::move(result);
    return res;
}

Json
errorResponse(const Request &req, const std::string &code,
              const std::string &message)
{
    Json res = envelope(&req);
    res["ok"] = false;
    Json e = Json::object();
    e["code"] = code;
    e["message"] = message;
    res["error"] = std::move(e);
    return res;
}

Json
errorResponse(const std::string &code, const std::string &message)
{
    return errorResponse(Request{}, code, message);
}

} // namespace nucache::serve
