/**
 * @file
 * Unit tests for the nucache-rpc/v1 protocol layer: strict request
 * parsing and validation, the batch predicate, the cache key and the
 * response envelopes.  Everything here must reject bad input with an
 * error string — never fatal() — because these paths face untrusted
 * bytes.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "sim/policies.hh"

namespace nucache
{
namespace
{

using serve::Request;

/** Parse @p line expecting success. */
Request
mustParse(const std::string &line)
{
    Request req;
    std::string err;
    EXPECT_TRUE(serve::parseRequest(line, req, err)) << err;
    return req;
}

/** Parse @p line expecting failure; @return the error string. */
std::string
mustReject(const std::string &line)
{
    Request req;
    std::string err;
    EXPECT_FALSE(serve::parseRequest(line, req, err)) << line;
    EXPECT_FALSE(err.empty());
    return err;
}

TEST(Protocol, ParsesNamedMix)
{
    const Request req = mustParse(
        R"({"v":"nucache-rpc/v1","id":7,"op":"run_mix",)"
        R"("params":{"mix":"mix2_01"}})");
    EXPECT_EQ(req.op, serve::Op::RunMix);
    EXPECT_TRUE(req.hasId);
    EXPECT_EQ(req.id, 7u);
    EXPECT_EQ(req.mix.name, "mix2_01");
    EXPECT_EQ(req.mix.workloads.size(), 2u);
    EXPECT_EQ(req.policy, "nucache");
    EXPECT_FALSE(req.noCache);
    EXPECT_EQ(req.telemetry, 0u);
}

TEST(Protocol, ParsesAdhocWorkloadList)
{
    const Request req = mustParse(
        R"({"op":"run_mix","params":{)"
        R"("workloads":["loop_medium","stream_pure"],)"
        R"("policy":"lru","records":5000,"llc_kib":2048,)"
        R"("llc_ways":8,"no_cache":true}})");
    EXPECT_FALSE(req.hasId);
    EXPECT_EQ(req.mix.workloads.size(), 2u);
    EXPECT_EQ(req.policy, "lru");
    EXPECT_EQ(req.records, 5000u);
    EXPECT_EQ(req.llcKib, 2048u);
    EXPECT_EQ(req.llcWays, 8u);
    EXPECT_TRUE(req.noCache);

    const HierarchyConfig hier = serve::requestHierarchy(req);
    EXPECT_EQ(hier.numCores, 2u);
    EXPECT_EQ(hier.llc.sizeBytes, 2048u << 10);
    EXPECT_EQ(hier.llc.ways, 8u);
}

TEST(Protocol, ControlOpsNeedNoParams)
{
    EXPECT_EQ(mustParse(R"({"op":"health"})").op, serve::Op::Health);
    EXPECT_EQ(mustParse(R"({"op":"stats"})").op, serve::Op::Stats);
    EXPECT_EQ(mustParse(R"({"op":"shutdown"})").op,
              serve::Op::Shutdown);
}

TEST(Protocol, ParsesMetricsOp)
{
    const Request plain = mustParse(R"({"op":"metrics"})");
    EXPECT_EQ(plain.op, serve::Op::Metrics);
    EXPECT_FALSE(plain.promFormat);

    const Request json = mustParse(
        R"({"op":"metrics","params":{"format":"json"}})");
    EXPECT_FALSE(json.promFormat);

    const Request prom = mustParse(
        R"({"op":"metrics","params":{"format":"prometheus"}})");
    EXPECT_TRUE(prom.promFormat);
}

TEST(Protocol, RejectsBadMetricsParams)
{
    mustReject(R"({"op":"metrics","params":{"format":"xml"}})");
    mustReject(R"({"op":"metrics","params":{"format":7}})");
    // run_mix params are not metrics params.
    mustReject(R"({"op":"metrics","params":{"mix":"mix2_01"}})");
}

TEST(Protocol, RejectsMalformedLines)
{
    mustReject("");
    mustReject("garbage");
    mustReject("[1,2,3]");
    mustReject(R"("just a string")");
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01"})");
}

TEST(Protocol, RejectsVersionMismatch)
{
    mustReject(R"({"v":"nucache-rpc/v2","op":"health"})");
    mustReject(R"({"v":7,"op":"health"})");
}

TEST(Protocol, RejectsUnknownMembers)
{
    mustReject(R"({"op":"health","bogus":1})");
    mustReject(
        R"({"op":"run_mix","params":{"mix":"mix2_01","bogus":1}})");
}

TEST(Protocol, RejectsUnknownOp)
{
    mustReject(R"({"op":"explode"})");
    mustReject(R"({"op":7})");
    mustReject(R"({"params":{}})");
}

TEST(Protocol, MixAndWorkloadsAreExclusive)
{
    mustReject(R"({"op":"run_mix","params":{}})");
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
               R"("workloads":["loop_medium"]}})");
}

TEST(Protocol, RejectsUnknownNames)
{
    mustReject(R"({"op":"run_mix","params":{"mix":"mix99_01"}})");
    mustReject(
        R"({"op":"run_mix","params":{"workloads":["nope"]}})");
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
               R"("policy":"nope"}})");
}

TEST(Protocol, RejectsOutOfRangeNumbers)
{
    // Below/above the records caps, and a negative number (which the
    // JSON layer would otherwise panic on via asUint).
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
               R"("records":999}})");
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
               R"("records":64000001}})");
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
               R"("records":-5}})");
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
               R"("llc_ways":65}})");
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
               R"("telemetry":-5}})");
    mustReject(R"({"op":"health","deadline_ms":600001})");
}

TEST(Protocol, RejectsImpossibleGeometry)
{
    // 48 KiB over 16 ways of 64 B blocks -> 48 sets: not a power of
    // two, so the Cache constructor would fatal(); the parser must
    // catch it first.
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
               R"("llc_kib":48}})");
}

TEST(Protocol, RejectsPolicySpecsThePolicyWouldFatalOn)
{
    // A zero epoch, and DeliWays that fill the 2-core default LLC's
    // 16 ways: each used to reach a fatal() in the policy.
    for (const char *spec :
         {"nucache:epoch=0", "ucp:epoch=0", "pipp:epoch=0", "nucache:d=16",
          "nucache-topk:d=40"}) {
        mustReject(std::string(R"({"op":"run_mix","params":{"mix":)"
                               R"("mix2_01","policy":")") +
                   spec + "\"}}");
    }
    // The same d fits a wider LLC, or the 32-way default at 4 cores.
    mustParse(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
              R"("policy":"nucache:d=16","llc_ways":32}})");
    mustParse(R"({"op":"run_mix","params":{"mix":"mix4_01",)"
              R"("policy":"nucache:d=16"}})");
    // One way per core for the partitioning policies.
    mustReject(R"({"op":"run_mix","params":{"mix":"mix4_01",)"
               R"("policy":"ucp","llc_ways":2,"llc_kib":64}})");
}

TEST(Protocol, RejectsSlicedExecutionKnobs)
{
    // The LLC is one flat tag store run by one serial engine, so the
    // former execution-shape knobs get the generic unknown-key error.
    EXPECT_EQ(mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
                         R"("slices":4}})"),
              "unknown parameter 'slices' for op 'run_mix'");
}

TEST(Protocol, ParsesEstimateMode)
{
    const Request dflt = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01"}})");
    EXPECT_EQ(dflt.mode, serve::Mode::Exact);

    const Request exact = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("mode":"exact"}})");
    EXPECT_EQ(exact.mode, serve::Mode::Exact);

    const Request est = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("mode":"estimate","policy":"ucp"}})");
    EXPECT_EQ(est.mode, serve::Mode::Estimate);
    EXPECT_EQ(est.policy, "ucp");
}

TEST(Protocol, RejectsUnsupportableEstimates)
{
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
               R"("mode":"guess"}})");
    // The model cannot attach observers or stream frames.
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
               R"("mode":"estimate","telemetry":1000}})");
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
               R"("mode":"estimate","telemetry":1000,)"
               R"("stream":true}})");
    // Policy families outside the model are a parse-time error, not
    // a wrong answer.
    const std::string err =
        mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
                   R"("mode":"estimate","policy":"ship"}})");
    EXPECT_NE(err.find("estimate"), std::string::npos) << err;
    // Server-side estimates apply to run_mix only.
    mustReject(R"({"op":"run_trace","params":{"traces":["/x"],)"
               R"("mode":"estimate"}})");
}

TEST(Protocol, BatchKeyGroupsCompatibleRequests)
{
    const auto same = [](const Request &a, const Request &b,
                         std::uint64_t default_records = 250'000) {
        return serve::sameBatch(a, b, default_records);
    };
    const Request a = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01"}})");
    const Request b = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix4_01",)"
        R"("policy":"lru","llc_kib":512}})");
    // Same measurement window: one engine batch regardless of mix,
    // policy and hierarchy.
    EXPECT_TRUE(same(a, b));
    EXPECT_TRUE(same(a, a));

    const Request c = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("records":5000}})");
    EXPECT_FALSE(same(a, c));
    // An explicit records equal to the server default is the same
    // window as an absent one.
    EXPECT_TRUE(same(a, c, 5'000));

    // Estimates batch separately from exact runs (they never touch
    // an engine) but still batch with each other.
    const Request e = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("mode":"estimate"}})");
    const Request e2 = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix4_01",)"
        R"("mode":"estimate"}})");
    EXPECT_TRUE(same(e, e2));
    EXPECT_FALSE(same(e, a));

    // Telemetry attaches process-wide observer state, so those
    // requests must run exclusively, as must run_trace.
    const Request t = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("telemetry":true}})");
    EXPECT_FALSE(same(t, t));
    EXPECT_FALSE(same(a, t));
    const Request trace = mustParse(
        R"({"op":"run_trace","params":{"traces":["/x"]}})");
    EXPECT_FALSE(same(trace, trace));
}

TEST(Protocol, CacheKeyIsCanonicalAndOptOutable)
{
    const std::string line =
        R"({"op":"run_mix","params":{"mix":"mix2_01"}})";
    const Request a = mustParse(line);
    const Request b = mustParse(line);
    EXPECT_EQ(serve::cacheKey(a, 250'000), serve::cacheKey(b, 250'000));
    EXPECT_FALSE(serve::cacheKey(a, 250'000).empty());

    // Uncacheable requests have no key.
    const auto keyOf = [](const std::string &params) {
        return serve::cacheKey(
            mustParse(R"({"op":"run_mix","params":{)" + params + "}}"),
            250'000);
    };
    const std::string base = R"("mix":"mix2_01")";
    for (const std::string &params :
         {base + R"(,"no_cache":true)", base + R"(,"telemetry":1000)",
          base + R"(,"telemetry":true,"stream":true)"}) {
        EXPECT_TRUE(keyOf(params).empty()) << params;
    }
    EXPECT_TRUE(
        serve::cacheKey(mustParse(R"({"op":"health"})"), 250'000).empty());
}

TEST(Protocol, CacheKeyAuditsEveryResultAffectingField)
{
    // The key of a run_mix with @p params, under a default window.
    const auto keyOf = [](const std::string &params,
                          std::uint64_t default_records = 250'000) {
        return serve::cacheKey(
            mustParse(R"({"op":"run_mix","params":{)" + params + "}}"),
            default_records);
    };
    // One row per field: params whose key is compared with the base
    // request's, and whether the two keys must be equal.  Every field
    // that can change the response bytes must change the key; the
    // others must not.
    const std::string base = R"("mix":"mix2_01")";
    struct Row
    {
        const char *field;
        std::string params;
        bool sameKey;
    };
    const std::vector<Row> rows = {
        {"mix name", R"("mix":"mix2_02")", false},
        {"workloads", R"("workloads":["loop_medium","stream_pure"])",
         false},
        {"policy", base + R"(,"policy":"lru")", false},
        {"policy knobs", base + R"(,"policy":"nucache:d=2")", false},
        {"records", base + R"(,"records":10000)", false},
        {"records at the default", base + R"(,"records":250000)", true},
        {"llc_kib", base + R"(,"llc_kib":512)", false},
        {"llc_ways", base + R"(,"llc_ways":8)", false},
        {"llc_defense", base + R"(,"llc_defense":"rand")", false},
        {"mode", base + R"(,"mode":"estimate")", false},
        {"explicit exact mode", base + R"(,"mode":"exact")", true},
        {"stream", base + R"(,"stream":false)", true},
    };
    const std::string key = keyOf(base);
    ASSERT_FALSE(key.empty());
    for (const Row &row : rows)
        EXPECT_EQ(keyOf(row.params) == key, row.sameKey) << row.field;

    // Envelope fields never reach the key.
    EXPECT_EQ(serve::cacheKey(
                  mustParse(R"({"op":"run_mix","id":9,"deadline_ms":5,)"
                            R"("params":{"mix":"mix2_01"}})"),
                  250'000),
              key);
    // Equal resolved windows share a key, whichever side set them.
    EXPECT_EQ(keyOf(base + R"(,"records":5000)"), keyOf(base, 5'000));
    // An estimate at different geometry is again distinct.
    EXPECT_NE(keyOf(base + R"(,"mode":"estimate","llc_kib":512)"),
              keyOf(base + R"(,"mode":"estimate")"));
}

TEST(Protocol, ResponseEnvelopesRoundTrip)
{
    Request req;
    req.hasId = true;
    req.id = 42;
    Json result = Json::object();
    result["answer"] = 1;
    const Json ok = serve::okResponse(req, std::move(result));

    Json back;
    std::string err;
    ASSERT_TRUE(Json::parse(ok.str(0), back, err)) << err;
    EXPECT_EQ(back.at("v").asString(), serve::kProtocolVersion);
    EXPECT_EQ(back.at("id").asUint(), 42u);
    EXPECT_TRUE(back.at("ok").asBool());
    EXPECT_EQ(back.at("result").at("answer").asUint(), 1u);

    const Json fail =
        serve::errorResponse(serve::error::kOverload, "queue full");
    ASSERT_TRUE(Json::parse(fail.str(0), back, err)) << err;
    EXPECT_FALSE(back.at("ok").asBool());
    EXPECT_EQ(back.at("error").at("code").asString(), "overload");
    // A line that never parsed has no id to echo.
    EXPECT_EQ(back.find("id"), nullptr);
}

TEST(Protocol, SpellingsOfOneSpecShareOneCacheKey)
{
    const auto keyOf = [](const std::string &params) {
        return serve::cacheKey(
            mustParse(R"({"op":"run_mix","params":{)" + params + "}}"),
            250'000);
    };
    const std::string base = R"("mix":"mix2_01")";
    // Policy, attack workload and defense specs are stored
    // canonically, so every spelling of one spec shares one key.
    EXPECT_EQ(keyOf(base + R"(,"policy":"nucache:epoch=5000,d=4")"),
              keyOf(base + R"(,"policy":"nucache:d=04,epoch=5000")"));
    EXPECT_EQ(mustParse(R"({"op":"run_mix","params":{)" + base +
                        R"(,"policy":"nucache:epoch=5000,d=4"}})")
                  .policy,
              "nucache:d=4,epoch=5000");
    EXPECT_EQ(
        keyOf(R"("workloads":["attack:evset:seed=7,ways=4","zipf_hot"],)"
              R"("llc_defense":"rand-dynamic:period=500")"),
        keyOf(R"("workloads":["attack:evset:ways=4,seed=07","zipf_hot"],)"
              R"("llc_defense":"rand-dynamic:period=0500")"));
    const Request attack = mustParse(
        R"({"op":"run_mix","params":{)"
        R"("workloads":["attack:evset:seed=7,ways=4","zipf_hot"]}})");
    EXPECT_EQ(attack.mix.workloads.at(0), "attack:evset:ways=4,seed=7");
    EXPECT_EQ(attack.mix.name,
              "adhoc:attack:evset:ways=4,seed=7:zipf_hot");
}

TEST(Protocol, ValidatePolicySpecMatchesFactoryGrammar)
{
    spec::Spec p;
    std::string err;
    const auto ok = [&](const char *text) {
        return parsePolicySpec(text, p, err);
    };
    EXPECT_TRUE(ok("nucache"));
    EXPECT_TRUE(ok("lru"));
    // Keys are checked per family: a key another family owns, or no
    // family owns, is rejected, as is a key given twice.
    EXPECT_FALSE(ok("nucache:dlimit=4"));
    EXPECT_FALSE(ok("nucache:dlimit=4,k=2"));
    EXPECT_FALSE(ok("lru:d=4"));
    EXPECT_FALSE(ok("ucp:d=4"));
    EXPECT_FALSE(ok("nucache:d=4,d=5"));
    EXPECT_FALSE(ok("nucache:d=4,"));
    EXPECT_FALSE(ok("nucache:"));

    EXPECT_FALSE(ok("nope"));
    EXPECT_FALSE(ok("nucache:d"));
    EXPECT_FALSE(ok("nucache:d="));
    EXPECT_FALSE(ok("nucache:=4"));
    EXPECT_FALSE(ok("nucache:d=abc"));
    EXPECT_FALSE(ok("nucache:d=-1"));
    EXPECT_FALSE(ok("nucache:d=+1"));
    EXPECT_FALSE(ok("nucache:d= 1"));
    EXPECT_FALSE(ok("nucache:epoch=18446744073709551616"));
    EXPECT_TRUE(ok("nucache:epoch=18446744073709551615"));
    EXPECT_TRUE(ok("nucache:epoch=12345678901234567"));
    EXPECT_FALSE(ok("nucache:d=12345678901234567"));
    EXPECT_TRUE(ok("nucache:pool=4294967295"));
    EXPECT_FALSE(ok("nucache:pool=4294967296"));
    EXPECT_FALSE(ok("nucache:epoch=0"));
    EXPECT_TRUE(ok("nucache:epoch=1"));
    EXPECT_FALSE(ok("nucache:board=0"));
    EXPECT_TRUE(ok("nucache:board=1"));
    EXPECT_TRUE(ok("nucache:board=1048576"));
    EXPECT_FALSE(ok("nucache:board=1048577"));
    EXPECT_TRUE(ok("nucache:shift=31"));
    EXPECT_FALSE(ok("nucache:shift=32"));
    EXPECT_FALSE(ok("nucache:shift=64"));
    EXPECT_FALSE(ok("hawkeye:shift=64"));
    EXPECT_FALSE(ok("ship:shct=0"));
    EXPECT_TRUE(ok("ship:shct=24"));
    EXPECT_FALSE(ok("ship:shct=25"));
    EXPECT_FALSE(err.empty());

    // One canonical spelling: table order, plain decimal.
    ASSERT_TRUE(ok("nucache:epoch=05000,d=4"));
    EXPECT_EQ(p.canonical(), "nucache:d=4,epoch=5000");

    ASSERT_TRUE(ok("nucache:d=16"));
    EXPECT_FALSE(validatePolicyForLlc(p, 16, 2, err));
    ASSERT_TRUE(ok("nucache:d=15"));
    EXPECT_TRUE(validatePolicyForLlc(p, 16, 2, err));
    ASSERT_TRUE(ok("pipp"));
    EXPECT_FALSE(validatePolicyForLlc(p, 2, 4, err));
    EXPECT_TRUE(validatePolicyForLlc(p, 4, 4, err));
}

} // anonymous namespace
} // namespace nucache
