/**
 * @file
 * Unit tests for the nucache-rpc/v1 protocol layer: strict request
 * parsing and validation, batching/caching keys, and the response
 * envelopes.  Everything here must reject bad input with an error
 * string — never fatal() — because these paths face untrusted bytes.
 */

#include <gtest/gtest.h>

#include <string>

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
    const Request a = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01"}})");
    const Request b = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix4_01",)"
        R"("policy":"lru"}})");
    // Same measurement window: one engine batch regardless of mix
    // and policy.
    EXPECT_EQ(serve::batchKey(a, 250'000), serve::batchKey(b, 250'000));
    EXPECT_FALSE(serve::batchKey(a, 250'000).empty());

    const Request c = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("records":5000}})");
    EXPECT_NE(serve::batchKey(a, 250'000), serve::batchKey(c, 250'000));
    // An explicit records equal to the server default is the same
    // window as an absent one.
    EXPECT_EQ(serve::batchKey(a, 5'000), serve::batchKey(c, 250'000));

    // Telemetry attaches process-wide observer state, so those
    // requests must run exclusively: no batch key.
    const Request t = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("telemetry":true}})");
    EXPECT_TRUE(serve::batchKey(t, 250'000).empty());
}

TEST(Protocol, CacheKeyIsCanonicalAndOptOutable)
{
    const std::string line =
        R"({"op":"run_mix","params":{"mix":"mix2_01"}})";
    const Request a = mustParse(line);
    const Request b = mustParse(line);
    EXPECT_EQ(serve::cacheKey(a, 250'000), serve::cacheKey(b, 250'000));
    EXPECT_FALSE(serve::cacheKey(a, 250'000).empty());

    const Request other = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("policy":"lru"}})");
    EXPECT_NE(serve::cacheKey(a, 250'000),
              serve::cacheKey(other, 250'000));

    const Request uncached = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("no_cache":true}})");
    EXPECT_TRUE(serve::cacheKey(uncached, 250'000).empty());

    const Request telemetry = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("telemetry":1000}})");
    EXPECT_TRUE(serve::cacheKey(telemetry, 250'000).empty());

    const Request health = mustParse(R"({"op":"health"})");
    EXPECT_TRUE(serve::cacheKey(health, 250'000).empty());
}

TEST(Protocol, CacheKeyAuditsEveryResultAffectingField)
{
    const Request base = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01"}})");
    const std::string key = serve::cacheKey(base, 250'000);

    // Everything that changes the response bytes must change the key:
    // geometry, window, policy, mix, and the execution tier.
    const Request geometry = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("llc_kib":512,"llc_ways":8}})");
    EXPECT_NE(serve::cacheKey(geometry, 250'000), key);

    const Request window = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("records":10000}})");
    EXPECT_NE(serve::cacheKey(window, 250'000), key);

    const Request estimate = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("mode":"estimate"}})");
    EXPECT_NE(serve::cacheKey(estimate, 250'000), key);
    // ... and an estimate at different geometry is again distinct.
    const Request estGeom = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("mode":"estimate","llc_kib":512}})");
    EXPECT_NE(serve::cacheKey(estGeom, 250'000),
              serve::cacheKey(estimate, 250'000));

    // An explicit exact mode is byte-identical to the default tier.
    const Request exact = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("mode":"exact"}})");
    EXPECT_EQ(serve::cacheKey(exact, 250'000), key);

    // Estimates batch separately from exact runs (they never touch
    // an engine) but still batch with each other.
    const Request estimate2 = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix4_01",)"
        R"("mode":"estimate"}})");
    EXPECT_FALSE(serve::batchKey(estimate, 250'000).empty());
    EXPECT_EQ(serve::batchKey(estimate, 250'000),
              serve::batchKey(estimate2, 250'000));
    EXPECT_NE(serve::batchKey(estimate, 250'000),
              serve::batchKey(base, 250'000));
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
    const auto request = [](const std::string &params) {
        return mustParse(R"({"op":"run_mix","params":{)" + params + "}}");
    };
    const Request a = request(
        R"("mix":"mix2_01","policy":"nucache:epoch=5000,d=4")");
    const Request b = request(
        R"("mix":"mix2_01","policy":"nucache:d=04,epoch=5000")");
    EXPECT_EQ(a.policy, "nucache:d=4,epoch=5000");
    EXPECT_EQ(b.policy, a.policy);
    EXPECT_EQ(serve::cacheKey(a, 250'000), serve::cacheKey(b, 250'000));

    // Attack workload names and defense specs canonicalize too.
    const Request c = request(
        R"("workloads":["attack:evset:seed=7,ways=4","zipf_hot"],)"
        R"("llc_defense":"rand-dynamic:period=500")");
    const Request d = request(
        R"("workloads":["attack:evset:ways=4,seed=07","zipf_hot"],)"
        R"("llc_defense":"rand-dynamic:period=0500")");
    EXPECT_EQ(c.mix.workloads.at(0), "attack:evset:ways=4,seed=7");
    EXPECT_EQ(c.mix.name, "adhoc:attack:evset:ways=4,seed=7:zipf_hot");
    EXPECT_EQ(serve::cacheKey(c, 250'000), serve::cacheKey(d, 250'000));
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
