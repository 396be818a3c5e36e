/**
 * @file
 * Loopback integration tests for the nucached server: request/response
 * over a real TCP socket, result-cache and run-alone/arena reuse,
 * concurrent clients, hostile input (garbage and oversized lines),
 * explicit backpressure on a full admission queue, pipelined in-order
 * delivery, slow-client shedding, streamed telemetry frames, the
 * one-dispatcher configuration, and shutdown draining admitted work.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/net.hh"
#include "model/profile.hh"
#include "serve/server.hh"
#include "trace/arena.hh"

namespace nucache
{
namespace
{

/** A blocking line-oriented client for one test connection. */
class TestClient
{
  public:
    explicit TestClient(std::uint16_t port)
    {
        std::string err;
        fd = net::connectTcp("127.0.0.1", port, err);
        EXPECT_GE(fd, 0) << err;
        reader = std::make_unique<net::LineReader>(fd);
    }

    ~TestClient()
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

    /** Read one response line and parse it. */
    bool
    recv(Json &doc)
    {
        std::string line, err;
        if (!reader->readLine(line))
            return false;
        EXPECT_TRUE(Json::parse(line, doc, err)) << err << ": " << line;
        return true;
    }

    /** Round-trip @p line; fails the test if the response is late. */
    Json
    call(const std::string &line)
    {
        EXPECT_TRUE(send(line));
        Json doc;
        EXPECT_TRUE(recv(doc));
        return doc;
    }

    int fd = -1;
    std::unique_ptr<net::LineReader> reader;
};

/** Start a server on an ephemeral port with a small window. */
class ServeTest : public ::testing::Test
{
  protected:
    serve::ServerConfig
    baseConfig()
    {
        serve::ServerConfig cfg;
        cfg.port = 0;
        cfg.service.jobs = 2;
        cfg.service.defaultRecords = 2'000;
        return cfg;
    }

    void
    startServer(const serve::ServerConfig &cfg)
    {
        server = std::make_unique<serve::Server>(cfg);
        std::string err;
        ASSERT_TRUE(server->start(err)) << err;
        ASSERT_NE(server->port(), 0);
    }

    std::unique_ptr<serve::Server> server;
};

const char *kMixLine =
    R"({"op":"run_mix","id":1,"params":{"mix":"mix2_01"}})";

TEST_F(ServeTest, HealthRoundTrip)
{
    startServer(baseConfig());
    TestClient client(server->port());
    const Json doc = client.call(R"({"op":"health","id":3})");
    EXPECT_TRUE(doc.at("ok").asBool());
    EXPECT_EQ(doc.at("id").asUint(), 3u);
    const Json &result = doc.at("result");
    EXPECT_EQ(result.at("status").asString(), "ok");
    EXPECT_EQ(result.at("version").asString(), "nucache-rpc/v1");
    EXPECT_TRUE(result.at("uptime_ms").isNumber());
    EXPECT_EQ(result.at("shards").asUint(), 1u);
}

TEST_F(ServeTest, StartRejectsMoreThanOneShard)
{
    serve::ServerConfig cfg = baseConfig();
    cfg.shards = 2;
    serve::Server srv(cfg);
    std::string err;
    EXPECT_FALSE(srv.start(err));
    EXPECT_NE(err.find("shards = 2"), std::string::npos) << err;
    EXPECT_EQ(srv.port(), 0);
}

TEST_F(ServeTest, RunMixResultsAndCacheReuse)
{
    startServer(baseConfig());
    TestClient client(server->port());

    const Json first = client.call(kMixLine);
    ASSERT_TRUE(first.at("ok").asBool()) << first.str(0);
    const Json &result = first.at("result");
    EXPECT_EQ(result.at("mix").asString(), "mix2_01");
    EXPECT_GT(result.at("weighted_speedup").asDouble(), 0.0);
    EXPECT_FALSE(result.at("server").at("cached").asBool());

    // The identical request must come back from the result cache,
    // byte-equal in its simulation content.
    const Json second = client.call(kMixLine);
    ASSERT_TRUE(second.at("ok").asBool());
    EXPECT_TRUE(second.at("result").at("server").at("cached").asBool());
    EXPECT_EQ(second.at("result").at("weighted_speedup").str(0),
              result.at("weighted_speedup").str(0));
}

TEST_F(ServeTest, SpellingsOfOneSpecShareOneCacheEntry)
{
    startServer(baseConfig());
    TestClient client(server->port());
    const auto run = [&](const char *policy) {
        return client.call(
            std::string(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
                        R"("policy":")") +
            policy + "\"}}");
    };

    const Json first = run("nucache:epoch=5000,d=4");
    ASSERT_TRUE(first.at("ok").asBool()) << first.str(0);
    EXPECT_FALSE(first.at("result").at("server").at("cached").asBool());
    const Json second = run("nucache:d=4,epoch=5000");
    ASSERT_TRUE(second.at("ok").asBool()) << second.str(0);
    EXPECT_TRUE(second.at("result").at("server").at("cached").asBool());
    for (const Json *doc : {&first, &second}) {
        EXPECT_EQ(doc->at("result").at("policy").asString(),
                  "nucache:d=4,epoch=5000");
    }

    const Json stats = client.call(R"({"op":"stats"})");
    const Json &svc = stats.at("result").at("service");
    EXPECT_EQ(svc.at("cache_misses").asUint(), 1u);
    EXPECT_EQ(svc.at("cache_hits").asUint(), 1u);
}

TEST_F(ServeTest, AloneRunsAndArenaAreReusedAcrossRequests)
{
    startServer(baseConfig());
    TestClient client(server->port());

    // Two *uncached* runs of the same mix: the second must reuse the
    // memoized run-alone baselines and the arena traces, generated
    // no further than the first run read them.
    const char *uncached =
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("no_cache":true}})";
    ASSERT_TRUE(client.call(uncached).at("ok").asBool());
    const Json stats1 = client.call(R"({"op":"stats"})");
    ASSERT_TRUE(client.call(uncached).at("ok").asBool());
    const Json stats2 = client.call(R"({"op":"stats"})");

    const Json &svc1 = stats1.at("result").at("service");
    const Json &svc2 = stats2.at("result").at("service");
    EXPECT_EQ(svc2.at("cache_hits").asUint(),
              svc1.at("cache_hits").asUint());
    EXPECT_EQ(svc2.at("alone_runs").asUint(),
              svc1.at("alone_runs").asUint());
    EXPECT_EQ(svc2.at("arena_materializations").asUint(),
              svc1.at("arena_materializations").asUint());
    EXPECT_GT(svc1.at("arena_records").asUint(), 0u);
    EXPECT_EQ(svc2.at("arena_records").asUint(),
              svc1.at("arena_records").asUint());
    // The second run replays the private-level logs the first built
    // (the checker, when on, keeps both on the live caches).
    EXPECT_EQ(svc2.at("private_records").asUint(),
              svc1.at("private_records").asUint());
}

TEST_F(ServeTest, TelemetryRequestAttachesDocument)
{
    startServer(baseConfig());
    TestClient client(server->port());
    const Json doc = client.call(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("telemetry":500}})");
    ASSERT_TRUE(doc.at("ok").asBool()) << doc.str(0);
    const Json *telemetry = doc.at("result").find("telemetry");
    ASSERT_NE(telemetry, nullptr);
    EXPECT_EQ(telemetry->at("schema").asString(),
              "nucache-telemetry/v1");
}

TEST_F(ServeTest, GarbageLineGetsErrorAndConnectionSurvives)
{
    startServer(baseConfig());
    TestClient client(server->port());

    const Json bad = client.call("this is not json");
    EXPECT_FALSE(bad.at("ok").asBool());
    EXPECT_EQ(bad.at("error").at("code").asString(), "bad_request");

    const Json unknown = client.call(R"({"op":"explode"})");
    EXPECT_FALSE(unknown.at("ok").asBool());

    // Same socket still serves valid requests.
    EXPECT_TRUE(client.call(R"({"op":"health"})").at("ok").asBool());
}

/**
 * Each policy spec here once made the daemon exit through fatal(), run
 * into undefined behaviour or run as something it did not say: a zero
 * epoch, DeliWays filling mix2_01's 16-way LLC, an empty or a wrapping
 * victim board, a sampling shift at or past the word width, a SHiP
 * table size out of range, a key the family does not have, a key given
 * twice, and a pool that truncated to 32 bits.  Each must answer
 * bad_request and leave the daemon serving.
 */
class FatalSpecTest : public ServeTest,
                      public ::testing::WithParamInterface<const char *>
{
};

TEST_P(FatalSpecTest, AnswersBadRequestAndKeepsServing)
{
    startServer(baseConfig());
    TestClient client(server->port());
    const Json bad = client.call(
        std::string(R"({"op":"run_mix","id":1,"params":{"mix":"mix2_01",)"
                    R"("policy":")") +
        GetParam() + "\"}}");
    EXPECT_FALSE(bad.at("ok").asBool()) << bad.str(0);
    EXPECT_EQ(bad.at("error").at("code").asString(), "bad_request");

    const Json next = client.call(kMixLine);
    EXPECT_TRUE(next.at("ok").asBool()) << next.str(0);
}

/** @return the spec @p info carries as a test-name-safe string. */
std::string
fatalSpecName(const ::testing::TestParamInfo<const char *> &info)
{
    std::string name = info.param;
    for (char &ch : name) {
        if (std::isalnum(static_cast<unsigned char>(ch)) == 0)
            ch = '_';
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(Reproducers, FatalSpecTest,
                         ::testing::Values("nucache:epoch=0", "ucp:epoch=0",
                                           "pipp:epoch=0", "nucache:d=16",
                                           "nucache:board=0",
                                           "nucache:board=4294967296",
                                           "nucache:shift=64",
                                           "nucache:shift=200",
                                           "hawkeye:shift=40",
                                           "ship:shct=0", "ship:shct=25",
                                           "nucache:foo=1", "lru:d=4",
                                           "nucache:d=4,d=5",
                                           "nucache:pool=4294967297"),
                         fatalSpecName);

TEST_F(ServeTest, OversizedLineIsRejectedAndClosed)
{
    serve::ServerConfig cfg = baseConfig();
    cfg.maxLineBytes = 512;
    startServer(cfg);
    TestClient client(server->port());

    const std::string big(2048, 'x');
    ASSERT_TRUE(client.send(big));
    Json doc;
    ASSERT_TRUE(client.recv(doc));
    EXPECT_FALSE(doc.at("ok").asBool());
    EXPECT_EQ(doc.at("error").at("code").asString(), "too_large");
    // The server closes the connection after flushing the error.
    EXPECT_FALSE(client.recv(doc));
}

TEST_F(ServeTest, FullQueueAnswersOverload)
{
    serve::ServerConfig cfg = baseConfig();
    cfg.queueDepth = 1;
    // Id 2 waits in the queue for the whole blocker run, which in a
    // sanitizer build with the invariant checker on outlasts the 30 s
    // default deadline; the protocol's longest deadline covers it.
    cfg.defaultDeadlineMs = 600'000;
    startServer(cfg);

    // Occupy the dispatcher with an exclusive (telemetry) run that
    // takes ~2s, then fill the depth-1 queue and overflow it.
    TestClient blocker(server->port());
    ASSERT_TRUE(blocker.send(
        R"({"op":"run_mix","id":1,"params":{"mix":"mix2_01",)"
        R"("records":1000000,"telemetry":100000}})"));

    TestClient client(server->port());
    Json stats;
    do {
        stats = client.call(R"({"op":"stats"})");
    } while (stats.at("result").at("service").at("batches").asUint() ==
             0);

    // Two admissions back-to-back: the first fills the queue while
    // the dispatcher is busy, the second must get explicit
    // backpressure instead of an unbounded queue or a stalled socket.
    ASSERT_TRUE(client.send(
        std::string(R"({"op":"run_mix","id":2,"params":)"
                    R"({"mix":"mix2_01"}})") +
        "\n" +
        R"({"op":"run_mix","id":3,"params":{"mix":"mix2_01"}})"));
    Json first, second;
    ASSERT_TRUE(client.recv(first));
    ASSERT_TRUE(client.recv(second));
    // The overload for id 3 is produced immediately, but pipelined
    // responses are delivered in request order: it parks in its
    // response slot until id 2 completes behind the blocker.
    EXPECT_EQ(first.at("id").asUint(), 2u);
    EXPECT_TRUE(first.at("ok").asBool());
    EXPECT_EQ(second.at("id").asUint(), 3u);
    EXPECT_FALSE(second.at("ok").asBool());
    EXPECT_EQ(second.at("error").at("code").asString(), "overload");

    // Control ops bypass the admission queue entirely.
    EXPECT_TRUE(client.call(R"({"op":"health"})").at("ok").asBool());
    Json blocked;
    EXPECT_TRUE(blocker.recv(blocked));
    EXPECT_TRUE(blocked.at("ok").asBool());
}

TEST_F(ServeTest, ConcurrentClientsAllServed)
{
    startServer(baseConfig());
    constexpr int kClients = 4;
    constexpr int kRequests = 8;
    std::vector<std::thread> threads;
    std::atomic<int> ok{0};
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            TestClient client(server->port());
            for (int r = 0; r < kRequests; ++r) {
                const Json doc = client.call(kMixLine);
                if (doc.isObject() && doc.at("ok").asBool())
                    ++ok;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(ok.load(), kClients * kRequests);

    const Json stats = TestClient(server->port())
                           .call(R"({"op":"stats"})");
    EXPECT_EQ(stats.at("result").at("dropped_responses").asUint(), 0u);
}

TEST_F(ServeTest, ShutdownDrainsAdmittedWork)
{
    startServer(baseConfig());
    TestClient client(server->port());

    // Queue real (uncacheable) work, then ask for shutdown.  Every
    // admitted request must still get its response before the server
    // closes the connection.
    constexpr int kInFlight = 3;
    for (int i = 0; i < kInFlight; ++i)
        ASSERT_TRUE(client.send(
            R"({"op":"run_mix","id":)" + std::to_string(i + 10) +
            R"(,"params":{"mix":"mix2_01","no_cache":true}})"));
    ASSERT_TRUE(client.send(R"({"op":"shutdown"})"));

    int run_responses = 0;
    bool drain_ack = false;
    Json doc;
    while (client.recv(doc)) {
        if (!doc.at("ok").asBool())
            continue;
        const Json &result = doc.at("result");
        if (result.find("draining") != nullptr)
            drain_ack = true;
        else if (result.find("mix") != nullptr)
            ++run_responses;
    }
    EXPECT_TRUE(drain_ack);
    EXPECT_EQ(run_responses, kInFlight);

    server->join();
    EXPECT_TRUE(server->shuttingDown());
}

TEST_F(ServeTest, PipelinedResponsesArriveInRequestOrder)
{
    startServer(baseConfig());
    TestClient client(server->port());

    // 16 requests written before any response is read: a slow run
    // first, cheap inline control ops behind it, and a final run.
    // The old server would answer the health probes first; the
    // in-order contract requires responses in request order, with
    // the probes parked behind the simulation in their slots.
    constexpr int kInFlight = 16;
    std::string burst;
    for (int i = 0; i < kInFlight; ++i) {
        if (i == 0 || i == kInFlight - 1) {
            burst += R"({"op":"run_mix","id":)" + std::to_string(i) +
                     R"(,"params":{"mix":"mix2_01","no_cache":true}})";
        } else {
            burst +=
                R"({"op":"health","id":)" + std::to_string(i) + "}";
        }
        burst += "\n";
    }
    ASSERT_TRUE(
        net::writeAll(client.fd, burst.data(), burst.size()));
    for (int i = 0; i < kInFlight; ++i) {
        Json doc;
        ASSERT_TRUE(client.recv(doc)) << "response " << i;
        EXPECT_EQ(doc.at("id").asUint(),
                  static_cast<std::uint64_t>(i));
        EXPECT_TRUE(doc.at("ok").asBool()) << doc.str(0);
    }
}

TEST_F(ServeTest, SlowReaderIsShedWhileOthersAreServed)
{
    serve::ServerConfig cfg = baseConfig();
    // Tiny buffers make the shed deterministic: the kernel absorbs a
    // few KiB at most, so an unread response backlog crosses the
    // outbound cap after a handful of responses.
    cfg.maxOutboundBytes = 32 * 1024;
    cfg.sockSndBufBytes = 4096;
    startServer(cfg);

    // Prime the result cache so the stalled client's requests answer
    // instantly and pile up in its outbound buffer.
    TestClient(server->port()).call(kMixLine);

    TestClient stalled(server->port());
    net::setRecvBuffer(stalled.fd, 1024);
    const std::string line = std::string(kMixLine) + "\n";
    std::string burst;
    for (int i = 0; i < 200; ++i)
        burst += line;
    // The stalled client writes requests and never reads.  The write
    // itself may fail midway once the server sheds the connection.
    (void)net::writeAll(stalled.fd, burst.data(), burst.size());

    // A well-behaved client on another connection is served promptly
    // the whole time — the loop thread never blocks on the stalled
    // socket (the old server wedged every connection here).
    TestClient healthy(server->port());
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(healthy.call(kMixLine).at("ok").asBool());

    // The stalled connection must be closed by the server: draining
    // whatever was buffered ends in EOF, never a hang.
    Json doc;
    while (stalled.recv(doc)) {
    }
    const Json stats = healthy.call(R"({"op":"stats"})");
    EXPECT_GE(stats.at("result").at("slow_clients").asUint(), 1u);

    // The observability plane saw the same story: the shed counter
    // ticked, and the outbound gauge's high-water mark records the
    // backlog that crossed the 32 KiB cap before the kill.
    const Json metrics = healthy.call(R"({"op":"metrics"})");
    ASSERT_TRUE(metrics.at("ok").asBool()) << metrics.str(0);
    const Json &srv = metrics.at("result").at("server");
    EXPECT_GE(srv.at("slow_clients").asUint(), 1u);
    EXPECT_GE(srv.at("outbound_hwm_bytes").asUint(), 32u * 1024u);
    EXPECT_LT(srv.at("outbound_bytes").asUint(),
              srv.at("outbound_hwm_bytes").asUint());
}

TEST_F(ServeTest, StreamedTelemetryRunDeliversOrderedFrames)
{
    startServer(baseConfig());
    TestClient client(server->port());
    ASSERT_TRUE(client.send(
        R"({"op":"run_mix","id":5,"params":{"mix":"mix2_01",)"
        R"("telemetry":500,"stream":true}})"));

    bool saw_result = false, saw_telemetry = false;
    std::uint64_t expect_seq = 0;
    while (true) {
        Json doc;
        ASSERT_TRUE(client.recv(doc));
        ASSERT_TRUE(doc.at("ok").asBool()) << doc.str(0);
        EXPECT_EQ(doc.at("id").asUint(), 5u);
        const Json &stream = doc.at("stream");
        EXPECT_EQ(stream.at("seq").asUint(), expect_seq);
        ++expect_seq;
        if (doc.find("result") != nullptr)
            saw_result = true;
        if (const Json *t = doc.find("telemetry"); t != nullptr) {
            saw_telemetry = true;
            EXPECT_EQ(t->at("schema").asString(),
                      "nucache-telemetry/v1");
        }
        if (stream.at("last").asBool())
            break;
    }
    EXPECT_TRUE(saw_result);
    EXPECT_TRUE(saw_telemetry);
    EXPECT_GE(expect_seq, 2u);

    // The connection still serves ordinary requests after a stream.
    EXPECT_TRUE(client.call(R"({"op":"health"})").at("ok").asBool());
}

TEST_F(ServeTest, StreamWithoutTelemetryIsRejected)
{
    startServer(baseConfig());
    TestClient client(server->port());
    const Json doc = client.call(
        R"({"op":"run_mix","params":{"mix":"mix2_01","stream":true}})");
    EXPECT_FALSE(doc.at("ok").asBool());
    EXPECT_EQ(doc.at("error").at("code").asString(), "bad_request");
}

TEST_F(ServeTest, DistinctWindowsServeAndCacheIndependently)
{
    startServer(baseConfig());
    TestClient client(server->port());

    // Distinct measurement windows run on distinct engines behind the
    // one dispatcher; both must serve and cache independently.
    const char *win_a =
        R"({"op":"run_mix","id":1,"params":{"mix":"mix2_01",)"
        R"("records":2000}})";
    const char *win_b =
        R"({"op":"run_mix","id":2,"params":{"mix":"mix2_01",)"
        R"("records":4000}})";
    const Json a1 = client.call(win_a);
    const Json b1 = client.call(win_b);
    ASSERT_TRUE(a1.at("ok").asBool()) << a1.str(0);
    ASSERT_TRUE(b1.at("ok").asBool()) << b1.str(0);
    EXPECT_FALSE(a1.at("result").at("server").at("cached").asBool());
    EXPECT_FALSE(b1.at("result").at("server").at("cached").asBool());

    const Json a2 = client.call(win_a);
    const Json b2 = client.call(win_b);
    EXPECT_TRUE(a2.at("result").at("server").at("cached").asBool());
    EXPECT_TRUE(b2.at("result").at("server").at("cached").asBool());
    EXPECT_EQ(a2.at("result").at("weighted_speedup").str(0),
              a1.at("result").at("weighted_speedup").str(0));
    EXPECT_EQ(b2.at("result").at("weighted_speedup").str(0),
              b1.at("result").at("weighted_speedup").str(0));

    const Json stats = client.call(R"({"op":"stats"})");
    EXPECT_EQ(stats.at("result").at("serve_shards").asUint(), 1u);
}

TEST_F(ServeTest, EstimateModeAnswersFromTheModel)
{
    // Cold-start the profile store so the first estimate provably
    // takes the worker (profile-building) path.
    model::ProfileStore::instance().clear();
    startServer(baseConfig());
    TestClient client(server->port());

    // Cold estimate: the profiles are not built yet, so the request
    // takes the worker path (which builds them), but still answers
    // from the model, tagged as such.
    const char *estimate =
        R"({"op":"run_mix","id":1,"params":{"mix":"mix2_01",)"
        R"("mode":"estimate"}})";
    const Json first = client.call(estimate);
    ASSERT_TRUE(first.at("ok").asBool()) << first.str(0);
    const Json &result = first.at("result");
    EXPECT_TRUE(result.at("estimated").asBool());
    EXPECT_EQ(result.at("model_version").asString(),
              "nucache-estimate/v1");
    EXPECT_GT(result.at("weighted_speedup").asDouble(), 0.0);
    EXPECT_FALSE(result.at("server").at("cached").asBool());

    // Identical request: served from the result cache.
    const Json second = client.call(estimate);
    EXPECT_TRUE(second.at("result").at("server").at("cached").asBool());
    EXPECT_EQ(second.at("result").at("weighted_speedup").str(0),
              result.at("weighted_speedup").str(0));

    // Warm profiles + cache opt-out: answered inline on the loop
    // thread (the sub-millisecond fast path), counted as such.
    const char *uncached =
        R"({"op":"run_mix","id":2,"params":{"mix":"mix2_01",)"
        R"("mode":"estimate","no_cache":true}})";
    const Json third = client.call(uncached);
    ASSERT_TRUE(third.at("ok").asBool()) << third.str(0);
    EXPECT_TRUE(third.at("result").at("estimated").asBool());
    // Estimates are deterministic: the inline answer is numerically
    // identical to the worker-path answer.
    EXPECT_EQ(third.at("result").at("weighted_speedup").str(0),
              result.at("weighted_speedup").str(0));

    const Json stats = client.call(R"({"op":"stats"})");
    const Json &svc = stats.at("result").at("service");
    EXPECT_EQ(svc.at("estimates").asUint(), 2u);
    EXPECT_EQ(svc.at("estimates_inline").asUint(), 1u);
}

TEST_F(ServeTest, EstimateAndExactResultsAreCachedSeparately)
{
    startServer(baseConfig());
    TestClient client(server->port());

    const char *exact =
        R"({"op":"run_mix","id":1,"params":{"mix":"mix2_01"}})";
    const Json sim = client.call(exact);
    ASSERT_TRUE(sim.at("ok").asBool()) << sim.str(0);
    EXPECT_EQ(sim.at("result").find("estimated"), nullptr);

    // The estimate for the same (mix, policy, window, geometry) must
    // not be served from the exact run's cache entry — the tier is
    // part of the key.
    const char *estimate =
        R"({"op":"run_mix","id":2,"params":{"mix":"mix2_01",)"
        R"("mode":"estimate"}})";
    const Json est = client.call(estimate);
    ASSERT_TRUE(est.at("ok").asBool()) << est.str(0);
    EXPECT_FALSE(est.at("result").at("server").at("cached").asBool());
    EXPECT_TRUE(est.at("result").at("estimated").asBool());

    // And the exact rerun still returns the simulation payload.
    const Json again = client.call(exact);
    EXPECT_TRUE(again.at("result").at("server").at("cached").asBool());
    EXPECT_EQ(again.at("result").find("estimated"), nullptr);
    EXPECT_EQ(again.at("result").at("weighted_speedup").str(0),
              sim.at("result").at("weighted_speedup").str(0));
}

TEST_F(ServeTest, MetricsOpReportsRequestClassesAndShards)
{
    model::ProfileStore::instance().clear();
    startServer(baseConfig());
    TestClient client(server->port());

    // One exact run (dispatched), its cached repeat (inline), and an
    // estimate — three distinct request classes.
    ASSERT_TRUE(client.call(kMixLine).at("ok").asBool());
    ASSERT_TRUE(client.call(kMixLine).at("ok").asBool());
    ASSERT_TRUE(client
                    .call(R"({"op":"run_mix","params":{)"
                          R"("mix":"mix2_01","mode":"estimate"}})")
                    .at("ok")
                    .asBool());

    const Json doc = client.call(R"({"op":"metrics"})");
    ASSERT_TRUE(doc.at("ok").asBool()) << doc.str(0);
    const Json &m = doc.at("result");
    EXPECT_EQ(m.at("schema").asString(), "nucache-metrics/v1");

    const Json &srv = m.at("server");
    EXPECT_GE(srv.at("requests").asUint(), 4u);
    EXPECT_EQ(srv.at("serve_shards").asUint(), 1u);
    EXPECT_GT(srv.at("outbound_hwm_bytes").asUint(), 0u);
    EXPECT_GE(srv.at("metrics_scrapes").asUint(), 1u);
    EXPECT_GT(m.at("process").at("rss_bytes").asUint(), 0u);

    // Every class that ran has total-latency samples; the phase
    // histograms cover the dispatched requests.
    const Json &classes = m.at("requests");
    EXPECT_GE(classes.at("exact").at("count").asUint(), 1u);
    EXPECT_GE(classes.at("cache_hit").at("count").asUint(), 1u);
    EXPECT_GE(classes.at("estimate").at("count").asUint(), 1u);
    EXPECT_GT(classes.at("exact").at("p50_us").asDouble(), 0.0);
    EXPECT_GE(m.at("phases").at("execute").at("count").asUint(), 2u);
    EXPECT_GE(m.at("phases").at("flush").at("count").asUint(), 3u);

    // The dispatcher's one row: its dispatch counter covers the
    // dispatched (non-inline) requests; the phase histograms live in
    // `phases` only.
    const Json &shards = m.at("shards");
    ASSERT_EQ(shards.size(), 1u);
    const Json &row = shards.at(0);
    EXPECT_EQ(row.at("shard").asUint(), 0u);
    EXPECT_GE(row.at("dispatched").asUint(), 2u);
    EXPECT_TRUE(row.at("queue_len").isNumber());
    EXPECT_TRUE(row.at("queue_depth_hwm").isNumber());
    EXPECT_TRUE(row.at("last_batch").isNumber());
    EXPECT_TRUE(row.at("service").isObject());
    EXPECT_EQ(row.find("queue_wait"), nullptr);
    EXPECT_EQ(row.find("execute"), nullptr);

    const Json &cache = m.at("cache");
    EXPECT_GE(cache.at("result_hits").asUint(), 1u);
    EXPECT_GE(cache.at("engines_built").asUint(), 1u);
    EXPECT_GE(cache.at("estimates").asUint(), 1u);
    EXPECT_GE(m.at("slow_requests").size(), 1u);
}

TEST_F(ServeTest, MetricsPrometheusFormat)
{
    startServer(baseConfig());
    TestClient client(server->port());
    ASSERT_TRUE(client.call(R"({"op":"health"})").at("ok").asBool());

    const Json doc = client.call(
        R"({"op":"metrics","params":{"format":"prometheus"}})");
    ASSERT_TRUE(doc.at("ok").asBool()) << doc.str(0);
    const Json &result = doc.at("result");
    EXPECT_EQ(result.at("content_type").asString(),
              "text/plain; version=0.0.4");
    const std::string &text = result.at("text").asString();
    EXPECT_NE(text.find("# TYPE nucache_requests_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("nucache_requests_total "), std::string::npos);
    EXPECT_NE(text.find("nucache_serve_shards 1"), std::string::npos);
    EXPECT_NE(text.find("nucache_shard_queue_len{shard=\"0\"}"),
              std::string::npos);
    // Histograms carry the +Inf bucket and the _sum/_count pair.
    EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
    EXPECT_NE(text.find("nucache_request_duration_us_count"),
              std::string::npos);
}

TEST_F(ServeTest, StatsReportProcessGlobalCountsOnce)
{
    // profiles_built comes from the process-global ProfileStore, and
    // arena_records and private_records from the process-global
    // TraceArena: stats must report each store's own count.
    model::ProfileStore::instance().clear();
    startServer(baseConfig());
    TestClient client(server->port());

    ASSERT_TRUE(client
                    .call(R"({"op":"run_mix","params":{)"
                          R"("mix":"mix2_01","mode":"estimate"}})")
                    .at("ok")
                    .asBool());
    const std::uint64_t built =
        model::ProfileStore::instance().built();
    ASSERT_GT(built, 0u);
    ASSERT_TRUE(client.call(kMixLine).at("ok").asBool());

    const Json stats = client.call(R"({"op":"stats"})");
    EXPECT_EQ(stats.at("result")
                  .at("service")
                  .at("profiles_built")
                  .asUint(),
              built);
    const std::uint64_t records = TraceArena::instance().recordsGenerated();
    ASSERT_GT(records, 0u);
    EXPECT_EQ(
        stats.at("result").at("service").at("arena_records").asUint(),
        records);
    EXPECT_EQ(
        stats.at("result").at("service").at("private_records").asUint(),
        TraceArena::instance().privateRecordsGenerated());
}

TEST_F(ServeTest, NewRunsRejectedWhileShuttingDown)
{
    startServer(baseConfig());
    TestClient client(server->port());
    ASSERT_TRUE(client.call(R"({"op":"shutdown"})")
                    .at("ok")
                    .asBool());
    // The run may race the poll loop's exit: either an explicit
    // shutting_down rejection or a closed connection is acceptable,
    // but never a hang or a success.
    if (client.send(kMixLine)) {
        Json doc;
        if (client.recv(doc)) {
            EXPECT_FALSE(doc.at("ok").asBool());
            EXPECT_EQ(doc.at("error").at("code").asString(),
                      "shutting_down");
        }
    }
    server->join();
}

} // anonymous namespace
} // namespace nucache
