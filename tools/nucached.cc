/**
 * @file
 * nucached: the persistent NUcache simulation server.  Listens on an
 * IPv4 TCP socket, speaks newline-delimited `nucache-rpc/v1` JSON
 * (see src/serve/protocol.hh), and runs one dispatcher that batches
 * compatible run_mix requests onto a shared RunEngine; health/stats
 * probes are answered on the event loop.
 *
 * Usage:
 *   nucached [--host=127.0.0.1] [--port=7411] [--jobs=N]
 *            [--records=250000]
 *            [--queue-depth=512] [--batch-max=8]
 *            [--deadline-ms=30000] [--max-conns=1024] [--cache=256]
 *            [--max-outbound-kib=8192]
 *            [--check] [--port-file=FILE] [--trace-out=FILE]
 *            [--quiet]
 *
 * --max-outbound-kib caps each connection's outbound buffer: a
 * client that stops reading past the cap is shed (slow_clients in
 * stats) instead of blocking the event loop.
 *
 * --port=0 binds an ephemeral port; --port-file writes the bound
 * port to FILE once the server is listening (for scripts and CI).
 * --trace-out arms the process tracer for the server's lifetime and
 * writes a Chrome trace of the served traffic (one span per request
 * plus per-phase spans) to FILE at shutdown.
 * SIGINT/SIGTERM and the `shutdown` op drain admitted work, flush
 * every response, and exit 0.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "check/check_mode.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/tracer.hh"
#include "serve/server.hh"

using namespace nucache;

namespace
{

std::atomic<serve::Server *> g_server{nullptr};

extern "C" void
onSignal(int)
{
    serve::Server *server = g_server.load(std::memory_order_acquire);
    if (server != nullptr)
        server->signalShutdown();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv, {"check", "quiet"});
    if (args.has("quiet"))
        setQuiet(true);

    serve::ServerConfig cfg;
    cfg.host = args.get("host", cfg.host);
    cfg.port = static_cast<std::uint16_t>(args.getInt("port", cfg.port));
    cfg.queueDepth = args.getInt("queue-depth", cfg.queueDepth);
    cfg.defaultDeadlineMs =
        args.getInt("deadline-ms", cfg.defaultDeadlineMs);
    cfg.batchMax = args.getInt("batch-max", cfg.batchMax);
    cfg.maxConnections = args.getInt("max-conns", cfg.maxConnections);
    // Unknown flags are otherwise ignored; this one would silently
    // change nothing, so say why it is gone.
    if (args.has("serve-shards"))
        fatal("--serve-shards was removed: nucached runs one dispatcher");
    cfg.maxOutboundBytes =
        args.getInt("max-outbound-kib", cfg.maxOutboundBytes / 1024) *
        std::size_t{1024};
    if (cfg.maxOutboundBytes == 0)
        fatal("--max-outbound-kib must be positive");
    cfg.service.jobs = static_cast<unsigned>(
        args.getInt("jobs", ThreadPool::hardwareConcurrency()));
    cfg.service.defaultRecords =
        args.getInt("records", cfg.service.defaultRecords);
    cfg.service.resultCacheEntries =
        args.getInt("cache", cfg.service.resultCacheEntries);
    cfg.service.check = args.has("check") || check::enabled();
    if (cfg.service.defaultRecords < serve::kMinRecords ||
        cfg.service.defaultRecords > serve::kMaxRecords)
        fatal("--records must be in [", serve::kMinRecords, ", ",
              serve::kMaxRecords, "]");

    const std::string trace_out = args.get("trace-out", "");
    if (!trace_out.empty())
        obs::Tracer::instance().start(trace_out);

    serve::Server server(cfg);
    std::string err;
    if (!server.start(err))
        fatal("nucached: ", err);

    g_server.store(&server, std::memory_order_release);
    struct sigaction sa{};
    sa.sa_handler = onSignal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    // A client vanishing mid-write must not kill the process.
    signal(SIGPIPE, SIG_IGN);

    // The "listening" line is the readiness signal scripts wait for;
    // --port-file additionally persists the (possibly ephemeral)
    // bound port for them.
    std::printf("nucached listening on %s:%u (jobs=%u, queue=%zu, "
                "batch=%zu, records=%llu)\n",
                cfg.host.c_str(), server.port(), cfg.service.jobs,
                cfg.queueDepth, cfg.batchMax,
                static_cast<unsigned long long>(
                    cfg.service.defaultRecords));
    std::fflush(stdout);
    const std::string port_file = args.get("port-file", "");
    if (!port_file.empty()) {
        std::ofstream os(port_file);
        if (!os)
            fatal("cannot write port file '", port_file, "'");
        os << server.port() << "\n";
    }

    server.join();
    g_server.store(nullptr, std::memory_order_release);

    if (!trace_out.empty()) {
        obs::Tracer::instance().stop();
        inform("nucached: wrote trace to ", trace_out);
    }

    const Json stats = server.statsJson();
    std::fprintf(stderr,
                 "nucached: drained and stopped (%s requests, "
                 "%s responses)\n",
                 stats.at("requests").str(0).c_str(),
                 stats.at("responses").str(0).c_str());
    return 0;
}
