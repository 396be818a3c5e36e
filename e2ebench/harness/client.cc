#include "client.hh"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <ctime>
#include <deque>
#include <thread>

#include "common/net.hh"
#include "inputs.hh"
#include "obs/tracer.hh"
#include "serve/protocol.hh"

namespace e2e
{

namespace
{

/** A response slower than this counts as dropped. */
constexpr int kRecvTimeoutSeconds = 30;

struct Inflight
{
    std::uint64_t id = 0;
    std::uint32_t poolIndex = 0;
    Clock::time_point sent;
    std::uint64_t traceNs = 0;
};

struct ConnOutcome
{
    std::vector<double> latencyMs;
    std::vector<double> doneAt;
    FailureLedger ledger;
    std::vector<KeptResponse> kept;
    Clock::time_point last{};
    /**
     * The connection thread's own CPU seconds, refreshed after every
     * response and at its end, so the sampler can take the client's
     * share out of the process CPU time.
     */
    std::atomic<double> cpuS{0.0};
};

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * @return why @p line is not a successful answer to request @p id, or
 * "" when it is.  Checks only the envelope prefix the server writes
 * before the result: `{"v":"nucache-rpc/v1","id":<id>,"ok":true`.
 */
std::string
envelopeProblem(const std::string &line, std::uint64_t id)
{
    static const std::string head = std::string("{\"v\":\"") +
                                     nucache::serve::kProtocolVersion +
                                     "\",\"id\":";
    static const std::string ok = ",\"ok\":true";
    if (line.compare(0, head.size(), head) != 0)
        return "response without an id";
    std::uint64_t got = 0;
    const char *begin = line.data() + head.size();
    const char *end = line.data() + line.size();
    const auto parsed = std::from_chars(begin, end, got);
    if (parsed.ec != std::errc() || got != id)
        return "wrong echoed id";
    if (static_cast<std::size_t>(end - parsed.ptr) < ok.size() ||
        line.compare(static_cast<std::size_t>(parsed.ptr - line.data()),
                     ok.size(), ok) != 0) {
        const std::size_t code = line.find("\"code\":\"");
        if (code == std::string::npos)
            return "error response";
        const std::size_t from = code + 8;
        return "error response: " +
               line.substr(from, line.find('"', from) - from);
    }
    return {};
}

void
runConnection(const LoadSpec &spec, unsigned conn, Clock::time_point start,
              ConnOutcome &out)
{
    std::string err;
    const int fd = nucache::net::connectTcp("127.0.0.1", spec.port, err);
    if (fd < 0) {
        out.ledger.recordFailures(1, "connect failed: " + err);
        return;
    }
    timeval timeout{kRecvTimeoutSeconds, 0};
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    nucache::net::LineReader reader(fd);
    const nucache::obs::Tracer &tracer = nucache::obs::Tracer::instance();

    const std::vector<std::uint32_t> &order = spec.orders[conn];
    std::vector<bool> seen(spec.bodies->size(), false);
    std::deque<Inflight> inflight;
    std::size_t sent = 0;
    std::uint64_t answered = 0;
    // Ids are unique across connections, so a crossed response shows.
    const std::uint64_t idBase = (std::uint64_t{conn} + 1) << 40;
    const auto mayCall = [&] {
        return spec.once ? sent < order.size()
                         : secondsSince(start) < spec.seconds;
    };

    std::string response;
    while (true) {
        while (inflight.size() < spec.depth && mayCall()) {
            const std::uint32_t idx = order[sent % order.size()];
            Inflight f;
            f.id = idBase + sent++;
            f.poolIndex = idx;
            const std::string line =
                requestLine(f.id, (*spec.bodies)[idx]);
            f.sent = Clock::now();
            f.traceNs = spec.traced ? tracer.nowNs() : 0;
            if (!nucache::net::writeAll(fd, line.data(), line.size())) {
                out.ledger.record("send failed");
                break;
            }
            inflight.push_back(f);
        }
        if (inflight.empty() || !reader.readLine(response))
            break;
        const Clock::time_point now = Clock::now();
        const Inflight f = inflight.front();
        inflight.pop_front();
        out.latencyMs.push_back(
            std::chrono::duration<double, std::milli>(now - f.sent)
                .count());
        out.doneAt.push_back(
            std::chrono::duration<double>(now - start).count());
        out.last = now;
        out.cpuS.store(threadCpuSeconds(), std::memory_order_relaxed);
        if (spec.traced) {
            nucache::obs::Tracer::instance().complete(
                "request", "e2ebench", f.traceNs,
                tracer.nowNs() - f.traceNs);
        }
        const std::string problem = envelopeProblem(response, f.id);
        out.ledger.record(problem);
        if (!seen[f.poolIndex] || ++answered % spec.keepEvery == 0) {
            seen[f.poolIndex] = true;
            out.kept.push_back({f.poolIndex, problem.empty(), response});
        }
    }
    // Whatever is still in flight never came back.
    out.ledger.recordFailures(inflight.size(), "dropped response");
    ::close(fd);
    out.cpuS.store(threadCpuSeconds(), std::memory_order_relaxed);
}

} // anonymous namespace

LoadResult
runLoad(const LoadSpec &spec)
{
    std::vector<ConnOutcome> outcomes(spec.orders.size());
    LoadResult result;
    std::vector<std::thread> threads;
    // The load generator shares the process with the server: CPU time
    // is the process's minus the connection threads'.
    const auto serverCpu = [&outcomes] {
        double s = processCpuSeconds();
        for (const ConnOutcome &o : outcomes)
            s -= o.cpuS.load(std::memory_order_relaxed);
        return s;
    };
    const double cpu0 = processCpuSeconds();
    const Clock::time_point start = Clock::now();
    for (unsigned c = 0; c < spec.orders.size(); ++c) {
        threads.emplace_back([&spec, &outcomes, c, start] {
            runConnection(spec, c, start, outcomes[c]);
        });
    }
    if (spec.windowSeconds > 0.0) {
        // Sample CPU at each window boundary inside the sending period.
        double cpu = cpu0;
        for (int w = 1; w * spec.windowSeconds <= spec.seconds; ++w) {
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                w * spec.windowSeconds)));
            const double now = serverCpu();
            result.windowCpuS.push_back(now - cpu);
            cpu = now;
        }
    }
    for (std::thread &t : threads)
        t.join();
    result.serverCpuS = serverCpu() - cpu0;

    Clock::time_point last = start;
    for (ConnOutcome &o : outcomes) {
        result.latencyMs.insert(result.latencyMs.end(),
                                o.latencyMs.begin(), o.latencyMs.end());
        result.doneAt.insert(result.doneAt.end(), o.doneAt.begin(),
                             o.doneAt.end());
        result.ledger.merge(o.ledger);
        for (KeptResponse &k : o.kept)
            result.kept.push_back(std::move(k));
        last = std::max(last, o.last);
    }
    result.seconds = std::chrono::duration<double>(last - start).count();
    return result;
}

WindowStats
windowed(const LoadResult &load, double window_seconds, double tail_q)
{
    const std::size_t windows = load.windowCpuS.size();
    std::vector<std::vector<double>> latency(windows);
    for (std::size_t i = 0; i < load.doneAt.size(); ++i) {
        const auto w = static_cast<std::size_t>(load.doneAt[i] /
                                                window_seconds);
        if (w < windows)
            latency[w].push_back(load.latencyMs[i]);
    }
    WindowStats stats;
    for (std::size_t w = 0; w < windows; ++w) {
        const auto n = static_cast<double>(latency[w].size());
        if (n == 0.0)
            continue;
        stats.rate.push_back(n / window_seconds);
        stats.p50Ms.push_back(median(latency[w]));
        stats.tailMs.push_back(quantile(latency[w], tail_q));
        stats.cpuMs.push_back(load.windowCpuS[w] * 1e3 / n);
    }
    return stats;
}

std::string
roundTrip(std::uint16_t port, const std::string &line)
{
    std::string err;
    const int fd = nucache::net::connectTcp("127.0.0.1", port, err);
    if (fd < 0)
        return {};
    timeval timeout{kRecvTimeoutSeconds, 0};
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    std::string response;
    nucache::net::LineReader reader(fd);
    if (!nucache::net::writeAll(fd, line.data(), line.size()) ||
        !reader.readLine(response))
        response.clear();
    ::close(fd);
    return response;
}

} // namespace e2e
