#include "serve/server.hh"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace nucache::serve
{

namespace
{

/** @return elapsed ms between @p start and @p end. */
double
elapsedMs(std::chrono::steady_clock::time_point start,
          std::chrono::steady_clock::time_point end)
{
    return std::chrono::duration<double, std::milli>(end - start)
        .count();
}

/**
 * Frame a result-cache hit without a Json round trip: the payload is
 * the pre-serialized result and only the envelope (protocol version,
 * echoed id, ok) is spliced around it.  Mirrors okResponse()'s key
 * order; test_serve's pipelining test parses both shapes.
 */
std::string
fastHitLine(const Request &req, const std::string &payload)
{
    std::string line = "{\"v\":\"";
    line += kProtocolVersion;
    line += '"';
    if (req.hasId) {
        line += ",\"id\":";
        line += std::to_string(req.id);
    }
    line += ",\"ok\":true,\"result\":";
    line += payload;
    line += "}\n";
    return line;
}

/** @return the latency-series class of a dispatcher-path response:
 *  errors, then the answer source (cache / model / simulator). */
RequestClass
classifyResponse(const Request &req, const Json &response)
{
    const Json *ok = response.find("ok");
    if (ok == nullptr || !ok->isBool() || !ok->asBool())
        return RequestClass::Error;
    if (req.op == Op::RunTrace)
        return RequestClass::Trace;
    if (const Json *result = response.find("result");
        result != nullptr) {
        if (const Json *server = result->find("server");
            server != nullptr) {
            const Json *cached = server->find("cached");
            if (cached != nullptr && cached->isBool() &&
                cached->asBool())
                return RequestClass::CacheHit;
        }
    }
    return req.mode == Mode::Estimate ? RequestClass::Estimate
                                      : RequestClass::Exact;
}

/** @return the counter @p key of the service stats @p svc. */
std::uint64_t
svcCount(const Json &svc, const char *key)
{
    const Json *v = svc.find(key);
    return v != nullptr && v->isNumber() ? v->asUint() : 0;
}

} // anonymous namespace

Server::Server(ServerConfig config)
    : cfg(std::move(config)), service(cfg.service)
{
    if (cfg.queueDepth == 0)
        cfg.queueDepth = 1;
    if (cfg.batchMax == 0)
        cfg.batchMax = 1;
    if (cfg.maxOutboundBytes == 0)
        cfg.maxOutboundBytes = 1;
}

Server::~Server()
{
    requestShutdown();
    join();
}

bool
Server::start(std::string &err)
{
    if (cfg.shards != 1) {
        err = "shards = " + std::to_string(cfg.shards) +
              ": the server runs one dispatcher (shards must be 1)";
        return false;
    }
    if (!wake.valid()) {
        err = "cannot create the wake pipe";
        return false;
    }
    epollFd = ::epoll_create1(0);
    if (epollFd < 0) {
        err = std::string("epoll_create1: ") + std::strerror(errno);
        return false;
    }
    listenFd = net::listenTcp(cfg.host, cfg.port, err);
    if (listenFd < 0) {
        ::close(epollFd);
        epollFd = -1;
        return false;
    }
    boundPort = net::localPort(listenFd);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(epollFd, EPOLL_CTL_ADD, wake.readFd(), &ev);
    ev.data.u64 = kListenTag;
    ::epoll_ctl(epollFd, EPOLL_CTL_ADD, listenFd, &ev);
    listenerArmed = true;

    started = Clock::now();
    loopThread = std::thread(&Server::eventLoop, this);
    dispatchThread = std::thread(&Server::dispatchLoop, this);
    return true;
}

void
Server::requestShutdown()
{
    stopping.store(true, std::memory_order_release);
    {
        // Under the queue mutex, so the dispatcher cannot miss the
        // flag between its predicate check and its wait.
        std::lock_guard<std::mutex> lock(queueMtx);
    }
    queueCv.notify_all();
    wake.notify();
}

void
Server::signalShutdown()
{
    // Only async-signal-safe operations: an atomic store and one
    // write() on the wake pipe.  The event loop promotes this to a
    // full requestShutdown() (condition_variable::notify is not
    // signal-safe).
    signalled.store(true, std::memory_order_release);
    wake.notify();
}

void
Server::join()
{
    std::lock_guard<std::mutex> lock(lifecycleMtx);
    if (threadsJoined)
        return;
    if (loopThread.joinable())
        loopThread.join();
    if (dispatchThread.joinable())
        dispatchThread.join();
    threadsJoined = true;
}

void
Server::eventLoop()
{
    loopThreadId.store(std::this_thread::get_id(),
                       std::memory_order_relaxed);
    while (true) {
        if (signalled.exchange(false, std::memory_order_acq_rel))
            requestShutdown();

        const bool stop = stopping.load(std::memory_order_acquire);
        if (stop && listenerArmed) {
            // The listener goes quiet once shutdown starts; pending
            // sockets in the backlog are simply never accepted.
            ::epoll_ctl(epollFd, EPOLL_CTL_DEL, listenFd, nullptr);
            listenerArmed = false;
        }
        if (stop) {
            if (drained.load(std::memory_order_acquire)) {
                std::lock_guard<std::mutex> lock(connsMtx);
                bool flushed = true;
                for (const auto &[id, conn] : conns) {
                    (void)id;
                    if (!flushedLocked(conn)) {
                        flushed = false;
                        break;
                    }
                }
                if (flushed)
                    break;
            }
        }

        // The timeout bounds how long a drained-but-unflushed state
        // can linger when no event arrives.
        epoll_event events[128];
        const int n = ::epoll_wait(epollFd, events, 128, 100);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            // A broken epoll set cannot serve anything; drain and
            // exit rather than spinning on the same errno forever.
            warn("nucached: epoll_wait: ", std::strerror(errno));
            requestShutdown();
            continue;
        }

        for (int i = 0; i < n; ++i) {
            const std::uint64_t tag = events[i].data.u64;
            const std::uint32_t ev = events[i].events;
            if (tag == kWakeTag) {
                wake.drain();
                continue;
            }
            if (tag == kListenTag) {
                if (!stop)
                    acceptPending();
                continue;
            }
            // Only this thread mutates the map, so the pointer stays
            // valid after the lookup; the buffer fields it guards are
            // still accessed under connsMtx.
            Connection *conn;
            {
                std::lock_guard<std::mutex> lock(connsMtx);
                const auto it = conns.find(tag);
                if (it == conns.end())
                    continue;
                conn = &it->second;
            }
            if ((ev & EPOLLIN) != 0) {
                if (!readFrom(tag, *conn)) {
                    closeConn(tag);
                    continue;
                }
            } else if ((ev & (EPOLLERR | EPOLLHUP)) != 0) {
                closeConn(tag);
                continue;
            }
            if ((ev & EPOLLOUT) != 0) {
                bool alive, done;
                {
                    std::lock_guard<std::mutex> lock(connsMtx);
                    alive = flushOut(*conn);
                    done = conn->closeAfterFlush && flushedLocked(*conn);
                }
                if (!alive || done) {
                    closeConn(tag);
                    continue;
                }
                updateInterest(tag, *conn);
            }
        }

        // Connections marked by worker threads since the last pass:
        // sheds to perform and fresh output to flush.  Flushing here
        // (the socket is almost always writable) delivers most
        // responses without a second epoll_wait round trip; EPOLLOUT
        // only takes over when the kernel buffer is actually full.
        std::vector<std::uint64_t> work;
        {
            std::lock_guard<std::mutex> lock(connsMtx);
            work.swap(dirty);
        }
        for (const std::uint64_t id : work) {
            Connection *conn;
            bool kill;
            {
                std::lock_guard<std::mutex> lock(connsMtx);
                const auto it = conns.find(id);
                if (it == conns.end())
                    continue;
                conn = &it->second;
                conn->inDirty = false;
                kill = conn->kill;
            }
            if (kill) {
                closeConn(id);
                continue;
            }
            bool alive, done;
            {
                std::lock_guard<std::mutex> lock(connsMtx);
                alive = flushOut(*conn);
                done = conn->closeAfterFlush && flushedLocked(*conn);
            }
            if (!alive || done) {
                closeConn(id);
                continue;
            }
            updateInterest(id, *conn);
        }
    }

    {
        std::lock_guard<std::mutex> lock(connsMtx);
        for (auto &[id, conn] : conns) {
            (void)id;
            metrics.outboundSub(conn.slotBytes + conn.out.size());
            ::close(conn.fd);
        }
        conns.clear();
        dirty.clear();
    }
    if (listenFd >= 0) {
        ::close(listenFd);
        listenFd = -1;
    }
    if (epollFd >= 0) {
        ::close(epollFd);
        epollFd = -1;
    }
}

void
Server::acceptPending()
{
    while (true) {
        const int fd = net::acceptConnection(listenFd);
        if (fd < 0)
            return;
        net::setNonBlocking(fd);
        net::setNoDelay(fd);
        if (cfg.sockSndBufBytes > 0)
            net::setSendBuffer(fd, cfg.sockSndBufBytes);
        std::size_t count;
        {
            std::lock_guard<std::mutex> lock(connsMtx);
            count = conns.size();
        }
        if (count >= cfg.maxConnections) {
            ++rejectedConns;
            std::string line =
                errorResponse(error::kOverload,
                              "connection limit reached")
                    .str(0);
            line += '\n';
            // Best-effort nonblocking write: a rejected client that
            // cannot take the error byte-for-byte just sees the
            // close.  Never block the event loop on a stranger.
            (void)::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
            ::close(fd);
            continue;
        }
        std::uint64_t id;
        {
            std::lock_guard<std::mutex> lock(connsMtx);
            id = nextConnId++;
            Connection conn;
            conn.fd = fd;
            conns.emplace(id, std::move(conn));
        }
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = id;
        ::epoll_ctl(epollFd, EPOLL_CTL_ADD, fd, &ev);
        ++accepted;
    }
}

bool
Server::readFrom(std::uint64_t conn_id, Connection &conn)
{
    char buf[65536];
    while (true) {
        const ssize_t r = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (r == 0)
            return false;
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return errno == EAGAIN || errno == EWOULDBLOCK;
        }
        if (conn.closeAfterFlush)
            continue; // discard bytes after a framing violation
        conn.in.append(buf, static_cast<std::size_t>(r));
        std::size_t nl;
        while ((nl = conn.in.find('\n')) != std::string::npos) {
            std::string line = conn.in.substr(0, nl);
            conn.in.erase(0, nl + 1);
            if (line.size() > cfg.maxLineBytes) {
                ++tooLarge;
                queueSlotResponse(
                    conn_id, conn.nextSeq++,
                    errorResponse(error::kTooLarge,
                                  "request line exceeds " +
                                      std::to_string(cfg.maxLineBytes) +
                                      " bytes"),
                    ReqTrace{});
                conn.closeAfterFlush = true;
                conn.in.clear();
                return true;
            }
            handleLine(conn_id, conn, line);
            if (conn.closeAfterFlush) {
                conn.in.clear();
                return true;
            }
        }
        if (conn.in.size() > cfg.maxLineBytes) {
            ++tooLarge;
            queueSlotResponse(
                conn_id, conn.nextSeq++,
                errorResponse(error::kTooLarge,
                              "request line exceeds " +
                                  std::to_string(cfg.maxLineBytes) +
                                  " bytes without a newline"),
                ReqTrace{});
            conn.closeAfterFlush = true;
            conn.in.clear();
            return true;
        }
    }
}

void
Server::handleLine(std::uint64_t conn_id, Connection &conn,
                   const std::string &line)
{
    if (line.find_first_not_of(" \t\r") == std::string::npos)
        return;
    ++requests;

    // The request's phase trace starts here; inline answers stamp
    // `executed` just before queueing, dispatched runs carry the
    // trace through their Pending.
    ReqTrace trace;
    trace.live = obs::serveMetricsEnabled();
    if (trace.live)
        trace.parsed = Clock::now();

    Request req;
    std::string err;
    if (!parseRequest(line, req, err)) {
        ++badRequests;
        trace.cls = RequestClass::Error;
        if (trace.live)
            trace.executed = Clock::now();
        queueSlotResponse(conn_id, conn.nextSeq++,
                          errorResponse(error::kBadRequest, err),
                          trace);
        return;
    }

    switch (req.op) {
      case Op::Health:
        if (trace.live)
            trace.executed = Clock::now();
        queueSlotResponse(conn_id, conn.nextSeq++,
                          okResponse(req, healthResult()), trace);
        return;
      case Op::Stats:
        if (trace.live)
            trace.executed = Clock::now();
        queueSlotResponse(conn_id, conn.nextSeq++,
                          okResponse(req, statsJson()), trace);
        return;
      case Op::Metrics: {
        metrics.scrapes.fetch_add(1, std::memory_order_relaxed);
        Json result;
        if (req.promFormat) {
            result = Json::object();
            result["content_type"] = "text/plain; version=0.0.4";
            result["text"] = prometheusText(metricsJson());
        } else {
            result = metricsJson();
        }
        if (trace.live)
            trace.executed = Clock::now();
        queueSlotResponse(conn_id, conn.nextSeq++,
                          okResponse(req, std::move(result)), trace);
        return;
      }
      case Op::Shutdown: {
        Json result = Json::object();
        result["draining"] = true;
        if (trace.live)
            trace.executed = Clock::now();
        queueSlotResponse(conn_id, conn.nextSeq++,
                          okResponse(req, std::move(result)), trace);
        requestShutdown();
        return;
      }
      case Op::RunMix:
      case Op::RunTrace:
        break;
    }

    const bool stream = req.stream;

    // Warm fast path: a result-cache hit is answered inline by this
    // thread — deterministic simulation makes the cached bytes
    // authoritative, and skipping the queue → dispatcher → wake round
    // trip is what lets pipelined warm traffic scale past the
    // dispatcher's handoff rate.
    // Estimate-mode requests take the same inline path one step
    // further: with warm profiles the analytical model itself is
    // cheap enough to evaluate right here (a median of ~80 us per
    // evaluation over serve_inline's 2/4/8-core pool, ~0.13 ms for an
    // eight-core mix, on a 4-thread host), so the first estimate for
    // a (mix, policy, geometry) is answered inline too — only a cold
    // workload profile falls through to the dispatcher.
    if (!stream) {
        std::string payload;
        bool cached = true;
        const bool hit =
            req.mode == Mode::Estimate
                ? service.tryEstimate(req, payload, &cached)
                : service.tryCached(req, payload);
        if (hit) {
            // estimate_inline is a model evaluation; a result-cache
            // read is a cache_hit whichever mode asked for it.
            trace.cls = cached ? RequestClass::CacheHit
                               : RequestClass::EstimateInline;
            if (trace.live)
                trace.executed = Clock::now();
            queueSlotLine(conn_id, conn.nextSeq++,
                          fastHitLine(req, payload), trace);
            return;
        }
    }

    Pending pending;
    pending.conn = conn_id;
    pending.stream = stream;
    pending.enqueued = Clock::now();
    pending.deadlineMs = req.deadlineMs != 0 ? req.deadlineMs
                                             : cfg.defaultDeadlineMs;
    if (stream) {
        std::lock_guard<std::mutex> lock(connsMtx);
        ++conn.openStreams;
        // Streamed runs have no single flush instant; they are
        // covered by the service counters, not per-request tracing.
        trace.live = false;
    } else {
        pending.seq = conn.nextSeq++;
    }
    trace.enqueued = pending.enqueued;
    pending.trace = trace;
    pending.req = std::move(req);

    // The stopping check lives inside the queue's critical section:
    // the dispatcher only declares itself drained under this mutex
    // with the flag set and the queue empty, so a request admitted
    // here can never slip behind a drained dispatcher and hang
    // shutdown.
    bool admitted = false;
    bool draining = false;
    {
        std::lock_guard<std::mutex> lock(queueMtx);
        if (stopping.load(std::memory_order_acquire)) {
            draining = true;
        } else if (queue.size() < cfg.queueDepth) {
            queue.push_back(std::move(pending));
            queueDepthHwm =
                std::max(queueDepthHwm, std::uint64_t{queue.size()});
            admitted = true;
        }
    }
    if (admitted) {
        queueCv.notify_one();
        return;
    }

    Json rejection;
    if (draining) {
        ++rejectedShutdown;
        rejection = errorResponse(pending.req, error::kShuttingDown,
                                  "server is draining");
    } else {
        ++overloads;
        rejection =
            errorResponse(pending.req, error::kOverload,
                          "admission queue full (depth " +
                              std::to_string(cfg.queueDepth) + ")");
    }
    if (stream) {
        {
            std::lock_guard<std::mutex> lock(connsMtx);
            if (conn.openStreams > 0)
                --conn.openStreams;
        }
        queueOobFrame(conn_id, rejection);
    } else {
        // The rejection fills the sequence slot the request was
        // assigned, so pipelined responses stay in request order.
        trace.cls = RequestClass::Error;
        if (trace.live)
            trace.executed = Clock::now();
        queueSlotResponse(conn_id, pending.seq, rejection, trace);
    }
}

void
Server::dispatchLoop()
{
    while (true) {
        std::vector<Pending> batch;
        {
            std::unique_lock<std::mutex> lock(queueMtx);
            queueCv.wait(lock, [&] {
                return !queue.empty() ||
                       stopping.load(std::memory_order_acquire);
            });
            if (queue.empty()) {
                // Shutdown with nothing left: the queue is drained.
                drained.store(true, std::memory_order_release);
                wake.notify();
                return;
            }
            batch.push_back(std::move(queue.front()));
            queue.pop_front();
            // Group immediately-compatible admitted requests into
            // one engine batch (sameBatch: one tier and measurement
            // window, no telemetry): they run as parallel jobs on one
            // engine and share its arena cursors and run-alone cache.
            for (auto it = queue.begin();
                 it != queue.end() && batch.size() < cfg.batchMax;) {
                if (sameBatch(batch.front().req, it->req,
                              service.defaultRecords())) {
                    batch.push_back(std::move(*it));
                    it = queue.erase(it);
                } else {
                    ++it;
                }
            }
        }

        dispatched.fetch_add(batch.size(), std::memory_order_relaxed);
        lastBatch.store(batch.size(), std::memory_order_relaxed);

        // Queue deadlines are enforced here, at dispatch: a request
        // that already waited past its deadline gets an immediate
        // deadline_exceeded instead of burning simulation time.
        std::vector<Request> reqs;
        std::vector<Pending> live;
        const Clock::time_point now = Clock::now();
        for (Pending &p : batch) {
            if (p.trace.live)
                p.trace.dispatched = now;
            const double waited = elapsedMs(p.enqueued, now);
            if (waited > static_cast<double>(p.deadlineMs)) {
                ++deadlineExpired;
                finishResponse(
                    p, errorResponse(p.req, error::kDeadlineExceeded,
                                     "queued " + std::to_string(waited) +
                                         " ms, past the " +
                                         std::to_string(p.deadlineMs) +
                                         " ms deadline"));
                continue;
            }
            reqs.push_back(std::move(p.req));
            live.push_back(std::move(p));
        }
        if (reqs.empty())
            continue;
        service.executeBatch(
            reqs,
            [&](std::size_t i, Json response) {
                finishResponse(live[i], response);
            },
            [&](std::size_t i, Json frame) {
                queueOobFrame(live[i].conn, frame);
            });
    }
}

void
Server::finishResponse(const Pending &p, const Json &response)
{
    if (!p.stream) {
        ReqTrace trace = p.trace;
        if (trace.live) {
            trace.executed = Clock::now();
            trace.cls = classifyResponse(p.req, response);
        }
        queueSlotResponse(p.conn, p.seq, response, trace);
        return;
    }
    queueOobFrame(p.conn, response);
    {
        std::lock_guard<std::mutex> lock(connsMtx);
        const auto it = conns.find(p.conn);
        if (it != conns.end() && it->second.openStreams > 0)
            --it->second.openStreams;
    }
    // Re-evaluate the drain condition now that the stream is closed.
    wake.notify();
}

void
Server::queueSlotResponse(std::uint64_t conn_id, std::uint64_t seq,
                          const Json &response, ReqTrace trace)
{
    std::string line = response.str(0);
    line += '\n';
    queueSlotLine(conn_id, seq, std::move(line), trace);
}

void
Server::queueSlotLine(std::uint64_t conn_id, std::uint64_t seq,
                      std::string line, ReqTrace trace)
{
    const std::size_t bytes = line.size();
    {
        std::lock_guard<std::mutex> lock(connsMtx);
        const auto it = conns.find(conn_id);
        if (it == conns.end()) {
            ++droppedResponses;
            return;
        }
        Connection &conn = it->second;
        if (trace.live)
            trace.queued = Clock::now();
        conn.slotBytes += bytes;
        conn.slots.emplace(seq, Slot{std::move(line), trace});
        metrics.outboundAdd(bytes);
        pumpLocked(conn);
        capCheckLocked(conn_id, conn);
        markDirtyLocked(conn_id);
    }
    ++responses;
    if (std::this_thread::get_id() !=
        loopThreadId.load(std::memory_order_relaxed))
        wake.notify();
}

void
Server::queueOobFrame(std::uint64_t conn_id, const Json &frame)
{
    std::string line = frame.str(0);
    line += '\n';
    {
        std::lock_guard<std::mutex> lock(connsMtx);
        const auto it = conns.find(conn_id);
        if (it == conns.end()) {
            ++droppedResponses;
            return;
        }
        Connection &conn = it->second;
        conn.queuedBytes += line.size();
        conn.out += line;
        metrics.outboundAdd(line.size());
        capCheckLocked(conn_id, conn);
        markDirtyLocked(conn_id);
    }
    ++responses;
    if (std::this_thread::get_id() !=
        loopThreadId.load(std::memory_order_relaxed))
        wake.notify();
}

void
Server::pumpLocked(Connection &conn)
{
    while (true) {
        const auto it = conn.slots.find(conn.nextFlush);
        if (it == conn.slots.end())
            break;
        Slot &slot = it->second;
        conn.slotBytes -= slot.line.size();
        conn.queuedBytes += slot.line.size();
        conn.out += slot.line;
        // The response's last byte sits at queuedBytes; its trace
        // finalizes once sentBytes crosses that watermark.
        if (slot.trace.live)
            conn.marks.push_back({conn.queuedBytes, slot.trace});
        conn.slots.erase(it);
        ++conn.nextFlush;
    }
}

bool
Server::capCheckLocked(std::uint64_t conn_id, Connection &conn)
{
    (void)conn_id;
    if (conn.kill)
        return true;
    if (conn.out.size() + conn.slotBytes <= cfg.maxOutboundBytes)
        return false;
    // The client has stopped reading while responses pile up: shed
    // it.  The loop thread performs the close; nothing is flushed
    // (the socket is stalled anyway) and nothing ever blocks.
    conn.kill = true;
    ++slowClients;
    return true;
}

void
Server::markDirtyLocked(std::uint64_t conn_id)
{
    const auto it = conns.find(conn_id);
    if (it == conns.end() || it->second.inDirty)
        return;
    it->second.inDirty = true;
    dirty.push_back(conn_id);
}

bool
Server::flushedLocked(const Connection &conn) const
{
    return conn.out.empty() && conn.slots.empty() &&
           conn.nextFlush == conn.nextSeq && conn.openStreams == 0;
}

bool
Server::flushOut(Connection &conn)
{
    bool alive = true;
    while (!conn.out.empty()) {
        const ssize_t w = ::send(conn.fd, conn.out.data(),
                                 conn.out.size(), MSG_NOSIGNAL);
        if (w > 0) {
            conn.sentBytes += static_cast<std::uint64_t>(w);
            metrics.outboundSub(static_cast<std::uint64_t>(w));
            conn.out.erase(0, static_cast<std::size_t>(w));
            continue;
        }
        if (w < 0 && errno == EINTR)
            continue;
        alive = w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
        break;
    }
    // Every response whose watermark the kernel now holds is flushed:
    // finalize its trace (histograms, slow log, Tracer spans).
    if (!conn.marks.empty() &&
        conn.marks.front().target <= conn.sentBytes) {
        const Clock::time_point flushedAt = Clock::now();
        do {
            metrics.finalize(conn.marks.front().trace, flushedAt);
            conn.marks.pop_front();
        } while (!conn.marks.empty() &&
                 conn.marks.front().target <= conn.sentBytes);
    }
    return alive;
}

void
Server::updateInterest(std::uint64_t conn_id, Connection &conn)
{
    bool want;
    {
        std::lock_guard<std::mutex> lock(connsMtx);
        want = !conn.out.empty();
    }
    if (want == conn.wantWrite)
        return;
    epoll_event ev{};
    ev.events = want ? EPOLLIN | EPOLLOUT : EPOLLIN;
    ev.data.u64 = conn_id;
    ::epoll_ctl(epollFd, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.wantWrite = want;
}

void
Server::closeConn(std::uint64_t conn_id)
{
    std::lock_guard<std::mutex> lock(connsMtx);
    const auto it = conns.find(conn_id);
    if (it == conns.end())
        return;
    // Undelivered bytes (parked slots + unsent out) leave the
    // outbound gauge with the connection; their traces never
    // finalize (the responses were never flushed).
    metrics.outboundSub(it->second.slotBytes +
                        it->second.out.size());
    ::epoll_ctl(epollFd, EPOLL_CTL_DEL, it->second.fd, nullptr);
    ::close(it->second.fd);
    conns.erase(it);
}

Json
Server::healthResult() const
{
    Json r = Json::object();
    r["status"] = shuttingDown() ? "draining" : "ok";
    r["version"] = kProtocolVersion;
    r["uptime_ms"] = elapsedMs(started, Clock::now());
    // Always 1 (one dispatcher); kept for clients that read them.
    r["shards"] = std::uint64_t{1};
    r["serve_shards"] = std::uint64_t{1};
    return r;
}

Json
Server::statsJson() const
{
    Json s = Json::object();
    s["uptime_ms"] = elapsedMs(started, Clock::now());
    {
        std::lock_guard<std::mutex> lock(connsMtx);
        s["connections"] = std::uint64_t{conns.size()};
    }
    {
        std::lock_guard<std::mutex> lock(queueMtx);
        s["queue_len"] = std::uint64_t{queue.size()};
    }
    s["queue_depth"] = std::uint64_t{cfg.queueDepth};
    s["serve_shards"] = std::uint64_t{1};
    s["batch_max"] = std::uint64_t{cfg.batchMax};
    s["max_connections"] = std::uint64_t{cfg.maxConnections};
    s["max_outbound_bytes"] = std::uint64_t{cfg.maxOutboundBytes};
    s["accepted"] = accepted.load();
    s["rejected_connections"] = rejectedConns.load();
    s["requests"] = requests.load();
    s["responses"] = responses.load();
    s["bad_requests"] = badRequests.load();
    s["too_large"] = tooLarge.load();
    s["overloads"] = overloads.load();
    s["deadline_expired"] = deadlineExpired.load();
    s["rejected_shutting_down"] = rejectedShutdown.load();
    s["dropped_responses"] = droppedResponses.load();
    s["slow_clients"] = slowClients.load();
    s["service"] = service.statsJson();
    return s;
}

Json
Server::metricsJson() const
{
    Json m = Json::object();
    m["schema"] = "nucache-metrics/v1";

    Json server = Json::object();
    server["uptime_ms"] = elapsedMs(started, Clock::now());
    {
        std::lock_guard<std::mutex> lock(connsMtx);
        server["connections"] = std::uint64_t{conns.size()};
    }
    server["accepted"] = accepted.load();
    server["rejected_connections"] = rejectedConns.load();
    server["requests"] = requests.load();
    server["responses"] = responses.load();
    server["bad_requests"] = badRequests.load();
    server["too_large"] = tooLarge.load();
    server["overloads"] = overloads.load();
    server["deadline_expired"] = deadlineExpired.load();
    server["rejected_shutting_down"] = rejectedShutdown.load();
    server["dropped_responses"] = droppedResponses.load();
    server["slow_clients"] = slowClients.load();
    server["outbound_bytes"] =
        metrics.outboundBytes.load(std::memory_order_relaxed);
    server["outbound_hwm_bytes"] =
        metrics.outboundHwmBytes.load(std::memory_order_relaxed);
    server["metrics_scrapes"] =
        metrics.scrapes.load(std::memory_order_relaxed);
    server["serve_shards"] = std::uint64_t{1};
    server["metrics_enabled"] = obs::serveMetricsEnabled();
    m["server"] = std::move(server);

    Json process = Json::object();
    process["uptime_ms"] = elapsedMs(started, Clock::now());
    process["rss_bytes"] = obs::processRssBytes();
    process["threads"] = obs::processThreadCount();
    m["process"] = std::move(process);

    Json byClass = Json::object();
    for (unsigned c = 0;
         c < static_cast<unsigned>(RequestClass::Count); ++c) {
        byClass[requestClassName(static_cast<RequestClass>(c))] =
            metrics.classTotalUs[c].snapshot().json();
    }
    m["requests"] = std::move(byClass);

    Json phases = Json::object();
    phases["queue_wait"] = metrics.queueWaitUs.snapshot().json();
    phases["execute"] = metrics.executeUs.snapshot().json();
    phases["flush"] = metrics.flushUs.snapshot().json();
    m["phases"] = std::move(phases);

    // The dispatcher's row.  `shards` stays a one-element array so
    // readers of the nucache-metrics/v1 document keep their shape.
    Json svc = service.statsJson();
    const std::uint64_t resultHits = svcCount(svc, "cache_hits");
    const std::uint64_t resultMisses = svcCount(svc, "cache_misses");
    const std::uint64_t engineHits = svcCount(svc, "engine_hits");
    const std::uint64_t enginesBuilt = svcCount(svc, "engines_built");
    const std::uint64_t estimates = svcCount(svc, "estimates");
    const std::uint64_t runMix = svcCount(svc, "run_mix");
    const std::uint64_t runTrace = svcCount(svc, "run_trace");
    Json row = Json::object();
    row["shard"] = std::uint64_t{0};
    {
        std::lock_guard<std::mutex> lock(queueMtx);
        row["queue_len"] = std::uint64_t{queue.size()};
        row["queue_depth_hwm"] = queueDepthHwm;
    }
    row["dispatched"] = dispatched.load(std::memory_order_relaxed);
    row["last_batch"] = lastBatch.load(std::memory_order_relaxed);
    row["service"] = std::move(svc);
    Json shardRows = Json::array();
    shardRows.push(std::move(row));
    m["shards"] = std::move(shardRows);

    Json cache = Json::object();
    cache["result_hits"] = resultHits;
    cache["result_misses"] = resultMisses;
    cache["result_hit_ratio"] =
        resultHits + resultMisses != 0
            ? static_cast<double>(resultHits) /
                  static_cast<double>(resultHits + resultMisses)
            : 0.0;
    cache["engine_hits"] = engineHits;
    cache["engines_built"] = enginesBuilt;
    cache["engine_hit_ratio"] =
        engineHits + enginesBuilt != 0
            ? static_cast<double>(engineHits) /
                  static_cast<double>(engineHits + enginesBuilt)
            : 0.0;
    cache["estimates"] = estimates;
    cache["exact_runs"] = runMix - estimates + runTrace;
    cache["estimate_fraction"] =
        runMix != 0 ? static_cast<double>(estimates) /
                          static_cast<double>(runMix)
                    : 0.0;
    m["cache"] = std::move(cache);

    m["slow_requests"] = metrics.slowLog.json();
    return m;
}

} // namespace nucache::serve
