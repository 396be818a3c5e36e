/**
 * @file
 * nucached's network front end: an IPv4 TCP listener speaking the
 * newline-delimited `nucache-rpc/v1` protocol (serve/protocol.hh),
 * with explicit admission control in front of the simulation
 * service.
 *
 * Threading model — an event loop, one dispatcher, and the engine
 * workers behind it:
 *  - the event-loop thread owns every socket and a level-triggered
 *    epoll set: it accepts connections, splits the byte stream into
 *    request lines, answers the cheap control ops (health, stats,
 *    shutdown) inline, admits run requests to the bounded admission
 *    queue, and flushes per-connection outbound buffers on
 *    EPOLLOUT.  Nothing on this thread ever blocks on a socket: all
 *    fds are nonblocking and every response is queued, so one
 *    stalled client cannot freeze the loop (the head-of-line block
 *    the old single poll thread had);
 *  - the dispatcher thread pops admitted requests from the queue,
 *    groups consecutive compatible ones (equal batchKey(), up to
 *    batchMax) into one engine batch, enforces queue deadlines, and
 *    hands the batch to the SimulationService (memoized RunEngines,
 *    result cache);
 *  - the service's engine workers run the simulations and emit
 *    responses back through the connection's response slots.
 *
 * Pipelining: clients may send many request lines before reading.
 * Each request is assigned a per-connection sequence number at parse
 * time and responses are delivered strictly in request order, no
 * matter which worker finishes first (completed responses
 * park in a per-connection reorder map until their turn).  The one
 * exception is a `"stream": true` run, whose frames are delivered
 * out-of-band as they are produced — correlate by id — precisely so
 * a long telemetry run cannot head-of-line-block control ops queued
 * behind it.
 *
 * Slow clients: every connection has a bounded outbound buffer
 * (`maxOutboundBytes`).  A client that stops reading while responses
 * accumulate past the cap is shed — the connection is closed, the
 * `slow_clients` counter bumps — instead of blocking the loop or
 * growing without bound.
 *
 * Backpressure is explicit: a full admission queue answers `overload`
 * immediately instead of stalling the socket, a request older than
 * its deadline answers `deadline_exceeded` instead of burning
 * simulation time, and past the connection cap new sockets get one
 * `overload` line (best-effort, nonblocking) and a close.  Graceful
 * shutdown (SIGINT / SIGTERM / the shutdown op) stops admitting,
 * drains the queue, flushes every response, then exits.
 *
 * Observability (serve/server_metrics.hh): every request carries a
 * ReqTrace from parse to flush — the last byte crossing the socket
 * finalizes it into lock-light latency histograms (by request class
 * and by phase), the bounded slow-request sample log, and
 * Chrome-trace spans when `--trace-out` is armed.  The `metrics` op (answered inline, like health) exposes
 * it all as nucache-metrics/v1 JSON or Prometheus text.
 */

#ifndef NUCACHE_SERVE_SERVER_HH
#define NUCACHE_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/net.hh"
#include "serve/protocol.hh"
#include "serve/server_metrics.hh"
#include "serve/service.hh"

namespace nucache::serve
{

/** Listener + admission knobs (service knobs ride along). */
struct ServerConfig
{
    std::string host = "127.0.0.1";
    /** TCP port; 0 binds an ephemeral port (tests), see port(). */
    std::uint16_t port = 7411;
    /**
     * Must be 1: the server runs one dispatcher.  Kept so callers
     * that set it still compile; start() rejects any other value.
     */
    std::size_t shards = 1;
    /** Admission-queue depth; a full queue answers `overload`. */
    std::size_t queueDepth = 512;
    /** Queue deadline for requests that do not set "deadline_ms". */
    std::uint64_t defaultDeadlineMs = 30'000;
    /** Most requests dispatched as one engine batch. */
    std::size_t batchMax = 8;
    /** Connection cap; extra sockets get `overload` and a close. */
    std::size_t maxConnections = 1024;
    /** Per-line framing cap; longer lines get `too_large`. */
    std::size_t maxLineBytes = kMaxRequestBytes;
    /**
     * Per-connection outbound buffer cap: queued responses past this
     * shed the connection as a slow client (never block the loop).
     */
    std::size_t maxOutboundBytes = 8 * 1024 * 1024;
    /** SO_SNDBUF for accepted sockets; 0 = kernel default.  Tests
     *  shrink it to make slow-client shedding deterministic. */
    int sockSndBufBytes = 0;
    /** Simulation-side configuration (jobs, caches, windows). */
    ServiceConfig service;
};

/** The nucached server; one instance per process. */
class Server
{
  public:
    explicit Server(ServerConfig config);

    /** Stops and joins if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the listener, create the epoll set, and start the event
     * loop and the dispatcher thread.
     * @param err filled with the reason on failure (also when
     *        `shards` is not 1).
     * @return whether the server is now serving.
     */
    bool start(std::string &err);

    /** @return the bound port (resolves port 0), 0 before start(). */
    std::uint16_t port() const { return boundPort; }

    /**
     * Begin graceful shutdown: stop admitting, drain the queue,
     * flush responses, exit all threads.  Thread-safe; not
     * async-signal-safe (see signalShutdown()).
     */
    void requestShutdown();

    /**
     * Async-signal-safe shutdown trigger for SIGINT/SIGTERM
     * handlers: an atomic flag plus one write() to the wake pipe.
     * The event loop converts it into requestShutdown().
     */
    void signalShutdown();

    /** Block until every server thread has exited. */
    void join();

    /** @return whether shutdown has been requested. */
    bool shuttingDown() const
    {
        return stopping.load(std::memory_order_acquire);
    }

    /** @return server + service counters (op "stats"). */
    Json statsJson() const;

    /** @return the nucache-metrics/v1 document (op "metrics"):
     *  latency histograms by request class and phase, the
     *  dispatcher's queue state (the one-row `shards` array), cache
     *  ratios, process gauges, and the slow-request sample log. */
    Json metricsJson() const;

  private:
    using Clock = std::chrono::steady_clock;

    /** One parked response: the framed line plus the request's
     *  phase trace, finalized when the line reaches the socket. */
    struct Slot
    {
        std::string line;
        ReqTrace trace;
    };

    /** A response's position in the outbound byte stream: its trace
     *  is finalized once `target` cumulative bytes have been sent. */
    struct FlushMark
    {
        std::uint64_t target = 0;
        ReqTrace trace;
    };

    /** One client connection (sockets owned by the loop thread). */
    struct Connection
    {
        int fd = -1;
        /** Partial input line (loop thread only). */
        std::string in;
        /** Bytes ready to write (guarded by connsMtx). */
        std::string out;
        /**
         * Completed responses waiting for their turn, keyed by the
         * request sequence number (guarded by connsMtx).  pump()
         * moves slots into `out` strictly in sequence order.
         */
        std::map<std::uint64_t, Slot> slots;
        /** Bytes parked in `slots` (guarded by connsMtx). */
        std::size_t slotBytes = 0;
        /** Cumulative bytes ever appended to `out` / ever sent;
         *  out.size() == queuedBytes - sentBytes (connsMtx). */
        std::uint64_t queuedBytes = 0;
        std::uint64_t sentBytes = 0;
        /** Flush watermarks of in-flight responses, in byte order
         *  (guarded by connsMtx). */
        std::deque<FlushMark> marks;
        /** Next sequence number to assign (loop thread only). */
        std::uint64_t nextSeq = 0;
        /** Next sequence number to flush (guarded by connsMtx). */
        std::uint64_t nextFlush = 0;
        /** Streaming runs admitted but not yet finished. */
        std::uint32_t openStreams = 0;
        /** Already queued on the dirty list (guarded by connsMtx);
         *  keeps a 16-deep pipelined burst from enqueueing the same
         *  connection 16 times. */
        bool inDirty = false;
        /** Close once every response has been delivered. */
        bool closeAfterFlush = false;
        /** Shed without flushing (slow client); loop thread closes. */
        bool kill = false;
        /** Whether the epoll interest currently includes EPOLLOUT. */
        bool wantWrite = false;
    };

    /** One admitted run request waiting for the dispatcher. */
    struct Pending
    {
        Request req;
        std::uint64_t conn = 0;
        /** Response slot on the connection (unused when stream). */
        std::uint64_t seq = 0;
        bool stream = false;
        Clock::time_point enqueued;
        std::uint64_t deadlineMs = 0;
        /** Phase stamps, carried through dispatch to the flush. */
        ReqTrace trace;
    };

    void eventLoop();
    void dispatchLoop();

    /** Accept until EAGAIN, enforcing the connection cap. */
    void acceptPending();

    /** Read until EAGAIN; split and handle complete lines.
     *  @return whether the connection survives. */
    bool readFrom(std::uint64_t conn_id, Connection &conn);

    /** Route one complete request line from @p conn_id. */
    void handleLine(std::uint64_t conn_id, Connection &conn,
                    const std::string &line);

    /**
     * Park @p response in @p seq's slot on @p conn_id and pump the
     * in-order prefix into the outbound buffer.  @p trace rides
     * along and is finalized when the response reaches the socket.
     */
    void queueSlotResponse(std::uint64_t conn_id, std::uint64_t seq,
                           const Json &response, ReqTrace trace);

    /** queueSlotResponse for an already-framed response @p line
     *  (newline included) — the result-cache fast path. */
    void queueSlotLine(std::uint64_t conn_id, std::uint64_t seq,
                       std::string line, ReqTrace trace);

    /** Append an out-of-band (streaming) @p frame to @p conn_id. */
    void queueOobFrame(std::uint64_t conn_id, const Json &frame);

    /** Deliver a dispatch-side final response for @p p. */
    void finishResponse(const Pending &p, const Json &response);

    /** Move in-order completed slots into `out` (connsMtx held). */
    void pumpLocked(Connection &conn);

    /** Shed @p conn as a slow client when past the buffer cap
     *  (connsMtx held). @return whether the connection was shed. */
    bool capCheckLocked(std::uint64_t conn_id, Connection &conn);

    /** Queue @p conn_id for loop-thread attention (connsMtx held). */
    void markDirtyLocked(std::uint64_t conn_id);

    /** @return whether every response has been delivered
     *  (connsMtx held). */
    bool flushedLocked(const Connection &conn) const;

    /** Flush @p conn's outbound buffer (nonblocking) and finalize
     *  the traces of responses fully on the wire.
     *  @return whether the connection survives. */
    bool flushOut(Connection &conn);

    /** Update @p conn's epoll interest to match its state. */
    void updateInterest(std::uint64_t conn_id, Connection &conn);

    void closeConn(std::uint64_t conn_id);

    Json healthResult() const;

    ServerConfig cfg;
    net::WakePipe wake;
    int listenFd = -1;
    int epollFd = -1;
    bool listenerArmed = false;
    std::uint16_t boundPort = 0;
    Clock::time_point started;

    SimulationService service;
    std::thread loopThread;
    /** Set by the event loop at entry; responses queued *from* the
     *  loop thread skip the wake-pipe syscall (the loop flushes its
     *  dirty list at the end of the same iteration anyway). */
    std::atomic<std::thread::id> loopThreadId{};
    std::mutex lifecycleMtx;
    bool threadsJoined = false;

    std::atomic<bool> stopping{false};
    std::atomic<bool> signalled{false};

    mutable std::mutex connsMtx;
    std::map<std::uint64_t, Connection> conns;
    /** Connections needing loop-thread attention (kill / enable
     *  EPOLLOUT); guarded by connsMtx. */
    std::vector<std::uint64_t> dirty;
    std::uint64_t nextConnId = kFirstConnId;

    /** epoll user-data tags below the first connection id. */
    static constexpr std::uint64_t kWakeTag = 0;
    static constexpr std::uint64_t kListenTag = 1;
    static constexpr std::uint64_t kFirstConnId = 2;

    /** Counters (atomics: bumped on loop/dispatch/worker threads). */
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejectedConns{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> responses{0};
    std::atomic<std::uint64_t> badRequests{0};
    std::atomic<std::uint64_t> tooLarge{0};
    std::atomic<std::uint64_t> overloads{0};
    std::atomic<std::uint64_t> deadlineExpired{0};
    std::atomic<std::uint64_t> rejectedShutdown{0};
    std::atomic<std::uint64_t> droppedResponses{0};
    std::atomic<std::uint64_t> slowClients{0};

    /** The admission queue and the dispatcher's state. */
    mutable std::mutex queueMtx;
    std::condition_variable queueCv;
    std::deque<Pending> queue;
    /** Deepest the queue has been (guarded by queueMtx). */
    std::uint64_t queueDepthHwm = 0;
    /** Set by the dispatcher once stopping with an empty queue. */
    std::atomic<bool> drained{false};
    /** Requests popped by the dispatcher; size of its last batch. */
    std::atomic<std::uint64_t> dispatched{0};
    std::atomic<std::uint64_t> lastBatch{0};

    /** Latency histograms, outbound gauges, slow-request log. */
    mutable ServerMetrics metrics;

    /** Declared after every member the dispatcher uses. */
    std::thread dispatchThread;
};

} // namespace nucache::serve

#endif // NUCACHE_SERVE_SERVER_HH
