/**
 * @file
 * Structured event tracing: the timeline half of src/obs/.
 *
 * Emits Chrome `trace_event` JSON (loadable in chrome://tracing and
 * Perfetto) for the coarse phases of a bench run: RunEngine grid
 * cells, run-alone baselines, trace-arena extensions, warmup vs
 * measurement phases, and rare policy events such as NUcache epoch
 * rollovers.
 *
 * Hot-path discipline: tracing is OFF by default and every emission
 * site is guarded by `Tracer::active()` — a single branch on a cached
 * bool, the same gating pattern as the Cache access observer.  When
 * inactive nothing allocates, no thread-local buffer is created, and
 * TraceSpan construction is a bool store.  When active each thread
 * appends to its own fixed-capacity ring buffer with no locking on
 * the emission path (the global mutex is taken only once per thread,
 * on buffer registration, and once at writeJson()).  The ring
 * overwrites the oldest events of its thread when full, so a
 * pathological span flood degrades coverage rather than memory.
 *
 * Spans are complete events ('X'): one record per scope, stamped at
 * destruction with the start timestamp and duration.  Rare point
 * events use instant events ('i').  Timestamps are nanoseconds from
 * Tracer::start(), written as microseconds (the unit chrome://tracing
 * expects) with required keys ph/ts/pid/tid/name on every record.
 */

#ifndef NUCACHE_OBS_TRACER_HH
#define NUCACHE_OBS_TRACER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace nucache::obs
{

/** One buffered event; becomes one traceEvents[] record. */
struct TraceEvent
{
    std::string name;
    const char *category = "";
    /** 'X' = complete span, 'i' = instant. */
    char phase = 'X';
    /** Nanoseconds from Tracer::start(). */
    std::uint64_t startNs = 0;
    std::uint64_t durNs = 0;
};

/** Process-wide event tracer; one instance, many emitting threads. */
class Tracer
{
  public:
    static Tracer &instance();

    /**
     * @return whether emission sites should record.  A relaxed atomic
     * load — one plain load plus branch on the hot path, and safe to
     * flip from the driver thread while workers poll it.
     */
    static bool
    active()
    {
        return activeFlag.load(std::memory_order_relaxed);
    }

    /**
     * Enable tracing; events are buffered until stop().  @p path is
     * where stop() writes the trace JSON ("" = enable but let the
     * caller writeJson() explicitly — tests).
     */
    void start(std::string path);

    /**
     * Disable tracing and, when start() was given a path, write the
     * buffered events there.  Idempotent.
     */
    void stop();

    /** Record a complete ('X') span that began @p start_ns ago. */
    void complete(std::string name, const char *category,
                  std::uint64_t start_ns, std::uint64_t dur_ns);

    /** Record an instant ('i') event at now. */
    void instant(std::string name, const char *category);

    /** @return nanoseconds since start() (0 when inactive). */
    std::uint64_t
    nowNs() const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - epoch)
                .count());
    }

    /** @return buffered event count across all threads. */
    std::size_t pendingEvents() const;

    /** @return events dropped to ring overwrite since start(). */
    std::uint64_t droppedEvents() const;

    /** @return number of per-thread buffers ever registered. */
    std::size_t threadBuffers() const;

    /**
     * Merge all thread buffers, sort by timestamp and write the
     * Chrome trace JSON to @p os.  Does not clear the buffers.
     */
    void writeJson(std::ostream &os) const;

    /** Drop all buffered events and thread buffers (tests). */
    void reset();

    /** Events each thread's ring can hold before overwriting. */
    static constexpr std::size_t kRingCapacity = 1 << 16;

  private:
    struct ThreadBuffer
    {
        explicit ThreadBuffer(std::uint32_t id) : tid(id) {}
        std::uint32_t tid;
        /** Ring storage; grows to kRingCapacity then wraps. */
        std::vector<TraceEvent> ring;
        /** Next write position once the ring is full. */
        std::size_t head = 0;
        std::uint64_t dropped = 0;

        void push(TraceEvent ev);
    };

    Tracer() = default;

    /** @return this thread's buffer, registering it on first use. */
    ThreadBuffer &localBuffer();

    static std::atomic<bool> activeFlag;

    std::chrono::steady_clock::time_point epoch{};
    std::string outPath;

    mutable std::mutex mtx;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

/**
 * RAII scope for a complete span.  The inactive constructor does no
 * work beyond a bool store; name formatting at call sites should be
 * guarded by Tracer::active() when it would allocate.
 */
class TraceSpan
{
  public:
    TraceSpan(std::string name, const char *category = "")
    {
        if (!Tracer::active())
            return;
        live = true;
        spanName = std::move(name);
        cat = category;
        startNs = Tracer::instance().nowNs();
    }

    /** Cheap overload for literal names on warmer paths. */
    explicit TraceSpan(const char *name, const char *category = "")
    {
        if (!Tracer::active())
            return;
        live = true;
        spanName = name;
        cat = category;
        startNs = Tracer::instance().nowNs();
    }

    ~TraceSpan()
    {
        if (!live)
            return;
        Tracer &t = Tracer::instance();
        t.complete(std::move(spanName), cat, startNs,
                   t.nowNs() - startNs);
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    bool live = false;
    std::string spanName;
    const char *cat = "";
    std::uint64_t startNs = 0;
};

} // namespace nucache::obs

#endif // NUCACHE_OBS_TRACER_HH
