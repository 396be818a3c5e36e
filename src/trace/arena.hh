/**
 * @file
 * The shared trace arena: each named workload trace is generated at
 * most once per process, lazily and in packed form, and every
 * consumer replays it through a lightweight index cursor.
 *
 * Motivation: a (mix x policy) experiment grid replays the same
 * handful of workloads in every cell, and regenerating the synthetic
 * stream (RNG draws, pattern scheduling) per cell dominates cell
 * setup cost.  Yet a short replay window reads only a prefix of each
 * 2M-record pass, so the arena generates no further than the deepest
 * cursor has asked for.
 *
 * Each (workload, length) key owns a TraceBuffer: one anonymous
 * mapping reserved for the full pass at 16 B per record, which costs
 * no memory until written and never moves.  A buffer grows in fixed
 * chunks under its own mutex and publishes its record count with
 * release semantics; readers of the published prefix never lock.
 * Once the full pass exists, the generator is released.
 *
 * Lifetime: buffers live in a process-wide singleton and are handed
 * out as shared_ptr, so cursors stay valid even across a clear().
 * The record stream of a cursor is bit-identical to the generator it
 * replaces (one full pass, then false; reset() rewinds), which is
 * what keeps engine output byte-identical.
 */

#ifndef NUCACHE_TRACE_ARENA_HH
#define NUCACHE_TRACE_ARENA_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "trace/trace.hh"

namespace nucache
{

/** A TraceRecord in the arena's 16-byte storage form. */
struct PackedRecord
{
    /** Full PC: attack PCs are 40 bits wide. */
    PC pc = 0;
    /** addr in bits [0, 48), nonMemGap in [48, 63), isWrite in 63. */
    std::uint64_t bits = 0;
};

/** Address bits a PackedRecord holds. */
constexpr unsigned packedAddrBits = 48;
/** nonMemGap bits a PackedRecord holds. */
constexpr unsigned packedGapBits = 15;

/**
 * @return @p rec packed; panic()s naming @p workload and record
 * @p index when the address or gap does not fit (generators stay far
 * inside both ranges, so that is a generator bug).
 */
PackedRecord packRecord(const TraceRecord &rec, const std::string &workload,
                        std::uint64_t index);

/** @return the TraceRecord packed into @p p. */
inline TraceRecord
unpackRecord(const PackedRecord &p)
{
    TraceRecord rec;
    rec.pc = p.pc;
    rec.addr = p.bits & ((std::uint64_t{1} << packedAddrBits) - 1);
    rec.nonMemGap = static_cast<std::uint32_t>(
        (p.bits >> packedAddrBits) &
        ((std::uint64_t{1} << packedGapBits) - 1));
    rec.isWrite = (p.bits >> 63) != 0;
    return rec;
}

/**
 * One workload pass, generated on demand.  Records below the count
 * ensure() returns are immutable and may be read without locking.
 */
class TraceBuffer
{
  public:
    /** Records generated per extension. */
    static constexpr std::uint64_t chunkRecords = std::uint64_t{1} << 16;

    /**
     * @param length the pass length workloadSpec() reports for
     *        (@p workload, @p length_override).
     * @param generated process-wide counter every extension adds to;
     *        must outlive the buffer.
     */
    TraceBuffer(std::string workload, std::uint64_t length_override,
                std::uint64_t length,
                std::atomic<std::uint64_t> &generated);

    const std::string &name() const { return wlName; }

    /** @return records in one full pass. */
    std::uint64_t length() const { return len; }

    /** @return the record storage; stable for the buffer's life. */
    const PackedRecord *records() const { return mapping.data(); }

    /**
     * Generate whole chunks until at least min(@p n, length())
     * records exist.  Thread-safe; concurrent callers generate once.
     * @return the published record count.
     */
    std::uint64_t ensure(std::uint64_t n);

  private:
    /**
     * Owns one private anonymous MAP_NORESERVE mapping sized for a
     * record count.  Pages cost memory only once written; the address
     * is fixed for the mapping's life.
     */
    class Mapping
    {
      public:
        explicit Mapping(std::uint64_t records);
        ~Mapping();

        Mapping(const Mapping &) = delete;
        Mapping &operator=(const Mapping &) = delete;

        PackedRecord *data() const { return base; }

      private:
        PackedRecord *base = nullptr;
        std::size_t bytes = 0;
    };

    /** Generate the chunk starting at @p have (mtx held). */
    std::uint64_t extend(std::uint64_t have);

    const std::string wlName;
    const std::uint64_t lengthOverride;
    const std::uint64_t len;
    Mapping mapping;
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> &generated;

    /** Serializes extensions; guards gen. */
    std::mutex mtx;
    /** Created by the first extension, released at length(). */
    TraceSourcePtr gen;
};

/** Process-wide cache of lazily generated workload traces. */
class TraceArena
{
  public:
    /** Shared handle to one (workload, length) trace. */
    using Buffer = std::shared_ptr<TraceBuffer>;

    /** @return the process-wide arena. */
    static TraceArena &instance();

    /**
     * @return the trace of workload @p name (one pass), reserving it
     * on first request; generates no records.  Thread-safe:
     * concurrent first requests share one buffer.  fatal()s on
     * unknown names, as makeWorkload() does.
     * @param length_override forwarded to workloadSpec(); part of the
     *        cache key.
     */
    Buffer get(const std::string &name,
               std::uint64_t length_override = 0);

    /**
     * @return a TraceSource cursor replaying the shared buffer of
     * workload @p name; record-for-record identical to
     * makeWorkload(name, length_override).
     */
    TraceSourcePtr open(const std::string &name,
                        std::uint64_t length_override = 0);

    /** @return distinct (workload, length) buffers reserved. */
    std::uint64_t materializations() const
    {
        return built.load(std::memory_order_relaxed);
    }

    /** @return records generated across every buffer so far. */
    std::uint64_t recordsGenerated() const
    {
        return generated.load(std::memory_order_relaxed);
    }

    /**
     * Drop the cached buffers (tests, benchmark set-up).  Outstanding
     * Buffer handles and cursors stay valid; the counters are kept.
     */
    void clear();

  private:
    TraceArena() = default;

    mutable std::mutex mtx;
    std::map<std::string, Buffer> buffers;
    std::atomic<std::uint64_t> built{0};
    std::atomic<std::uint64_t> generated{0};
};

/**
 * Index cursor over an arena buffer.  Cheap to construct per grid
 * cell; reset() rewinds for the wrap-around methodology.
 */
class ArenaCursor : public TraceSource
{
  public:
    explicit ArenaCursor(TraceArena::Buffer buffer)
        : buf(std::move(buffer)), data(buf->records())
    {
    }

    bool
    next(TraceRecord &rec) override
    {
        if (pos >= avail) {
            avail = buf->ensure(pos + 1);
            if (pos >= avail)
                return false;
        }
        rec = unpackRecord(data[pos++]);
        return true;
    }

    void reset() override { pos = 0; }

    const std::string &name() const override { return buf->name(); }

  private:
    TraceArena::Buffer buf;
    const PackedRecord *data;
    /** Published count last seen; data below it is immutable. */
    std::uint64_t avail = 0;
    std::uint64_t pos = 0;
};

} // namespace nucache

#endif // NUCACHE_TRACE_ARENA_HH
