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
 * mapping reserved for the full pass at 6 B per record, which costs
 * no memory until written and never moves, and a table of the at most
 * 256 distinct PCs its records name.  A buffer grows in fixed chunks
 * of 4 Ki records (24 KiB, six pages) under its own mutex and
 * publishes its record count with release semantics; the PCs a chunk
 * adds to the table are written before that store, so readers of the
 * published prefix never lock.  Once the full pass exists, the
 * generator is released.
 *
 * Each buffer also owns the private-level logs of its trace (see
 * PrivateLog): what a core's private caches do with every record it
 * replays, simulated once per private geometry and shared by every
 * run that replays the trace through an ArenaCursor.
 *
 * Lifetime: buffers live in a process-wide singleton and are handed
 * out as shared_ptr, so cursors stay valid even across a clear(); a
 * buffer's logs live exactly as long as the buffer.
 * The record stream of a cursor is bit-identical to the generator it
 * replaces (one full pass, then false; reset() rewinds), which is
 * what keeps engine output byte-identical.
 */

#ifndef NUCACHE_TRACE_ARENA_HH
#define NUCACHE_TRACE_ARENA_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "mem/hierarchy.hh"
#include "trace/trace.hh"

namespace nucache
{

/** Records a TraceBuffer generates, or a PrivateLog simulates, at once. */
constexpr std::uint32_t traceChunkRecords = 4096;

/** log2 of the block a PackedRecord addresses (addresses are aligned). */
constexpr unsigned packedBlockShift = 6;
/** Block-number bits a PackedRecord holds. */
constexpr unsigned packedBlockBits = 29;
/** nonMemGap bits a PackedRecord holds. */
constexpr unsigned packedGapBits = 10;
/** PC-table index bits a PackedRecord holds. */
constexpr unsigned packedPcBits = 8;

/**
 * A TraceRecord in the arena's 6-byte storage form, a little-endian
 * 48-bit word: the block number addr >> packedBlockShift in bits
 * [0, 29), nonMemGap in [29, 39), the index of its PC in the trace's
 * PcTable in [39, 47), isWrite in 47.  Byte-aligned, so a pass is a
 * dense array and a 4 Ki-record chunk spans exactly six pages.
 */
struct PackedRecord
{
    std::array<std::uint8_t, 6> bytes{};
};

/**
 * The distinct PCs of one trace in first-use order; a PackedRecord
 * names its PC by index here.  A program's accesses come from a
 * handful of static instructions (catalog workloads use at most 32,
 * attack traces 3), so 256 entries hold any trace.  Entries are only
 * appended, never changed: a reader may read the entries named by the
 * records published to it while a writer appends further ones.
 */
class PcTable
{
  public:
    static constexpr unsigned capacity = 1u << packedPcBits;

    /**
     * @return the index of @p pc, appending it on first use, or
     * capacity when the table is full without it.  O(1): most records
     * name a different PC than the one before, so a hash of the PC
     * probes a slot array kept at most half full.
     */
    unsigned intern(PC pc);

    /** @return the table; entry i is the PC of index i. */
    const PC *data() const { return pcs.data(); }

  private:
    static constexpr unsigned slotCount = 2 * capacity;

    std::array<PC, capacity> pcs{};
    /** Open-addressed index into pcs: 0 is empty, else index + 1. */
    std::array<std::uint16_t, slotCount> slots{};
    unsigned used = 0;
};

/**
 * @return @p rec packed, its PC interned into @p pcs; panic()s
 * naming @p workload and record @p index when the address is not
 * block-aligned, its block number or the gap does not fit, or the
 * table is full (generators stay inside every range, so that is a
 * generator bug).
 */
PackedRecord packRecord(const TraceRecord &rec, PcTable &pcs,
                        const std::string &workload, std::uint64_t index);

/** @return the TraceRecord packed into @p p against PC table @p pcs. */
inline TraceRecord
unpackRecord(const PackedRecord &p, const PC *pcs)
{
    // Two loads straight into registers: a 6-byte copy into a word
    // goes through the stack, whose 8-byte reload cannot be forwarded
    // from the two narrower stores and stalls every record.
    std::uint32_t low = 0;
    std::uint16_t high = 0;
    std::memcpy(&low, p.bytes.data(), sizeof low);
    std::memcpy(&high, p.bytes.data() + sizeof low, sizeof high);
    const std::uint64_t bits = low | std::uint64_t{high} << 32;
    TraceRecord rec;
    rec.addr = (bits & ((std::uint64_t{1} << packedBlockBits) - 1))
               << packedBlockShift;
    rec.nonMemGap = static_cast<std::uint32_t>(
        (bits >> packedBlockBits) & ((1u << packedGapBits) - 1));
    rec.pc = pcs[(bits >> (packedBlockBits + packedGapBits)) &
                 (PcTable::capacity - 1)];
    rec.isWrite =
        (bits >> (packedBlockBits + packedGapBits + packedPcBits)) != 0;
    return rec;
}

/**
 * Owns one private anonymous MAP_NORESERVE mapping.  Pages cost
 * memory only once written, the address is fixed for the mapping's
 * life, and all of it returns to the system on destruction (which
 * heap memory freed by many threads may not).
 */
class AnonymousMapping
{
  public:
    explicit AnonymousMapping(std::size_t bytes);
    ~AnonymousMapping();

    AnonymousMapping(const AnonymousMapping &) = delete;
    AnonymousMapping &operator=(const AnonymousMapping &) = delete;

    void *data() const { return base; }

  private:
    void *base = nullptr;
    std::size_t bytes = 0;
};

class TraceBuffer;

/**
 * The private-level outcomes of one trace under one private config:
 * entry i says what a core's L1 (and private L2) did with the i-th
 * record it replays, counting across wraps of the trace.  In a
 * non-inclusive hierarchy that depends on nothing but the trace, the
 * private geometry and i, so every grid cell replaying the trace
 * shares one log instead of re-simulating its private levels.
 *
 * The log is built lazily, chunk by chunk, by a private-only cache
 * stack fed from the trace (cyclically), and never ends.  Each entry
 * is a code of up to four flag bits, packed two bits wide when there
 * is no private L2 (which can neither hit nor spill); spilled victim
 * addresses go to a per-chunk side array as 32-bit block numbers
 * without any core offset, which the replaying core adds back.
 * Chunks are immutable once linked; readers follow the links
 * lock-free (acquire) and only lock to extend the tail.  They are
 * packed into anonymous mappings, not the heap, so a dropped log
 * gives its memory back.
 */
class PrivateLog
{
  public:
    /** Records simulated per extension. */
    static constexpr std::uint32_t chunkRecords = traceChunkRecords;

    /** One published run of outcomes; its arrays follow it. */
    struct Chunk
    {
        /** Entry codes, codeBits wide, entry 0 in the lowest bits. */
        const std::uint8_t *codes = nullptr;
        /** Spilled victims in record and level order, >> spillShift. */
        const std::uint32_t *spills = nullptr;
        /** Ascending offsets of L1 misses that filled an invalid way. */
        const std::uint16_t *coldFills = nullptr;
        std::uint32_t numColdFills = 0;
        /** Entries, L1 hits and L1 evictions before this chunk. */
        std::uint64_t first = 0;
        std::uint64_t hitsBefore = 0;
        std::uint64_t evictionsBefore = 0;
        /** The following chunk; stored (release) once it is complete. */
        std::atomic<const Chunk *> next{nullptr};
    };

    /**
     * Code bits: the L1 missed, its dirty victim left the private
     * levels, the L2 hit, the L2's dirty victim left.  Without an L2
     * only the low two can be set.
     */
    static constexpr unsigned l1MissBit = 1;
    static constexpr unsigned l1SpillBit = 2;
    static constexpr unsigned l2HitBit = 4;
    static constexpr unsigned l2SpillBit = 8;

    /**
     * @param trace the replayed trace; must outlive the log (the
     *        buffer owns its logs).
     * @param config private geometry (privateOutcomesLoggable()).
     * @param generated process-wide counter every extension adds to.
     */
    PrivateLog(TraceBuffer &trace, const HierarchyConfig &config,
               std::atomic<std::uint64_t> &generated);

    /** @return the first chunk, simulating it on first use. */
    const Chunk *front();

    /** @return the chunk after @p c, simulating it on first use. */
    const Chunk *after(const Chunk *c);

    /** @return entries simulated so far. */
    std::uint64_t
    size() const
    {
        return count.load(std::memory_order_acquire);
    }

    /** @return the shift that turns spill entries into addresses. */
    unsigned spillShift() const { return shift; }

    /** @return the code of entry @p i of chunk @p c. */
    unsigned
    code(const Chunk &c, std::uint32_t i) const
    {
        const std::uint32_t bit = i * codeBits;
        return (c.codes[bit >> 3] >> (bit & 7)) & codeMask;
    }

  private:
    /** Simulate and link one more chunk (mtx held). */
    void extend();

    /** @return @p n bytes, 8-aligned, from the current slab (mtx held). */
    void *carve(std::size_t n);

    TraceBuffer &trace;
    const unsigned shift;
    /** Bits per code: 4, or 2 without a private L2. */
    const unsigned codeBits;
    const unsigned codeMask;
    std::atomic<std::uint64_t> &generated;
    std::atomic<const Chunk *> head{nullptr};
    std::atomic<std::uint64_t> count{0};

    /** Serializes extensions; guards everything below. */
    std::mutex mtx;
    PrivateLevels stack;
    Chunk *tail = nullptr;
    /** Next trace record to simulate and the published count seen. */
    std::uint64_t tracePos = 0;
    std::uint64_t traceAvail = 0;
    /** Chunk storage, and the bytes used of the last slab. */
    std::vector<std::unique_ptr<AnonymousMapping>> slabs;
    std::size_t slabUsed = 0;
    /** One chunk's spills and cold fills while it is simulated. */
    std::vector<std::uint32_t> spillScratch;
    std::vector<std::uint16_t> coldScratch;
};

/**
 * A core's read position in a PrivateLog.  Yields the outcome of each
 * replayed record in turn and the L1 statistics the live L1 would
 * report at that point.
 */
class PrivateLogCursor
{
  public:
    explicit PrivateLogCursor(PrivateLog &log) : log(&log) {}

    /**
     * @return the next record's outcome, spill addresses moved into
     * the core's region by @p addr_offset.
     */
    PrivateOutcome
    next(Addr addr_offset)
    {
        if (off == PrivateLog::chunkRecords || cur == nullptr) {
            cur = cur == nullptr ? log->front() : log->after(cur);
            off = 0;
            spill = 0;
        }
        const unsigned code = log->code(*cur, off++);
        PrivateOutcome out;
        if ((code & PrivateLog::l1MissBit) == 0)
            out.level = PrivateOutcome::Level::L1;
        else if ((code & PrivateLog::l2HitBit) != 0)
            out.level = PrivateOutcome::Level::L2;
        const unsigned shift = log->spillShift();
        if ((code & PrivateLog::l1SpillBit) != 0) {
            out.l1Spill = true;
            out.l1SpillAddr =
                (Addr{cur->spills[spill++]} << shift) + addr_offset;
        }
        if ((code & PrivateLog::l2SpillBit) != 0) {
            out.l2Spill = true;
            out.l2SpillAddr =
                (Addr{cur->spills[spill++]} << shift) + addr_offset;
        }
        return out;
    }

    /**
     * @return the L1's demand statistics after the outcomes read so
     * far, field for field what the live L1 reports.
     */
    CacheCoreStats l1Stats() const;

  private:
    PrivateLog *log;
    const PrivateLog::Chunk *cur = nullptr;
    std::uint32_t off = 0;
    std::uint32_t spill = 0;
};

/**
 * One workload pass, generated on demand.  Records below the count
 * ensure() returns are immutable and may be read without locking.
 */
class TraceBuffer
{
  public:
    /** Records generated per extension. */
    static constexpr std::uint64_t chunkRecords = traceChunkRecords;

    /**
     * @param length the pass length workloadSpec() reports for
     *        (@p workload, @p length_override).
     * @param generated process-wide counter every extension adds to;
     *        must outlive the buffer.
     * @param private_generated the same for its private-level logs.
     */
    TraceBuffer(std::string workload, std::uint64_t length_override,
                std::uint64_t length,
                std::atomic<std::uint64_t> &generated,
                std::atomic<std::uint64_t> &private_generated);

    const std::string &name() const { return wlName; }

    /** @return records in one full pass. */
    std::uint64_t length() const { return len; }

    /** @return the record storage; stable for the buffer's life. */
    const PackedRecord *
    records() const
    {
        return static_cast<const PackedRecord *>(mapping.data());
    }

    /**
     * @return the PCs the records index; stable for the buffer's
     * life.  Every entry a record below the published count names
     * was written before that count was published.
     */
    const PC *pcTable() const { return pcs.data(); }

    /**
     * Generate whole chunks until at least min(@p n, length())
     * records exist.  Thread-safe; concurrent callers generate once.
     * @return the published record count.
     */
    std::uint64_t ensure(std::uint64_t n);

    /**
     * @return this trace's private-level log under @p config's
     * private geometry, created empty on first request; lives as long
     * as the buffer.  Thread-safe.  @p config must satisfy
     * privateOutcomesLoggable().
     */
    PrivateLog &privateLog(const HierarchyConfig &config);

  private:
    /** Generate the chunk starting at @p have (mtx held). */
    std::uint64_t extend(std::uint64_t have);

    const std::string wlName;
    const std::uint64_t lengthOverride;
    const std::uint64_t len;
    /** One full pass of PackedRecords. */
    AnonymousMapping mapping;
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> &generated;

    /** Serializes extensions; guards gen and appends to pcs. */
    std::mutex mtx;
    /** Created by the first extension, released at length(). */
    TraceSourcePtr gen;
    PcTable pcs;

    /**
     * Guards logs.  Separate from mtx: extending a log reads the
     * trace, which may extend it under mtx.
     */
    std::mutex logMtx;
    std::map<std::string, std::unique_ptr<PrivateLog>> logs;
    std::atomic<std::uint64_t> &privateGenerated;
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

    /** @return private-level log entries simulated so far. */
    std::uint64_t privateRecordsGenerated() const
    {
        return privateGenerated.load(std::memory_order_relaxed);
    }

    /**
     * Drop the cached buffers and their private-level logs (tests,
     * benchmark set-up).  Outstanding
     * Buffer handles and cursors stay valid; the counters are kept.
     */
    void clear();

  private:
    TraceArena() = default;

    mutable std::mutex mtx;
    std::map<std::string, Buffer> buffers;
    std::atomic<std::uint64_t> built{0};
    std::atomic<std::uint64_t> generated{0};
    std::atomic<std::uint64_t> privateGenerated{0};
};

/**
 * Index cursor over an arena buffer.  Cheap to construct per grid
 * cell; reset() rewinds for the wrap-around methodology.
 */
class ArenaCursor : public TraceSource
{
  public:
    explicit ArenaCursor(TraceArena::Buffer buffer)
        : buf(std::move(buffer)), data(buf->records()), pcs(buf->pcTable())
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
        rec = unpackRecord(data[pos++], pcs);
        return true;
    }

    void reset() override { pos = 0; }

    const std::string &name() const override { return buf->name(); }

    /** @return the replayed trace's private-level log (see TraceBuffer). */
    PrivateLog &
    privateLog(const HierarchyConfig &config)
    {
        return buf->privateLog(config);
    }

  private:
    TraceArena::Buffer buf;
    const PackedRecord *data;
    const PC *pcs;
    /** Published count last seen; data below it is immutable. */
    std::uint64_t avail = 0;
    std::uint64_t pos = 0;
};

} // namespace nucache

#endif // NUCACHE_TRACE_ARENA_HH
