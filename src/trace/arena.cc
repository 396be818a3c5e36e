#include "trace/arena.hh"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <new>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "obs/tracer.hh"
#include "trace/generator.hh"
#include "trace/workloads.hh"

namespace nucache
{

static_assert(sizeof(PackedRecord) == 6, "packed trace record grew");
static_assert(packedBlockBits + packedGapBits + packedPcBits + 1 ==
                  8 * sizeof(PackedRecord),
              "packed trace fields must fill the record");
static_assert(std::endian::native == std::endian::little,
              "unpackRecord reads the record as a little-endian word");
static_assert(genBlockSize == std::uint64_t{1} << packedBlockShift,
              "packed records address the generators' blocks");
static_assert(genMaxGap < 1u << packedGapBits,
              "packed records hold every generated gap");
static_assert(traceChunkRecords * sizeof(PackedRecord) % 4096 == 0,
              "trace chunks start on page boundaries");

unsigned
PcTable::intern(PC pc)
{
    for (auto h = static_cast<unsigned>(mix64(pc)) % slotCount;;
         h = (h + 1) % slotCount) {
        const unsigned slot = slots[h];
        if (slot == 0) {
            if (used == capacity)
                return capacity;
            pcs[used] = pc;
            slots[h] = static_cast<std::uint16_t>(++used);
            return used - 1;
        }
        if (pcs[slot - 1] == pc)
            return slot - 1;
    }
}

PackedRecord
packRecord(const TraceRecord &rec, PcTable &pcs,
           const std::string &workload, std::uint64_t index)
{
    if ((rec.addr & ((Addr{1} << packedBlockShift) - 1)) != 0) {
        panic("workload '", workload, "' record ", index, ": address ",
              rec.addr, " is not aligned to the packed trace's ",
              Addr{1} << packedBlockShift, " B blocks");
    }
    const Addr block = rec.addr >> packedBlockShift;
    if ((block >> packedBlockBits) != 0) {
        panic("workload '", workload, "' record ", index, ": block ",
              block, " exceeds the packed trace's ", packedBlockBits,
              " bits");
    }
    if ((rec.nonMemGap >> packedGapBits) != 0) {
        panic("workload '", workload, "' record ", index, ": gap ",
              rec.nonMemGap, " exceeds the packed trace's ",
              packedGapBits, " bits");
    }
    const unsigned pc_index = pcs.intern(rec.pc);
    if (pc_index == PcTable::capacity) {
        panic("workload '", workload, "' record ", index, ": PC ",
              rec.pc, " exceeds the packed trace's ", PcTable::capacity,
              " distinct PCs");
    }
    const std::uint64_t bits = block |
        (std::uint64_t{rec.nonMemGap} << packedBlockBits) |
        (std::uint64_t{pc_index} << (packedBlockBits + packedGapBits)) |
        (std::uint64_t{rec.isWrite}
         << (packedBlockBits + packedGapBits + packedPcBits));
    PackedRecord p;
    std::memcpy(p.bytes.data(), &bits, p.bytes.size());
    return p;
}

AnonymousMapping::AnonymousMapping(std::size_t size) : bytes(size)
{
    base = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED)
        fatal("trace arena: cannot reserve ", bytes, " bytes: ",
              std::strerror(errno));
}

AnonymousMapping::~AnonymousMapping()
{
    munmap(base, bytes);
}

TraceBuffer::TraceBuffer(std::string workload,
                         std::uint64_t length_override,
                         std::uint64_t length,
                         std::atomic<std::uint64_t> &generated,
                         std::atomic<std::uint64_t> &private_generated)
    : wlName(std::move(workload)), lengthOverride(length_override),
      len(length),
      mapping(static_cast<std::size_t>(length) * sizeof(PackedRecord)),
      generated(generated),
      privateGenerated(private_generated)
{
}

PrivateLog &
TraceBuffer::privateLog(const HierarchyConfig &config)
{
    const std::string key = privateLevelsKey(config);
    std::lock_guard<std::mutex> lock(logMtx);
    std::unique_ptr<PrivateLog> &log = logs[key];
    if (!log)
        log = std::make_unique<PrivateLog>(*this, config, privateGenerated);
    return *log;
}

std::uint64_t
TraceBuffer::ensure(std::uint64_t n)
{
    n = std::min(n, len);
    std::uint64_t have = count.load(std::memory_order_acquire);
    if (have >= n)
        return have;
    std::lock_guard<std::mutex> lock(mtx);
    have = count.load(std::memory_order_relaxed);
    while (have < n)
        have = extend(have);
    return have;
}

std::uint64_t
TraceBuffer::extend(std::uint64_t have)
{
    const std::uint64_t end = std::min(have + chunkRecords, len);
    obs::TraceSpan span(obs::Tracer::active()
                            ? "extend " + wlName + "/" +
                                std::to_string(lengthOverride) + " +" +
                                std::to_string(end - have)
                            : std::string(),
                        "arena");
    // The generator is deterministic and sequential, so resuming it
    // chunk by chunk yields exactly the stream of one full pass.
    if (!gen)
        gen = makeWorkload(wlName, lengthOverride);
    auto *const data = static_cast<PackedRecord *>(mapping.data());
    TraceRecord rec;
    for (std::uint64_t i = have; i < end; ++i) {
        if (!gen->next(rec))
            panic("workload '", wlName, "' ended at record ", i,
                  " of ", len);
        data[i] = packRecord(rec, pcs, wlName, i);
    }
    // Publishes the records and every PC table entry they name.
    count.store(end, std::memory_order_release);
    generated.fetch_add(end - have, std::memory_order_relaxed);
    if (end == len)
        gen.reset();
    return end;
}

namespace
{

/** Bytes per slab of private-log chunks; untouched pages cost nothing. */
constexpr std::size_t kSlabBytes = std::size_t{1} << 20;

/** @return the shift turning block-aligned spills into entries. */
unsigned
spillShiftOf(const HierarchyConfig &config)
{
    unsigned shift = floorLog2(config.l1.blockSize);
    if (config.enableL2)
        shift = std::min(shift, floorLog2(config.l2.blockSize));
    return shift;
}

} // anonymous namespace

PrivateLog::PrivateLog(TraceBuffer &trace, const HierarchyConfig &config,
                       std::atomic<std::uint64_t> &generated)
    : trace(trace), shift(spillShiftOf(config)),
      codeBits(config.enableL2 ? 4 : 2), codeMask((1u << codeBits) - 1),
      generated(generated), stack(config, 0, 1)
{
    if (!privateOutcomesLoggable(config))
        panic("private-level log of '", trace.name(),
              "' requested for a hierarchy whose private outcomes "
              "depend on more than the trace");
}

const PrivateLog::Chunk *
PrivateLog::front()
{
    if (const Chunk *c = head.load(std::memory_order_acquire))
        return c;
    std::lock_guard<std::mutex> lock(mtx);
    if (tail == nullptr)
        extend();
    return head.load(std::memory_order_relaxed);
}

const PrivateLog::Chunk *
PrivateLog::after(const Chunk *c)
{
    if (const Chunk *n = c->next.load(std::memory_order_acquire))
        return n;
    std::lock_guard<std::mutex> lock(mtx);
    // Only the tail lacks a successor, so one extension links it.
    if (c == tail)
        extend();
    return c->next.load(std::memory_order_relaxed);
}

void *
PrivateLog::carve(std::size_t n)
{
    n = (n + 7) & ~std::size_t{7};
    if (slabs.empty() || slabUsed + n > kSlabBytes) {
        slabs.push_back(std::make_unique<AnonymousMapping>(kSlabBytes));
        slabUsed = 0;
    }
    void *p = static_cast<char *>(slabs.back()->data()) + slabUsed;
    slabUsed += n;
    return p;
}

void
PrivateLog::extend()
{
    obs::TraceSpan span(obs::Tracer::active()
                            ? "private " + trace.name() + " +" +
                                std::to_string(chunkRecords)
                            : std::string(),
                        "arena");
    // The chunk and its code array come from the slab now (fresh
    // mapping pages are zero, which the code ORs rely on); spills and
    // cold fills, whose counts are not known yet, follow once done.
    auto *chunk = new (carve(sizeof(Chunk))) Chunk;
    auto *codes = static_cast<std::uint8_t *>(
        carve(chunkRecords * codeBits / 8));
    const Cache &l1 = stack.l1();
    chunk->first = count.load(std::memory_order_relaxed);
    chunk->hitsBefore = l1.coreStats(0).hits;
    chunk->evictionsBefore = l1.coreStats(0).evictions;
    spillScratch.clear();
    coldScratch.clear();

    const PackedRecord *const data = trace.records();
    const PC *const pcs = trace.pcTable();
    for (std::uint32_t i = 0; i < chunkRecords; ++i) {
        if (tracePos == traceAvail) {
            // Replay wraps the trace, exactly as a core's cursor does.
            if (tracePos == trace.length())
                tracePos = 0;
            traceAvail = trace.ensure(tracePos + 1);
            if (tracePos == traceAvail)
                panic("private-level log: workload '", trace.name(),
                      "' is empty");
        }
        const TraceRecord rec = unpackRecord(data[tracePos++], pcs);
        AccessInfo info;
        info.addr = rec.addr;
        info.pc = rec.pc;
        info.isWrite = rec.isWrite;
        const std::uint64_t evictions = l1.coreStats(0).evictions;
        const PrivateOutcome out = stack.access(info);

        unsigned code = 0;
        if (out.level != PrivateOutcome::Level::L1)
            code |= l1MissBit;
        if (out.level == PrivateOutcome::Level::L2)
            code |= l2HitBit;
        const auto push_spill = [&](Addr addr) {
            const Addr entry = addr >> shift;
            if ((entry >> 32) != 0)
                panic("private-level log: workload '", trace.name(),
                      "' entry ", chunk->first + i, " spills address ",
                      addr, " beyond 32-bit block numbers");
            spillScratch.push_back(static_cast<std::uint32_t>(entry));
        };
        if (out.l1Spill) {
            code |= l1SpillBit;
            push_spill(out.l1SpillAddr);
        }
        if (out.l2Spill) {
            code |= l2SpillBit;
            push_spill(out.l2SpillAddr);
        }
        const std::uint32_t bit = i * codeBits;
        codes[bit >> 3] |= static_cast<std::uint8_t>(code << (bit & 7));
        if (out.level != PrivateOutcome::Level::L1 &&
            l1.coreStats(0).evictions == evictions)
            coldScratch.push_back(static_cast<std::uint16_t>(i));
    }
    chunk->codes = codes;
    auto *spills = static_cast<std::uint32_t *>(
        carve(spillScratch.size() * sizeof(std::uint32_t)));
    std::copy(spillScratch.begin(), spillScratch.end(), spills);
    chunk->spills = spills;
    auto *cold = static_cast<std::uint16_t *>(
        carve(coldScratch.size() * sizeof(std::uint16_t)));
    std::copy(coldScratch.begin(), coldScratch.end(), cold);
    chunk->coldFills = cold;
    chunk->numColdFills = static_cast<std::uint32_t>(coldScratch.size());

    if (tail == nullptr)
        head.store(chunk, std::memory_order_release);
    else
        tail->next.store(chunk, std::memory_order_release);
    tail = chunk;
    count.store(chunk->first + chunkRecords, std::memory_order_release);
    generated.fetch_add(chunkRecords, std::memory_order_relaxed);
}

CacheCoreStats
PrivateLogCursor::l1Stats() const
{
    CacheCoreStats s;
    if (cur == nullptr)
        return s;
    std::uint64_t hits = 0;
    for (std::uint32_t i = 0; i < off; ++i)
        hits += (log->code(*cur, i) & PrivateLog::l1MissBit) == 0;
    const std::uint16_t *cold_end = cur->coldFills + cur->numColdFills;
    const auto cold = static_cast<std::uint64_t>(
        std::lower_bound(cur->coldFills, cold_end, off) - cur->coldFills);
    s.accesses = cur->first + off;
    s.hits = cur->hitsBefore + hits;
    s.misses = s.accesses - s.hits;
    s.evictions = cur->evictionsBefore + (off - hits) - cold;
    return s;
}

TraceArena &
TraceArena::instance()
{
    static TraceArena arena;
    return arena;
}

TraceArena::Buffer
TraceArena::get(const std::string &name, std::uint64_t length_override)
{
    const std::string key = name + "/" + std::to_string(length_override);
    std::lock_guard<std::mutex> lock(mtx);
    const auto it = buffers.find(key);
    if (it != buffers.end())
        return it->second;
    // workloadSpec() fatal()s on unknown names before anything is
    // published, matching makeWorkload().
    const std::uint64_t length = workloadSpec(name, length_override).length;
    Buffer buffer = std::make_shared<TraceBuffer>(
        name, length_override, length, generated, privateGenerated);
    buffers.emplace(key, buffer);
    built.fetch_add(1, std::memory_order_relaxed);
    return buffer;
}

TraceSourcePtr
TraceArena::open(const std::string &name, std::uint64_t length_override)
{
    return std::make_unique<ArenaCursor>(get(name, length_override));
}

void
TraceArena::clear()
{
    std::lock_guard<std::mutex> lock(mtx);
    buffers.clear();
}

} // namespace nucache
