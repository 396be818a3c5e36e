#include "trace/arena.hh"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/logging.hh"
#include "obs/tracer.hh"
#include "trace/workloads.hh"

namespace nucache
{

static_assert(sizeof(PackedRecord) == 16, "packed trace record grew");

PackedRecord
packRecord(const TraceRecord &rec, const std::string &workload,
           std::uint64_t index)
{
    if ((rec.addr >> packedAddrBits) != 0) {
        panic("workload '", workload, "' record ", index, ": address ",
              rec.addr, " exceeds the packed trace's ", packedAddrBits,
              " bits");
    }
    if ((rec.nonMemGap >> packedGapBits) != 0) {
        panic("workload '", workload, "' record ", index, ": gap ",
              rec.nonMemGap, " exceeds the packed trace's ",
              packedGapBits, " bits");
    }
    PackedRecord p;
    p.pc = rec.pc;
    p.bits = rec.addr |
        (std::uint64_t{rec.nonMemGap} << packedAddrBits) |
        (std::uint64_t{rec.isWrite} << 63);
    return p;
}

TraceBuffer::Mapping::Mapping(std::uint64_t records)
    : bytes(static_cast<std::size_t>(records) * sizeof(PackedRecord))
{
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED)
        fatal("trace arena: cannot reserve ", bytes, " bytes: ",
              std::strerror(errno));
    base = static_cast<PackedRecord *>(p);
}

TraceBuffer::Mapping::~Mapping()
{
    munmap(base, bytes);
}

TraceBuffer::TraceBuffer(std::string workload,
                         std::uint64_t length_override,
                         std::uint64_t length,
                         std::atomic<std::uint64_t> &generated)
    : wlName(std::move(workload)), lengthOverride(length_override),
      len(length), mapping(length), generated(generated)
{
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
    PackedRecord *const data = mapping.data();
    TraceRecord rec;
    for (std::uint64_t i = have; i < end; ++i) {
        if (!gen->next(rec))
            panic("workload '", wlName, "' ended at record ", i,
                  " of ", len);
        data[i] = packRecord(rec, wlName, i);
    }
    count.store(end, std::memory_order_release);
    generated.fetch_add(end - have, std::memory_order_relaxed);
    if (end == len)
        gen.reset();
    return end;
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
    Buffer buffer = std::make_shared<TraceBuffer>(name, length_override,
                                                  length, generated);
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
