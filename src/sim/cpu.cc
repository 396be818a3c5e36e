#include "sim/cpu.hh"

#include "common/logging.hh"

namespace nucache
{

TraceCpu::TraceCpu(CoreId core, TraceSourcePtr source,
                   MemoryHierarchy *hierarchy,
                   std::uint64_t target_records, bool log_private_levels)
    : coreId(core), trace(std::move(source)), hier(hierarchy),
      target(target_records)
{
    if (!trace)
        fatal("TraceCpu ", core, ": no trace source");
    if (!hier)
        fatal("TraceCpu ", core, ": no hierarchy");
    if (target == 0)
        fatal("TraceCpu ", core, ": zero target records");
    // Generators use < 2^33 of address space; 2^38 spacing is ample.
    addrOffset = static_cast<Addr>(core) << 38;
    pcTag = static_cast<PC>(core) << 48;
    // The log is indexed by replay count and keyed by the trace, which
    // only an arena cursor names; any other source keeps the live
    // private caches.
    if (log_private_levels) {
        if (auto *cursor = dynamic_cast<ArenaCursor *>(trace.get()))
            privateLog.emplace(cursor->privateLog(hier->config()));
    }
}

void
TraceCpu::step()
{
    TraceRecord rec;
    if (!trace->next(rec)) {
        trace->reset();
        ++wrapCount;
        if (!trace->next(rec))
            fatal("TraceCpu ", coreId, ": workload '", trace->name(),
                  "' is empty");
    }

    // Non-memory instructions retire at CPI 1.
    clock += rec.nonMemGap;
    instructions += rec.nonMemGap + 1;

    Cycles latency;
    if (privateLog) {
        AccessInfo info;
        info.addr = rec.addr + addrOffset;
        info.pc = rec.pc | pcTag;
        info.coreId = coreId;
        info.isWrite = rec.isWrite;
        latency = hier->accessShared(info, privateLog->next(addrOffset),
                                     clock);
    } else {
        latency = hier->access(coreId, rec.addr + addrOffset,
                               rec.pc | pcTag, rec.isWrite, clock);
    }
    clock += latency;

    ++replayed;
    if (replayed == target) {
        frozenInstr = instructions;
        frozenCycles = clock;
    }
}

CacheCoreStats
TraceCpu::l1Stats() const
{
    return privateLog ? privateLog->l1Stats()
                      : hier->l1(coreId).coreStats(coreId);
}

double
TraceCpu::ipc() const
{
    if (frozenCycles == 0)
        return 0.0;
    return static_cast<double>(frozenInstr) /
           static_cast<double>(frozenCycles);
}

} // namespace nucache
