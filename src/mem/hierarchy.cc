#include "mem/hierarchy.hh"

#include "common/logging.hh"
#include "mem/lru.hh"

namespace nucache
{

MemoryHierarchy::MemoryHierarchy(
    const HierarchyConfig &config,
    std::unique_ptr<ReplacementPolicy> llc_policy)
    : cfg(config), dramModel(config.dram)
{
    if (cfg.numCores == 0)
        fatal("hierarchy needs at least one core");
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        CacheConfig l1cfg = cfg.l1;
        l1cfg.name = "l1." + std::to_string(c);
        // The L1 is private: it sees exactly one core.
        l1Caches.push_back(std::make_unique<Cache>(
            l1cfg, std::make_unique<LruPolicy>(), cfg.numCores));
        if (cfg.enableL2) {
            CacheConfig l2cfg = cfg.l2;
            l2cfg.name = "l2." + std::to_string(c);
            l2Caches.push_back(std::make_unique<Cache>(
                l2cfg, std::make_unique<LruPolicy>(), cfg.numCores));
        }
    }
    llcCache = std::make_unique<Cache>(cfg.llc, std::move(llc_policy),
                                       cfg.numCores);
    if (cfg.prefetch.enabled) {
        for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
            prefetchers.push_back(
                std::make_unique<StridePrefetcher>(cfg.prefetch));
        }
    }
}

Cycles
MemoryHierarchy::access(CoreId core, Addr addr, PC pc, bool is_write,
                        Cycles now)
{
    if (core >= cfg.numCores)
        panic("hierarchy access from core ", core, " of ", cfg.numCores);

    AccessInfo info;
    info.addr = addr;
    info.pc = pc;
    info.coreId = core;
    info.isWrite = is_write;

    Cycles latency = cfg.l1Latency;
    const Cache::Result l1res = l1Caches[core]->access(info);
    Cache *l2 = l2Caches.empty() ? nullptr : l2Caches[core].get();
    // A dirty L1 victim drains to the next level down: the private L2
    // absorbs it if it holds the block, else it spills to the LLC.
    bool l1_spill = l1res.writeback;
    if (l1_spill && l2 != nullptr)
        l1_spill = !l2->writebackUpdate(l1res.writebackAddr);

    Cache::Result l2res;
    if (!l1res.hit && l2 != nullptr) {
        latency += cfg.l2Latency;
        l2res = l2->access(info);
    }

    // Spills in level order: L1 spills carry the L1 hit latency, L2
    // spills the L1+L2 depth.
    if (l1_spill && !llcCache->writebackUpdate(l1res.writebackAddr))
        dramModel.write(now + cfg.l1Latency);
    if (l2res.writeback && !llcCache->writebackUpdate(l2res.writebackAddr))
        dramModel.write(now + cfg.l1Latency + cfg.l2Latency);
    if (l1res.hit || l2res.hit)
        return latency;

    latency += cfg.llcLatency;
    const Cache::Result llcres = llcCache->access(info);
    if (llcres.writeback)
        dramModel.write(now + latency);
    if (cfg.inclusive && llcres.evicted)
        backInvalidate(llcres.evictedAddr);

    // Train the stride prefetcher on demand L1 misses and install its
    // candidates into the LLC (latency-free: modeled as fully
    // overlapped, the standard trace-simulator simplification).
    if (!prefetchers.empty()) {
        prefetchQueue.clear();
        prefetchers[core]->train(info.pc, info.addr, prefetchQueue);
        for (const Addr pf_addr : prefetchQueue) {
            AccessInfo pf = info;
            pf.addr = pf_addr;
            pf.isWrite = false;
            pf.isPrefetch = true;
            const Cache::Result pf_res = llcCache->access(pf);
            if (pf_res.writeback)
                dramModel.write(now + latency);
            if (cfg.inclusive && pf_res.evicted)
                backInvalidate(pf_res.evictedAddr);
            if (!pf_res.hit)
                dramModel.read(now + latency);  // consumes bandwidth
        }
    }

    if (llcres.hit)
        return latency;
    return latency + dramModel.read(now + latency);
}

void
MemoryHierarchy::backInvalidate(Addr addr)
{
    // Inclusion enforcement: purge the evicted block from every
    // private level (any dirty private copy is conservatively treated
    // as written back by the LLC's own writeback).
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        if (l1Caches[c]->invalidate(addr))
            ++backInvalidated;
        if (!l2Caches.empty() && l2Caches[c]->invalidate(addr))
            ++backInvalidated;
    }
}

} // namespace nucache
