#include "mem/hierarchy.hh"

#include <initializer_list>

#include "common/logging.hh"
#include "mem/lru.hh"

namespace nucache
{

PrivateLevels::PrivateLevels(const HierarchyConfig &config, CoreId core,
                             std::uint32_t num_cores)
{
    CacheConfig l1cfg = config.l1;
    l1cfg.name = "l1." + std::to_string(core);
    l1Cache = std::make_unique<Cache>(l1cfg, std::make_unique<LruPolicy>(),
                                      num_cores);
    if (config.enableL2) {
        CacheConfig l2cfg = config.l2;
        l2cfg.name = "l2." + std::to_string(core);
        l2Cache = std::make_unique<Cache>(
            l2cfg, std::make_unique<LruPolicy>(), num_cores);
    }
}

PrivateOutcome
PrivateLevels::access(const AccessInfo &info)
{
    PrivateOutcome out;
    const Cache::Result l1res = l1Cache->access(info);
    // A dirty L1 victim drains to the next level down: the private L2
    // absorbs it if it holds the block, else it spills to the LLC.
    out.l1Spill = l1res.writeback &&
        (!l2Cache || !l2Cache->writebackUpdate(l1res.writebackAddr));
    out.l1SpillAddr = out.l1Spill ? l1res.writebackAddr : 0;
    if (l1res.hit) {
        out.level = PrivateOutcome::Level::L1;
        return out;
    }
    if (l2Cache) {
        const Cache::Result l2res = l2Cache->access(info);
        out.l2Spill = l2res.writeback;
        out.l2SpillAddr = l2res.writeback ? l2res.writebackAddr : 0;
        if (l2res.hit)
            out.level = PrivateOutcome::Level::L2;
    }
    return out;
}

bool
privateOutcomesLoggable(const HierarchyConfig &config)
{
    return !config.inclusive &&
        !parseIndexDefense(config.l1.defense).enabled() &&
        (!config.enableL2 || !parseIndexDefense(config.l2.defense).enabled());
}

std::string
privateLevelsKey(const HierarchyConfig &config)
{
    HierarchyConfig priv;
    priv.l1 = config.l1;
    priv.enableL2 = config.enableL2;
    if (config.enableL2)
        priv.l2 = config.l2;
    return hierarchyKey(priv);
}

std::string
hierarchyKey(const HierarchyConfig &config)
{
    // Fixed field order and count, so the rendering is unambiguous.
    std::string key;
    const auto add = [&key](std::initializer_list<std::uint64_t> fields) {
        for (const std::uint64_t f : fields) {
            key += std::to_string(f);
            key += '/';
        }
    };
    for (const CacheConfig *c : {&config.llc, &config.l1, &config.l2}) {
        add({c->sizeBytes, c->ways, c->blockSize});
        key += c->defense;
        key += '|';
    }
    add({config.enableL2, config.l1Latency, config.l2Latency,
         config.llcLatency, config.dram.latency, config.dram.occupancy,
         config.dram.channels, config.prefetch.enabled,
         config.prefetch.tableEntries, config.prefetch.degree,
         config.inclusive, config.numCores});
    return key;
}

MemoryHierarchy::MemoryHierarchy(
    const HierarchyConfig &config,
    std::unique_ptr<ReplacementPolicy> llc_policy)
    : cfg(config), dramModel(config.dram)
{
    if (cfg.numCores == 0)
        fatal("hierarchy needs at least one core");
    // The private levels see exactly one core each.
    privates.reserve(cfg.numCores);
    for (std::uint32_t c = 0; c < cfg.numCores; ++c)
        privates.emplace_back(cfg, c, cfg.numCores);
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
    return accessShared(info, privates[core].access(info), now);
}

Cycles
MemoryHierarchy::accessShared(const AccessInfo &info,
                              const PrivateOutcome &priv, Cycles now)
{
    // Spills in level order: L1 spills carry the L1 hit latency, L2
    // spills the L1+L2 depth.
    if (priv.l1Spill && !llcCache->writebackUpdate(priv.l1SpillAddr))
        dramModel.write(now + cfg.l1Latency);
    if (priv.l2Spill && !llcCache->writebackUpdate(priv.l2SpillAddr))
        dramModel.write(now + cfg.l1Latency + cfg.l2Latency);

    Cycles latency = cfg.l1Latency;
    if (priv.level == PrivateOutcome::Level::L1)
        return latency;
    if (cfg.enableL2)
        latency += cfg.l2Latency;
    if (priv.level == PrivateOutcome::Level::L2)
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
        prefetchers[info.coreId]->train(info.pc, info.addr, prefetchQueue);
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
    for (PrivateLevels &p : privates) {
        if (p.l1().invalidate(addr))
            ++backInvalidated;
        if (p.l2() != nullptr && p.l2()->invalidate(addr))
            ++backInvalidated;
    }
}

} // namespace nucache
