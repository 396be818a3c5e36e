/**
 * @file
 * The multicore memory hierarchy: per-core private L1s, one shared
 * last-level cache with an injected management policy, and a DRAM
 * model.
 *
 * Non-inclusive: L1 misses allocate in both levels; LLC evictions do
 * not back-invalidate L1s (their small capacity makes stale overlap
 * negligible for miss-rate studies, matching common trace-simulator
 * practice, e.g.\ the ChampSim default).
 */

#ifndef NUCACHE_MEM_HIERARCHY_HH
#define NUCACHE_MEM_HIERARCHY_HH

#include <memory>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/prefetcher.hh"

namespace nucache
{

/** Static description of the full hierarchy. */
struct HierarchyConfig
{
    std::uint32_t numCores = 1;
    /** Geometry of each private L1 (replicated per core). */
    CacheConfig l1{"l1", 32 << 10, 8, 64};
    /** Optional private L2 per core (three-level hierarchy). */
    bool enableL2 = false;
    CacheConfig l2{"l2", 256 << 10, 8, 64};
    /** Geometry of the shared LLC. */
    CacheConfig llc{"llc", 1 << 20, 16, 64};
    /** L1 hit latency. */
    Cycles l1Latency = 3;
    /** Additional latency of a private-L2 hit. */
    Cycles l2Latency = 10;
    /** Additional latency of an LLC hit. */
    Cycles llcLatency = 20;
    DramConfig dram;
    /** Optional per-core stride prefetcher into the LLC. */
    PrefetcherConfig prefetch;
    /**
     * Inclusive LLC: evicting an LLC line back-invalidates the copies
     * in the private levels (the enforcement cost inclusion pays; the
     * default non-inclusive model skips it).
     */
    bool inclusive = false;
};

/**
 * Owns the cache levels and routes accesses through them.
 *
 * The LLC policy is injected by the caller (this is where NUcache or a
 * baseline plugs in); L1s always use LRU.
 */
class MemoryHierarchy
{
  public:
    /**
     * @param config geometry and latencies.
     * @param llc_policy management policy for the shared LLC.
     */
    MemoryHierarchy(const HierarchyConfig &config,
                    std::unique_ptr<ReplacementPolicy> llc_policy);

    /**
     * Perform one demand access.
     * @param core issuing core (< numCores).
     * @param addr byte address (already core-disambiguated).
     * @param pc   issuing instruction address.
     * @param is_write store or load.
     * @param now  issuing core's current cycle (for DRAM contention).
     * @return total load-to-use latency in cycles.
     */
    Cycles access(CoreId core, Addr addr, PC pc, bool is_write,
                  Cycles now);

    /** @return the shared last-level cache. */
    Cache &llc() { return *llcCache; }
    const Cache &llc() const { return *llcCache; }

    /** @return core @p core's private L1. */
    Cache &l1(CoreId core) { return *l1Caches.at(core); }
    const Cache &l1(CoreId core) const { return *l1Caches.at(core); }

    /** @return core @p core's private L2; nullptr when disabled. */
    Cache *
    l2(CoreId core)
    {
        return l2Caches.empty() ? nullptr : l2Caches.at(core).get();
    }

    /** @return back-invalidations performed (inclusive mode). */
    std::uint64_t backInvalidations() const { return backInvalidated; }

    /** @return the memory model. */
    DramModel &dram() { return dramModel; }
    const DramModel &dram() const { return dramModel; }

    /** @return core @p core's prefetcher (nullptr when disabled). */
    const StridePrefetcher *
    prefetcher(CoreId core) const
    {
        return prefetchers.empty() ? nullptr : prefetchers.at(core).get();
    }

    /** @return the configuration. */
    const HierarchyConfig &config() const { return cfg; }

  private:
    /** Purge @p addr from every core's private levels (inclusion). */
    void backInvalidate(Addr addr);

    HierarchyConfig cfg;
    std::vector<std::unique_ptr<Cache>> l1Caches;
    std::vector<std::unique_ptr<Cache>> l2Caches;
    std::unique_ptr<Cache> llcCache;
    std::uint64_t backInvalidated = 0;
    DramModel dramModel;
    std::vector<std::unique_ptr<StridePrefetcher>> prefetchers;
    /** Scratch list reused across accesses. */
    std::vector<Addr> prefetchQueue;
};

} // namespace nucache

#endif // NUCACHE_MEM_HIERARCHY_HH
