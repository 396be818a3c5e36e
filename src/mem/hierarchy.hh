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
 *
 * An access is a private step (PrivateLevels: one core's L1 and
 * optional L2) followed by a shared step (accessShared: spills, LLC,
 * prefetcher, DRAM).  Because the private step of a non-inclusive
 * hierarchy depends on the core's own stream alone, its outcomes can
 * also be replayed from a log (trace/arena.hh) instead.
 */

#ifndef NUCACHE_MEM_HIERARCHY_HH
#define NUCACHE_MEM_HIERARCHY_HH

#include <memory>
#include <string>
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
 * What one core's private levels did with one demand access.  It
 * depends only on that core's own stream: co-runners and the LLC
 * cannot change it in a non-inclusive hierarchy, which is what lets a
 * per-trace log (PrivateLog, trace/arena.hh) stand in for the live
 * private caches.
 */
struct PrivateOutcome
{
    /** The private level that served the access; Miss goes on. */
    enum class Level : std::uint8_t { L1, L2, Miss };
    Level level = Level::Miss;
    /** A dirty L1 victim that no private L2 absorbed. */
    bool l1Spill = false;
    /** A dirty L2 victim. */
    bool l2Spill = false;
    Addr l1SpillAddr = 0;
    Addr l2SpillAddr = 0;
};

/** One core's private L1 and optional private L2, both LRU. */
class PrivateLevels
{
  public:
    /**
     * @param config geometry (numCores is ignored).
     * @param core   id used in the cache names.
     * @param num_cores cores the caches account for.
     */
    PrivateLevels(const HierarchyConfig &config, CoreId core,
                  std::uint32_t num_cores);

    /** Run one demand access through the private levels. */
    PrivateOutcome access(const AccessInfo &info);

    Cache &l1() { return *l1Cache; }
    const Cache &l1() const { return *l1Cache; }
    /** @return the private L2; nullptr when disabled. */
    Cache *l2() { return l2Cache.get(); }

  private:
    std::unique_ptr<Cache> l1Cache;
    std::unique_ptr<Cache> l2Cache;
};

/**
 * @return true iff each core's private-level outcomes depend on its
 * own stream alone, so a PrivateOutcome log may replace the live
 * private caches: the LLC does not back-invalidate them (inclusion)
 * and no private level scrambles its index with the full address
 * (which includes the per-core offset).
 */
bool privateOutcomesLoggable(const HierarchyConfig &config);

/**
 * @return a key naming every field the private outcomes of a
 * privateOutcomesLoggable() hierarchy depend on: hierarchyKey() of
 * its private geometry alone.
 */
std::string privateLevelsKey(const HierarchyConfig &config);

/**
 * @return a key naming every field of @p config that can change a
 * run: each level's geometry and defense, enableL2, the latencies,
 * the DRAM model, the prefetcher, inclusion and the core count (not
 * the cache names, which only label statistics).  The LLC comes
 * first, so keys that differ only in LLC size differ early.
 */
std::string hierarchyKey(const HierarchyConfig &config);

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

    /**
     * The shared half of a demand access whose private levels
     * produced @p priv (live, or replayed from a log): the private
     * spills in level order, then on a private miss the LLC, the
     * prefetcher and DRAM.
     * @return total load-to-use latency in cycles.
     */
    Cycles accessShared(const AccessInfo &info, const PrivateOutcome &priv,
                        Cycles now);

    /** @return the shared last-level cache. */
    Cache &llc() { return *llcCache; }
    const Cache &llc() const { return *llcCache; }

    /** @return core @p core's private L1. */
    Cache &l1(CoreId core) { return privates.at(core).l1(); }
    const Cache &l1(CoreId core) const { return privates.at(core).l1(); }

    /** @return core @p core's private L2; nullptr when disabled. */
    Cache *l2(CoreId core) { return privates.at(core).l2(); }

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
    std::vector<PrivateLevels> privates;
    std::unique_ptr<Cache> llcCache;
    std::uint64_t backInvalidated = 0;
    DramModel dramModel;
    std::vector<std::unique_ptr<StridePrefetcher>> prefetchers;
    /** Scratch list reused across accesses. */
    std::vector<Addr> prefetchQueue;
};

} // namespace nucache

#endif // NUCACHE_MEM_HIERARCHY_HH
