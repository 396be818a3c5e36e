/**
 * @file
 * Set-associative cache model with pluggable replacement policy.
 *
 * Write-back, write-allocate, physically indexed.  Data contents are
 * not modeled; the tag array plus policy metadata fully determine
 * hit/miss behaviour, which is all a trace-driven study needs.
 */

#ifndef NUCACHE_MEM_CACHE_HH
#define NUCACHE_MEM_CACHE_HH

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mem/cache_line.hh"
#include "mem/rand_index.hh"
#include "mem/replacement.hh"

namespace nucache
{

class LruPolicy;

/** Static description of one cache level. */
struct CacheConfig
{
    CacheConfig() = default;

    /** The geometry alone; every other field keeps its default. */
    CacheConfig(std::string cache_name, std::uint64_t size_bytes,
                std::uint32_t num_ways, std::uint32_t block_size)
        : name(std::move(cache_name)), sizeBytes(size_bytes),
          ways(num_ways), blockSize(block_size)
    {
    }

    std::string name = "cache";
    /** Total capacity in bytes; must be sets*ways*blockSize. */
    std::uint64_t sizeBytes = 1 << 20;
    /** Associativity. */
    std::uint32_t ways = 16;
    /** Line size in bytes (power of two). */
    std::uint32_t blockSize = 64;
    /**
     * Randomized-index defense spec ("none", "rand[:key=N]",
     * "rand-dynamic[:key=N][,period=N]"; see mem/rand_index.hh).
     * Empty means no scrambling — plain low-bits indexing.
     */
    std::string defense;

    /** @return number of sets implied by the geometry. */
    std::uint32_t numSets() const;
};

/** Per-core hit/miss accounting of one cache. */
struct CacheCoreStats
{
    /** Demand accesses (prefetches are counted separately). */
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /** Valid lines this core's fills displaced (telemetry probes). */
    std::uint64_t evictions = 0;
    /** Prefetch lookups and the subset that filled a new line. */
    std::uint64_t prefetches = 0;
    std::uint64_t prefetchFills = 0;

    /** @return miss ratio, 0 when no accesses. */
    double
    missRate() const
    {
        return accesses == 0
            ? 0.0
            : static_cast<double>(misses) / static_cast<double>(accesses);
    }
};

/**
 * The cache model.  One instance per level (and per core for private
 * levels).  The replacement policy is injected and owned.
 */
class Cache
{
  public:
    /** Outcome of one access, surfaced to the hierarchy. */
    struct Result
    {
        /** The block was present. */
        bool hit = false;
        /** A dirty line was evicted and must be written back. */
        bool writeback = false;
        /** Block-aligned address of the evicted dirty line. */
        Addr writebackAddr = 0;
        /** A valid (clean or dirty) line was evicted. */
        bool evicted = false;
        /** Block-aligned address of the evicted line. */
        Addr evictedAddr = 0;
    };

    /**
     * @param config geometry; fatal() if inconsistent.
     * @param policy replacement policy instance (ownership taken).
     * @param num_cores number of cores that will access this cache.
     */
    Cache(const CacheConfig &config,
          std::unique_ptr<ReplacementPolicy> policy,
          std::uint32_t num_cores = 1);

    /**
     * Perform one access: lookup, and on a miss evict + fill.
     * The cache assigns info.tick internally.
     */
    Result access(AccessInfo info);

    /**
     * Called after every completed access with the touched set, the
     * (tick-stamped) access and its outcome.  The correctness layer
     * (check/checker.hh) installs its per-access invariant sweep here;
     * an empty observer costs one branch.
     */
    using AccessObserver = std::function<void(
        std::uint32_t set, const AccessInfo &info, const Result &res)>;

    /** Install (or clear, with an empty function) the observer. */
    void
    setAccessObserver(AccessObserver obs)
    {
        observer = std::move(obs);
        // Cached so the hot path tests a plain bool instead of
        // std::function::operator bool on every access.
        hasObserver = static_cast<bool>(observer);
    }

    /** @return number of cores registered at construction. */
    std::uint32_t
    numCores() const
    {
        return static_cast<std::uint32_t>(stats.size());
    }

    /** @return true iff @p addr is present (no state change). */
    bool probe(Addr addr) const;

    /** Invalidate @p addr if present; @return whether it was present. */
    bool invalidate(Addr addr);

    /**
     * Apply a write-back from an upper level: if @p addr is present,
     * mark it dirty.  Deliberately bypasses policy hooks and statistics
     * (a write-back is not a demand reuse).
     * @return true iff the block was present and absorbed.
     */
    bool writebackUpdate(Addr addr);

    /** @return per-core statistics. */
    const CacheCoreStats &coreStats(CoreId core) const;

    /** @return statistics summed over all cores. */
    CacheCoreStats totalStats() const;

    /** @return write-backs issued. */
    std::uint64_t writebacks() const { return writebackCount; }

    /** @return accesses performed so far (the internal tick clock). */
    std::uint64_t accessCount() const { return tickCounter; }

    /**
     * Start counting per-set access heat (telemetry opt-in).  Costs
     * one branch on a cached bool plus an increment per access once
     * enabled; nothing at all before.
     */
    void enableSetHeat();

    /** @return per-set access counts; empty unless enableSetHeat(). */
    const std::vector<std::uint64_t> &setHeat() const { return heat; }

    /** @return the configured geometry. */
    const CacheConfig &config() const { return cfg; }

    /** @return number of sets. */
    std::uint32_t numSets() const { return sets; }

    /** @return associativity. */
    std::uint32_t numWays() const { return cfg.ways; }

    /** @return the parsed randomized-index defense configuration. */
    const IndexDefenseConfig &defense() const { return defenseCfg; }

    /** @return dynamic-remap flushes performed (0 unless rand-dynamic). */
    std::uint64_t defenseRemaps() const { return defenseRemapCount; }

    /** @return the replacement policy (for tests / introspection). */
    ReplacementPolicy &policy() { return *repl; }
    const ReplacementPolicy &policy() const { return *repl; }

    /** @return the set index of @p addr. */
    std::uint32_t setIndexOf(Addr addr) const;

    /** @return the block tag of @p addr (addr >> blockBits). */
    Addr tagOf(Addr addr) const;

    /** @return read-only view of set @p set (tests / monitors). */
    SetView viewSet(std::uint32_t set) const;

    /** Zero all statistics (leaves cache contents intact). */
    void resetStats();

  private:
    /** @return way holding @p tag in @p set, or ways if absent. */
    std::uint32_t findWay(std::uint32_t set, Addr tag) const;

    /**
     * Enter remap epoch @p epoch: derive its scramble key, invalidate
     * every line (dirty lines count as write-backs — re-keying does
     * not lose data, it flushes it) and tell the policy its per-line
     * metadata is gone.
     */
    void remapFlush(std::uint64_t epoch);

    CacheConfig cfg;
    std::uint32_t sets;
    unsigned blockBits;
    /** Bitmask with one bit per way (ways <= 64). */
    std::uint64_t fullWayMask = 0;
    std::unique_ptr<ReplacementPolicy> repl;
    /**
     * Non-null iff `repl` is exactly the stock LruPolicy (the L1s of
     * every configuration and the baseline LLC): access() then skips
     * the virtual hooks for inlined stamp updates and victim scans.
     * Subclassed policies keep the virtual path.
     */
    LruPolicy *lruFast = nullptr;

    /**
     * The packed structure-of-arrays tag store, indexed by set: tags
     * (contiguous per set) plus one valid and one dirty word per set.
     * Who allocated a line is the business of the policies that key on
     * it; each keeps that in a per-line column of its own.
     */
    std::vector<Addr> tags;               ///< sets * ways
    std::vector<std::uint64_t> validBits; ///< one word per set
    std::vector<std::uint64_t> dirtyBits; ///< one word per set

    std::vector<CacheCoreStats> stats;
    std::uint64_t writebackCount = 0;
    /** Per-set access counters; allocated by enableSetHeat(). */
    std::vector<std::uint64_t> heat;
    AccessObserver observer;
    /** Mirrors observer's non-emptiness (hot-path test). */
    bool hasObserver = false;
    /** Mirrors the heat counters' presence (hot-path test). */
    bool heatOn = false;
    Tick tickCounter = 0;

    /** Parsed from cfg.defense at construction. */
    IndexDefenseConfig defenseCfg;
    /** Mirrors defenseCfg.enabled() (hot-path test in setIndexOf). */
    bool defenseOn = false;
    /** Scramble key of the current remap epoch. */
    std::uint64_t defenseEpochKey = 0;
    /** Current remap epoch ordinal (accesses / period). */
    std::uint64_t defenseEpoch = 0;
    std::uint64_t defenseRemapCount = 0;
};

} // namespace nucache

#endif // NUCACHE_MEM_CACHE_HH
