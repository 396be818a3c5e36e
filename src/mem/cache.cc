#include "mem/cache.hh"

#include <algorithm>
#include <bit>
#include <typeinfo>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "common/simd.hh"
#include "mem/lru.hh"

namespace nucache
{

std::uint32_t
CacheConfig::numSets() const
{
    const std::uint64_t line_bytes =
        static_cast<std::uint64_t>(ways) * blockSize;
    return static_cast<std::uint32_t>(sizeBytes / line_bytes);
}

Cache::Cache(const CacheConfig &config,
             std::unique_ptr<ReplacementPolicy> policy,
             std::uint32_t num_cores)
    : cfg(config), repl(std::move(policy))
{
    if (!repl)
        fatal("cache '", cfg.name, "': no replacement policy given");
    if (!isPowerOf2(cfg.blockSize))
        fatal("cache '", cfg.name, "': block size must be a power of two");
    if (cfg.ways == 0)
        fatal("cache '", cfg.name, "': zero associativity");
    if (cfg.ways > 64)
        fatal("cache '", cfg.name, "': associativity ", cfg.ways,
              " exceeds the 64 ways of the packed tag store's bitmasks");
    const std::uint64_t line_bytes =
        static_cast<std::uint64_t>(cfg.ways) * cfg.blockSize;
    if (cfg.sizeBytes == 0 || cfg.sizeBytes % line_bytes != 0)
        fatal("cache '", cfg.name, "': size ", cfg.sizeBytes,
              " is not a multiple of ways*blockSize");
    sets = cfg.numSets();
    if (!isPowerOf2(sets))
        fatal("cache '", cfg.name, "': number of sets (", sets,
              ") must be a power of two");
    blockBits = floorLog2(cfg.blockSize);
    fullWayMask = mask(cfg.ways);

    defenseCfg = parseIndexDefense(cfg.defense);
    defenseOn = defenseCfg.enabled();
    defenseEpochKey = epochKeyOf(defenseCfg.key, 0);

    const std::size_t entries = static_cast<std::size_t>(sets) * cfg.ways;
    tags.assign(entries, 0);
    validBits.assign(sets, 0);
    dirtyBits.assign(sets, 0);
    stats.assign(num_cores, CacheCoreStats{});

    PolicyContext ctx;
    ctx.numSets = sets;
    ctx.numWays = cfg.ways;
    ctx.numCores = num_cores;
    ctx.blockSize = cfg.blockSize;
    repl->init(ctx);

    // Exact-type check: a subclass may override hooks the fast lane
    // would skip, so it must keep the virtual path.
    if (typeid(*repl) == typeid(LruPolicy))
        lruFast = static_cast<LruPolicy *>(repl.get());
}

std::uint32_t
Cache::setIndexOf(Addr addr) const
{
    const Addr tag = addr >> blockBits;
    if (defenseOn)
        return scrambleIndex(tag, defenseEpochKey, sets);
    return static_cast<std::uint32_t>(tag & (sets - 1));
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> blockBits;
}

SetView
Cache::viewSet(std::uint32_t set) const
{
    const std::size_t base = static_cast<std::size_t>(set) * cfg.ways;
    return SetView(&tags[base], &validBits[set], &dirtyBits[set], cfg.ways,
                   set);
}

std::uint32_t
Cache::findWay(std::uint32_t set, Addr tag) const
{
    // Packed-compare the contiguous per-set tag span into an equality
    // bitmask, mask with the valid word, and count trailing zeros.
    // Lowest matching way wins, matching the old first-match scan
    // (duplicates are excluded by the checker's structural invariant).
    const Addr *span = &tags[static_cast<std::size_t>(set) * cfg.ways];
    const std::uint64_t eq =
        simd::eqMask64(span, cfg.ways, tag) & validBits[set];
    return eq != 0 ? static_cast<std::uint32_t>(std::countr_zero(eq))
                   : cfg.ways;
}

Cache::Result
Cache::access(AccessInfo info)
{
    if (info.coreId >= stats.size())
        panic("cache '", cfg.name, "': access from core ", info.coreId,
              " but only ", stats.size(), " cores registered");

    info.tick = ++tickCounter;
    // Dynamic remap: the epoch clock is this cache's own access tick.
    if (defenseCfg.kind == IndexDefenseKind::RandDynamic) {
        const std::uint64_t epoch = (tickCounter - 1) / defenseCfg.period;
        if (epoch != defenseEpoch)
            remapFlush(epoch);
    }
    const std::uint32_t set = setIndexOf(info.addr);
    if (heatOn)
        ++heat[set];
    const Addr tag = tagOf(info.addr);
    const std::size_t base = static_cast<std::size_t>(set) * cfg.ways;
    std::uint64_t &valid = validBits[set];
    std::uint64_t &dirty = dirtyBits[set];
    const SetView view(&tags[base], &valid, &dirty, cfg.ways, set);

    auto &cs = stats[info.coreId];
    if (info.isPrefetch)
        ++cs.prefetches;
    else
        ++cs.accesses;

    Result res;
    const std::uint64_t eq =
        simd::eqMask64(&tags[base], cfg.ways, tag) & valid;
    const std::uint32_t hit_way =
        eq != 0 ? static_cast<std::uint32_t>(std::countr_zero(eq))
                : cfg.ways;
    if (hit_way != cfg.ways) {
        if (!info.isPrefetch) {
            ++cs.hits;
            // A prefetch hitting an already-resident line must not
            // refresh its replacement state (it carries no reuse
            // information), so the policy hook fires only for demand.
            if (lruFast)
                lruFast->touch(set, hit_way, info.tick);
            else
                repl->onHit(view, hit_way, info);
        }
        res.hit = true;
        if (info.isWrite)
            dirty |= std::uint64_t{1} << hit_way;
    } else {
        if (info.isPrefetch)
            ++cs.prefetchFills;
        else
            ++cs.misses;
        // The LRU fast lane skips onMiss/onEvict entirely: the base
        // class defines both as no-ops and LruPolicy overrides
        // neither (checked by the exact-type test in the ctor).
        if (!lruFast)
            repl->onMiss(view, info);

        // Prefer the lowest invalid way; consult the policy only when
        // the set is full.
        std::uint32_t victim;
        const std::uint64_t invalid = ~valid & fullWayMask;
        if (invalid != 0) {
            victim = static_cast<std::uint32_t>(std::countr_zero(invalid));
        } else if (lruFast) {
            victim = lruFast->oldestWay(set);
        } else {
            victim = repl->victimWay(view, info);
            if (victim >= cfg.ways)
                panic("cache '", cfg.name, "': policy '", repl->name(),
                      "' returned way ", victim, " of ", cfg.ways);
        }

        const std::uint64_t vbit = std::uint64_t{1} << victim;
        if ((valid & vbit) != 0) {
            res.evicted = true;
            ++cs.evictions;
            res.evictedAddr = tags[base + victim] << blockBits;
            if ((dirty & vbit) != 0) {
                res.writeback = true;
                res.writebackAddr = res.evictedAddr;
                ++writebackCount;
            }
            if (!lruFast) {
                const CacheLine victim_line = view.line(victim);
                repl->onEvict(view, victim, victim_line, info);
            }
        }

        tags[base + victim] = tag;
        valid |= vbit;
        if (info.isWrite)
            dirty |= vbit;
        else
            dirty &= ~vbit;
        if (lruFast)
            lruFast->touch(set, victim, info.tick);
        else
            repl->onFill(view, victim, info);
    }

    if (hasObserver)
        observer(set, info, res);
    return res;
}

void
Cache::remapFlush(std::uint64_t epoch)
{
    defenseEpoch = epoch;
    defenseEpochKey = epochKeyOf(defenseCfg.key, epoch);
    ++defenseRemapCount;
    // Dirty lines leave as write-backs; everything else is simply
    // dropped.  popcount per set keeps this O(sets), not O(ways).
    for (const std::uint64_t dirty : dirtyBits)
        writebackCount += static_cast<std::uint64_t>(std::popcount(dirty));
    std::fill(tags.begin(), tags.end(), Addr{0});
    std::fill(validBits.begin(), validBits.end(), std::uint64_t{0});
    std::fill(dirtyBits.begin(), dirtyBits.end(), std::uint64_t{0});
    repl->onFlushAll();
}

bool
Cache::probe(Addr addr) const
{
    return findWay(setIndexOf(addr), tagOf(addr)) != cfg.ways;
}

bool
Cache::invalidate(Addr addr)
{
    const std::uint32_t set = setIndexOf(addr);
    const std::uint32_t way = findWay(set, tagOf(addr));
    if (way == cfg.ways)
        return false;
    const std::size_t slot = static_cast<std::size_t>(set) * cfg.ways + way;
    tags[slot] = 0;
    const std::uint64_t wbit = std::uint64_t{1} << way;
    validBits[set] &= ~wbit;
    dirtyBits[set] &= ~wbit;
    return true;
}

bool
Cache::writebackUpdate(Addr addr)
{
    const std::uint32_t set = setIndexOf(addr);
    const std::uint32_t way = findWay(set, tagOf(addr));
    if (way == cfg.ways)
        return false;
    dirtyBits[set] |= std::uint64_t{1} << way;
    return true;
}

const CacheCoreStats &
Cache::coreStats(CoreId core) const
{
    if (core >= stats.size())
        panic("cache '", cfg.name, "': coreStats(", core, ") out of range");
    return stats[core];
}

CacheCoreStats
Cache::totalStats() const
{
    CacheCoreStats total;
    for (const auto &s : stats) {
        total.accesses += s.accesses;
        total.hits += s.hits;
        total.misses += s.misses;
        total.evictions += s.evictions;
        total.prefetches += s.prefetches;
        total.prefetchFills += s.prefetchFills;
    }
    return total;
}

void
Cache::enableSetHeat()
{
    heat.assign(sets, 0);
    heatOn = true;
}

void
Cache::resetStats()
{
    for (auto &s : stats)
        s = CacheCoreStats{};
    if (heatOn)
        heat.assign(sets, 0);
    writebackCount = 0;
}

} // namespace nucache
