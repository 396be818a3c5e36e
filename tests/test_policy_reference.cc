/**
 * @file
 * Lockstep reference models for the baseline policies' hooks.
 *
 * PIPP keeps its ways in rank order, UCP picks victims from per-core
 * way masks, and DIP/TADIP/LIP stamp LRU insertions with a masked SIMD
 * minimum.  Each reference below is the plain scalar form those hooks
 * replaced: PIPP with one rank byte per way and five scans per access,
 * UCP with an occupancy vector and a predicate scan over the set, and
 * the insertion policies with a loop over the other valid lines.  Both
 * sides of a pair replay the same random multi-core stream in
 * lockstep and must agree on every hit, on the victim of every miss
 * (the tag row of the touched set after each access) and, for PIPP, on
 * the rank of every way.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "mem/cache.hh"
#include "policy/atd.hh"
#include "policy/dip.hh"
#include "policy/pipp.hh"
#include "policy/ucp.hh"

namespace nucache
{
namespace
{

/** Monitors and epoch allocator shared by the two references. */
class RefPartitioned : public ReplacementPolicy
{
  public:
    RefPartitioned(std::uint64_t epoch, unsigned shift)
        : epochAccesses(epoch), sampleShift(shift)
    {
    }

    void
    init(const PolicyContext &ctx) override
    {
        ReplacementPolicy::init(ctx);
        monitors.clear();
        for (std::uint32_t c = 0; c < ctx.numCores; ++c)
            monitors.emplace_back(ctx.numSets, ctx.numWays, sampleShift);
        alloc.assign(ctx.numCores, ctx.numWays / ctx.numCores);
        for (std::uint32_t c = 0; c < ctx.numWays % ctx.numCores; ++c)
            ++alloc[c];
    }

  protected:
    std::size_t
    slot(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * context.numWays + way;
    }

    void
    observe(const SetView &set, const AccessInfo &info)
    {
        monitors[info.coreId].observe(set.setIndex(),
                                      info.addr / context.blockSize);
        if (++accessCount % epochAccesses != 0)
            return;
        std::vector<std::vector<std::uint64_t>> curves;
        for (auto &m : monitors) {
            std::vector<std::uint64_t> curve(context.numWays, 0);
            for (std::uint32_t w = 1; w <= context.numWays; ++w)
                curve[w - 1] = m.hitsWithWays(w);
            curves.push_back(std::move(curve));
            m.decay();
        }
        alloc = lookaheadPartition(curves, context.numWays, 1);
    }

    std::vector<std::uint32_t> alloc;

  private:
    std::uint64_t epochAccesses;
    unsigned sampleShift;
    std::vector<UtilityMonitor> monitors;
    std::uint64_t accessCount = 0;
};

/** PIPP with one rank byte per way, every hook a scan of the set. */
class RefPipp : public RefPartitioned
{
  public:
    explicit RefPipp(const PippConfig &cfg)
        : RefPartitioned(cfg.epochAccesses, cfg.sampleShift),
          promoteProb(cfg.promoteProb)
    {
    }

    void
    init(const PolicyContext &ctx) override
    {
        RefPartitioned::init(ctx);
        rank.assign(static_cast<std::size_t>(ctx.numSets) * ctx.numWays,
                    noRank);
    }

    std::uint32_t
    victimWay(const SetView &set, const AccessInfo &) override
    {
        std::uint32_t victim = 0;
        std::uint32_t best = noRank;
        for (std::uint32_t w = 0; w < set.ways(); ++w) {
            const std::uint8_t r = rank[slot(set.setIndex(), w)];
            if (set.line(w).valid && r < best) {
                best = r;
                victim = w;
            }
        }
        return victim;
    }

    void
    onHit(const SetView &set, std::uint32_t way,
          const AccessInfo &info) override
    {
        observe(set, info);
        if (!rng.chance(promoteProb))
            return;
        const std::uint8_t mine = rank[slot(set.setIndex(), way)];
        for (std::uint32_t w = 0; w < set.ways(); ++w) {
            if (w != way && rank[slot(set.setIndex(), w)] == mine + 1) {
                rank[slot(set.setIndex(), w)] = mine;
                rank[slot(set.setIndex(), way)] =
                    static_cast<std::uint8_t>(mine + 1);
                return;
            }
        }
    }

    void
    onMiss(const SetView &set, const AccessInfo &info) override
    {
        observe(set, info);
    }

    void
    onEvict(const SetView &set, std::uint32_t way, const CacheLine &,
            const AccessInfo &) override
    {
        const std::uint8_t gone = rank[slot(set.setIndex(), way)];
        rank[slot(set.setIndex(), way)] = noRank;
        if (gone == noRank)
            return;
        for (std::uint32_t w = 0; w < set.ways(); ++w) {
            std::uint8_t &r = rank[slot(set.setIndex(), w)];
            if (r != noRank && r > gone)
                --r;
        }
    }

    void
    onFill(const SetView &set, std::uint32_t way,
           const AccessInfo &info) override
    {
        std::uint32_t ranked = 0;
        for (std::uint32_t w = 0; w < set.ways(); ++w) {
            if (w != way && rank[slot(set.setIndex(), w)] != noRank)
                ++ranked;
        }
        const std::uint32_t pi = alloc[info.coreId];
        const std::uint8_t pos = static_cast<std::uint8_t>(
            std::min<std::uint32_t>(pi == 0 ? 0 : pi - 1, ranked));
        for (std::uint32_t w = 0; w < set.ways(); ++w) {
            std::uint8_t &r = rank[slot(set.setIndex(), w)];
            if (w != way && r != noRank && r >= pos)
                ++r;
        }
        rank[slot(set.setIndex(), way)] = pos;
    }

    std::string name() const override { return "ref-pipp"; }

    std::uint32_t
    rankOf(std::uint32_t set, std::uint32_t way) const
    {
        return rank[slot(set, way)];
    }

  private:
    static constexpr std::uint8_t noRank = 0xff;

    double promoteProb;
    Rng rng{0x9199ull};
    std::vector<std::uint8_t> rank;
};

/** UCP with an occupancy vector and predicate scans per victim. */
class RefUcp : public RefPartitioned
{
  public:
    explicit RefUcp(const UcpConfig &cfg)
        : RefPartitioned(cfg.epochAccesses, cfg.sampleShift)
    {
    }

    void
    init(const PolicyContext &ctx) override
    {
        RefPartitioned::init(ctx);
        const std::size_t lines =
            static_cast<std::size_t>(ctx.numSets) * ctx.numWays;
        lastTouch.assign(lines, 0);
        owner.assign(lines, invalidCore);
    }

    std::uint32_t
    victimWay(const SetView &set, const AccessInfo &info) override
    {
        const auto core = [&](std::uint32_t w) {
            return owner[slot(set.setIndex(), w)];
        };
        std::vector<std::uint32_t> occ(context.numCores, 0);
        for (std::uint32_t w = 0; w < set.ways(); ++w) {
            if (set.line(w).valid && core(w) < context.numCores)
                ++occ[core(w)];
        }
        const CoreId me = info.coreId;
        if (occ[me] < alloc[me]) {
            const std::uint32_t v = lruAmong(set, [&](std::uint32_t w) {
                return set.line(w).valid && core(w) < context.numCores &&
                       occ[core(w)] > alloc[core(w)];
            });
            if (v != set.ways())
                return v;
        }
        const std::uint32_t own = lruAmong(set, [&](std::uint32_t w) {
            return set.line(w).valid && core(w) == me;
        });
        if (own != set.ways())
            return own;
        return lruAmong(set,
                        [&](std::uint32_t w) { return set.line(w).valid; });
    }

    void
    onHit(const SetView &set, std::uint32_t way,
          const AccessInfo &info) override
    {
        lastTouch[slot(set.setIndex(), way)] = info.tick;
        observe(set, info);
    }

    void
    onMiss(const SetView &set, const AccessInfo &info) override
    {
        observe(set, info);
    }

    void
    onFill(const SetView &set, std::uint32_t way,
           const AccessInfo &info) override
    {
        lastTouch[slot(set.setIndex(), way)] = info.tick;
        owner[slot(set.setIndex(), way)] = info.coreId;
    }

    std::string name() const override { return "ref-ucp"; }

  private:
    std::uint32_t
    lruAmong(const SetView &set,
             const std::function<bool(std::uint32_t)> &pred) const
    {
        std::uint32_t victim = set.ways();
        Tick oldest = ~Tick{0};
        for (std::uint32_t w = 0; w < set.ways(); ++w) {
            const Tick t = lastTouch[slot(set.setIndex(), w)];
            if (pred(w) && t < oldest) {
                oldest = t;
                victim = w;
            }
        }
        return victim;
    }

    std::vector<Tick> lastTouch;
    std::vector<CoreId> owner;
};

/**
 * An insertion-LRU policy with its victim and LRU-insertion hooks
 * replaced by the scalar loops; insertAtMru (set dueling, BIP's coin)
 * is @p Base's own, so both sides draw the same decisions.
 */
template <typename Base>
class ScalarInsertion : public Base
{
  public:
    using Base::Base;

    std::uint32_t
    victimWay(const SetView &set, const AccessInfo &) override
    {
        std::uint32_t victim = 0;
        Tick oldest = ~Tick{0};
        for (std::uint32_t w = 0; w < set.ways(); ++w) {
            const Tick t = this->lastTouch[this->slot(set.setIndex(), w)];
            if (t < oldest) {
                oldest = t;
                victim = w;
            }
        }
        return victim;
    }

    void
    onFill(const SetView &set, std::uint32_t way,
           const AccessInfo &info) override
    {
        auto &stamps = this->lastTouch;
        if (this->insertAtMru(set, info)) {
            stamps[this->slot(set.setIndex(), way)] = info.tick;
            return;
        }
        Tick oldest = ~Tick{0};
        for (std::uint32_t w = 0; w < set.ways(); ++w) {
            if (w == way || !set.line(w).valid)
                continue;
            oldest = std::min(oldest, stamps[this->slot(set.setIndex(), w)]);
        }
        if (oldest == ~Tick{0})
            oldest = 1;
        stamps[this->slot(set.setIndex(), way)] =
            oldest > 0 ? oldest - 1 : 0;
    }
};

struct Shape
{
    std::uint32_t ways;
    std::uint32_t cores;
};

/** Every (ways, cores) pair of the lockstep sweep that fits. */
std::vector<Shape>
shapes()
{
    std::vector<Shape> out;
    for (const std::uint32_t ways : {4u, 16u, 32u, 64u}) {
        for (const std::uint32_t cores : {1u, 2u, 4u, 8u}) {
            if (ways >= cores)
                out.push_back({ways, cores});
        }
    }
    return out;
}

constexpr std::uint32_t kSets = 32;

/**
 * Replay one random multi-core stream through @p fast and @p ref in
 * lockstep: per core, a loop a little larger than the cache (so
 * insertion and partitioning decisions matter) mixed with uniform
 * traffic over four times its capacity.  @p same_state compares the
 * policies' own per-way state after each access.
 */
void
lockstep(Cache &fast, Cache &ref, std::uint32_t cores, std::uint64_t seed,
         const std::function<void(std::uint32_t set)> &same_state = {})
{
    const std::uint64_t blocks =
        static_cast<std::uint64_t>(kSets) * fast.numWays();
    const std::uint64_t loop = blocks + blocks / 4;
    std::vector<std::uint64_t> cursor(cores, 0);
    Rng rng(seed);
    for (int i = 0; i < 12000; ++i) {
        AccessInfo info;
        info.coreId = static_cast<CoreId>(rng.below(cores));
        const Addr base = static_cast<Addr>(info.coreId) << 32;
        const std::uint64_t block =
            rng.chance(0.5) ? cursor[info.coreId]++ % loop
                            : rng.below(4 * blocks);
        info.addr = base + block * 64;
        info.pc = 0x400000 + rng.below(16) * 4;
        info.isWrite = rng.chance(0.2);

        const Cache::Result a = fast.access(info);
        const Cache::Result b = ref.access(info);
        ASSERT_EQ(a.hit, b.hit) << "access " << i;
        ASSERT_EQ(a.evicted, b.evicted) << "access " << i;
        ASSERT_EQ(a.evictedAddr, b.evictedAddr) << "access " << i;
        ASSERT_EQ(a.writeback, b.writeback) << "access " << i;

        const std::uint32_t set = fast.setIndexOf(info.addr);
        const SetView fv = fast.viewSet(set);
        const SetView rv = ref.viewSet(set);
        for (std::uint32_t w = 0; w < fv.ways(); ++w) {
            ASSERT_EQ(fv.line(w).valid, rv.line(w).valid)
                << "access " << i << " way " << w;
            ASSERT_EQ(fv.tag(w), rv.tag(w)) << "access " << i << " way " << w;
        }
        if (same_state) {
            ASSERT_NO_FATAL_FAILURE(same_state(set)) << "access " << i;
        }
    }
    const CacheCoreStats fs = fast.totalStats();
    EXPECT_EQ(fs.hits, ref.totalStats().hits);
    EXPECT_GT(fs.hits, 0u);
    EXPECT_GT(fs.evictions, 0u);
}

CacheConfig
geometry(std::uint32_t ways)
{
    return CacheConfig{"ref", std::uint64_t{kSets} * ways * 64, ways, 64};
}

TEST(PolicyReference, PippOrderRowsMatchScalarRanks)
{
    for (const Shape &s : shapes()) {
        SCOPED_TRACE(std::to_string(s.ways) + " ways, " +
                     std::to_string(s.cores) + " cores");
        PippConfig cfg;
        cfg.epochAccesses = 1000;
        cfg.sampleShift = 1;
        auto fast_policy = std::make_unique<PippPolicy>(cfg);
        auto ref_policy = std::make_unique<RefPipp>(cfg);
        const PippPolicy &pipp = *fast_policy;
        const RefPipp &scalar = *ref_policy;
        Cache fast(geometry(s.ways), std::move(fast_policy), s.cores);
        Cache ref(geometry(s.ways), std::move(ref_policy), s.cores);
        lockstep(fast, ref, s.cores, 0x9199 + s.ways * 16 + s.cores,
                 [&](std::uint32_t set) {
                     for (std::uint32_t w = 0; w < s.ways; ++w)
                         ASSERT_EQ(pipp.rankOf(set, w),
                                   scalar.rankOf(set, w))
                             << "way " << w;
                 });
    }
}

TEST(PolicyReference, UcpMaskVictimsMatchScanVictims)
{
    for (const Shape &s : shapes()) {
        SCOPED_TRACE(std::to_string(s.ways) + " ways, " +
                     std::to_string(s.cores) + " cores");
        UcpConfig cfg;
        cfg.epochAccesses = 1000;
        cfg.sampleShift = 1;
        Cache fast(geometry(s.ways), std::make_unique<UcpPolicy>(cfg),
                   s.cores);
        Cache ref(geometry(s.ways), std::make_unique<RefUcp>(cfg), s.cores);
        lockstep(fast, ref, s.cores, 0x0c9 + s.ways * 16 + s.cores);
    }
}

/** DIP, TADIP and LIP against their scalar-loop twins. */
template <typename Policy>
void
insertionLockstep(std::uint64_t seed)
{
    for (const Shape &s : shapes()) {
        SCOPED_TRACE(std::to_string(s.ways) + " ways, " +
                     std::to_string(s.cores) + " cores");
        Cache fast(geometry(s.ways), std::make_unique<Policy>(), s.cores);
        Cache ref(geometry(s.ways),
                  std::make_unique<ScalarInsertion<Policy>>(), s.cores);
        lockstep(fast, ref, s.cores, seed + s.ways * 16 + s.cores);
    }
}

TEST(PolicyReference, DipInsertionMatchesScalarLoops)
{
    insertionLockstep<DipPolicy>(0xd1b);
}

TEST(PolicyReference, TadipInsertionMatchesScalarLoops)
{
    insertionLockstep<TadipPolicy>(0x7ad1b);
}

TEST(PolicyReference, LipInsertionMatchesScalarLoops)
{
    insertionLockstep<LipPolicy>(0x11b);
}

} // anonymous namespace
} // namespace nucache
