/**
 * @file
 * Lockstep reference models for the policies' hooks.
 *
 * PIPP keeps its ways in rank order, UCP picks victims from per-core
 * way masks, and DIP/TADIP/LIP stamp LRU insertions with a masked SIMD
 * minimum.  Each reference below is the plain scalar form those hooks
 * replaced: PIPP with one rank byte per way and five scans per access,
 * UCP with an occupancy vector and a predicate scan over the set, and
 * the insertion policies with a loop over the other valid lines.
 * NUcache's reference keeps a MainWays LRU list and a DeliWays FIFO
 * list per set and its own map-based Next-Use monitor.  Both sides of
 * a pair replay the same stream in lockstep and must agree on every
 * hit, on the victim of every miss (the tag row of the touched set
 * after each access) and, for PIPP and NUcache, on the rank or region
 * of every way.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <list>
#include <map>
#include <set>
#include <memory>
#include <string>
#include <vector>

#include "common/bitutil.hh"
#include "common/rng.hh"
#include "core/nucache.hh"
#include "mem/cache.hh"
#include "policy/atd.hh"
#include "policy/dip.hh"
#include "policy/pipp.hh"
#include "policy/ucp.hh"
#include "trace/workloads.hh"

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

/**
 * The Next-Use monitor as maps: the victim board keyed by tag and by
 * retirement number, the PC table keyed by PC.  A board of N entries
 * holds the last N retirements, so retirement n displaces n - N.
 */
class RefNextUse
{
  public:
    explicit RefNextUse(const NextUseMonitorConfig &config) : cfg(config) {}

    bool
    sampled(std::uint32_t set) const
    {
        return (mix64(set) & ((std::uint64_t{1} << cfg.sampleShift) - 1)) ==
               0;
    }

    void
    onMiss(std::uint32_t set, Addr tag, PC pc)
    {
        if (!sampled(set))
            return;
        ++clock;
        ++missCount;
        ++entry(pc).misses;
        match(tag);
    }

    void
    onUse(std::uint32_t set, Addr tag)
    {
        if (sampled(set))
            match(tag);
    }

    void
    onLease(std::uint32_t set, PC alloc_pc)
    {
        if (sampled(set))
            ++entry(alloc_pc).retires;
    }

    void
    onRetire(std::uint32_t set, Addr tag, PC alloc_pc)
    {
        if (!sampled(set))
            return;
        ++entry(alloc_pc).retires;
        const std::uint64_t n = retired++;
        if (n >= cfg.boardEntries) {
            const auto gone = bySeq.find(n - cfg.boardEntries);
            if (gone != bySeq.end()) {
                byTag.erase(gone->second);
                bySeq.erase(gone);
            }
        }
        const auto old = byTag.find(tag);
        if (old != byTag.end()) {
            bySeq.erase(old->second.seq);
            byTag.erase(old);
        }
        byTag[tag] = Boarded{n, alloc_pc, clock};
        bySeq[n] = tag;
    }

    void
    epochDecay()
    {
        for (auto &[pc, e] : pcs) {
            e.misses >>= 1;
            e.retires >>= 1;
            e.nextUse.decay();
        }
        missCount >>= 1;
        if (pcs.size() <= cfg.maxPcs)
            return;
        const std::vector<PcProfile> order =
            topDelinquent(static_cast<std::uint32_t>(pcs.size()));
        for (std::size_t i = cfg.maxPcs; i < order.size(); ++i)
            pcs.erase(order[i].pc);
    }

    /** The map iterates by ascending PC: a stable sort breaks ties. */
    std::vector<PcProfile>
    topDelinquent(std::uint32_t k) const
    {
        std::vector<PcProfile> out;
        for (const auto &[pc, e] : pcs)
            out.push_back(PcProfile{pc, e.misses, e.retires, &e.nextUse});
        std::stable_sort(out.begin(), out.end(),
                         [](const PcProfile &a, const PcProfile &b) {
                             return a.misses + a.nextUse->total() >
                                    b.misses + b.nextUse->total();
                         });
        if (out.size() > k)
            out.resize(k);
        return out;
    }

    std::uint64_t totalMisses() const { return missCount; }

  private:
    struct Boarded
    {
        std::uint64_t seq;
        PC allocPc;
        std::uint64_t stamp;
    };

    struct Profile
    {
        std::uint64_t misses = 0;
        std::uint64_t retires = 0;
        LogHistogram nextUse;
    };

    Profile &
    entry(PC pc)
    {
        auto it = pcs.find(pc);
        if (it == pcs.end()) {
            it = pcs.emplace(pc, Profile{0, 0,
                                         LogHistogram(cfg.histMaxLog2,
                                                      cfg.histSubBits)})
                     .first;
        }
        return it->second;
    }

    void
    match(Addr tag)
    {
        const auto it = byTag.find(tag);
        if (it == byTag.end())
            return;
        const Boarded b = it->second;
        entry(b.allocPc).nextUse.add((clock - b.stamp) << cfg.sampleShift);
        bySeq.erase(b.seq);
        byTag.erase(it);
    }

    NextUseMonitorConfig cfg;
    std::map<Addr, Boarded> byTag;
    std::map<std::uint64_t, Addr> bySeq;
    std::uint64_t retired = 0;
    std::map<PC, Profile> pcs;
    std::uint64_t clock = 0;
    std::uint64_t missCount = 0;
};

/**
 * NUcache with a MainWays LRU list (front = LRU) and a DeliWays FIFO
 * list (front = oldest) per set.  Invalid ways are dropped from both
 * lists before any decision, and selection is a set lookup per use.
 */
class RefNUcache : public ReplacementPolicy
{
  public:
    explicit RefNUcache(const NUcacheConfig &config)
        : cfg(config), numon(config.monitor)
    {
    }

    void
    init(const PolicyContext &ctx) override
    {
        ReplacementPolicy::init(ctx);
        deli = cfg.deliWays != 0 ? cfg.deliWays : ctx.numWays * 5 / 8;
        selector = cfg.selector;
        NextUseMonitorConfig mon = cfg.monitor;
        if (ctx.numCores > 1) {
            const auto scaled = [&](std::uint32_t per_core) {
                return static_cast<std::uint32_t>(std::min<std::uint64_t>(
                    std::uint64_t{per_core} * ctx.numCores, UINT32_MAX));
            };
            selector.candidatePcs = scaled(selector.candidatePcs);
            selector.maxSelected = scaled(selector.maxSelected);
            mon.boardEntries *= ctx.numCores;
            mon.maxPcs *= ctx.numCores;
        }
        numon = RefNextUse(mon);
        mainList.assign(ctx.numSets, {});
        deliList.assign(ctx.numSets, {});
        allocPc.assign(static_cast<std::size_t>(ctx.numSets) * ctx.numWays,
                       invalidPC);
        mainHitPos.assign(ctx.numWays, 0);
        selected.clear();
    }

    std::uint32_t
    victimWay(const SetView &set, const AccessInfo &) override
    {
        dropInvalid(set);
        const std::list<std::uint32_t> &main = mainList[set.setIndex()];
        const std::list<std::uint32_t> &fifo = deliList[set.setIndex()];
        if (deli == 0)
            return main.front();
        // Stale reclamation: the oldest DeliWays line whose PC is no
        // longer selected goes first.
        for (const std::uint32_t w : fifo) {
            if (!isSelected(pcOf(set, w)))
                return w;
        }
        // A selected Main-LRU is kept: the oldest DeliWays line makes
        // room for its demotion.
        if (isSelected(pcOf(set, main.front())) && !fifo.empty())
            return fifo.front();
        return main.front();
    }

    void
    onHit(const SetView &set, std::uint32_t way,
          const AccessInfo &) override
    {
        dropInvalid(set);
        std::list<std::uint32_t> &main = mainList[set.setIndex()];
        std::list<std::uint32_t> &fifo = deliList[set.setIndex()];
        if (contains(fifo, way)) {
            numon.onUse(set.setIndex(), set.tag(way));
            fifo.remove(way);
            // Renew the lease instead of promoting when the MainWays
            // are full, their LRU is not selected and this line is.
            const bool renew = main.size() >= mainWays() &&
                               isSelected(pcOf(set, way)) &&
                               !(!main.empty() &&
                                 isSelected(pcOf(set, main.front())));
            if (renew) {
                fifo.push_back(way);
                numon.onLease(set.setIndex(), pcOf(set, way));
            } else {
                main.push_back(way);
                demoteOverflow(set);
            }
            return;
        }
        if (cfg.adaptiveDeli && numon.sampled(set.setIndex())) {
            // Rank from the MRU end: the lines touched after this one.
            std::uint32_t rank = 0;
            for (auto it = main.rbegin(); *it != way; ++it)
                ++rank;
            ++mainHitPos[rank];
        }
        main.remove(way);
        main.push_back(way);
    }

    void
    onMiss(const SetView &set, const AccessInfo &info) override
    {
        numon.onMiss(set.setIndex(), info.addr / context.blockSize,
                     info.pc);
        if (++misses % cfg.epochMisses == 0)
            select();
    }

    void
    onEvict(const SetView &set, std::uint32_t way, const CacheLine &victim,
            const AccessInfo &) override
    {
        // Only a MainWays line retires here; a DeliWays line retired
        // when it was demoted.
        if (contains(mainList[set.setIndex()], way))
            numon.onRetire(set.setIndex(), victim.tag, pcOf(set, way));
        mainList[set.setIndex()].remove(way);
        deliList[set.setIndex()].remove(way);
    }

    void
    onFill(const SetView &set, std::uint32_t way,
           const AccessInfo &info) override
    {
        dropInvalid(set);
        mainList[set.setIndex()].remove(way);
        deliList[set.setIndex()].remove(way);
        allocPc[static_cast<std::size_t>(set.setIndex()) * set.ways() +
                way] = info.pc;
        mainList[set.setIndex()].push_back(way);
        demoteOverflow(set);
    }

    std::string name() const override { return "ref-nucache"; }

    bool
    inDeli(std::uint32_t set, std::uint32_t way) const
    {
        return contains(deliList[set], way);
    }

    /** @return the admission list, ascending. */
    std::vector<PC>
    selectedPcs() const
    {
        return {selected.begin(), selected.end()};
    }

    std::uint64_t epochs() const { return epochCount; }

  private:
    static bool
    contains(const std::list<std::uint32_t> &l, std::uint32_t way)
    {
        return std::find(l.begin(), l.end(), way) != l.end();
    }

    std::uint32_t mainWays() const { return context.numWays - deli; }

    PC
    pcOf(const SetView &set, std::uint32_t way) const
    {
        return allocPc[static_cast<std::size_t>(set.setIndex()) *
                           set.ways() +
                       way];
    }

    bool
    isSelected(PC pc) const
    {
        switch (cfg.selection) {
          case NUcacheConfig::Selection::All:
            return true;
          case NUcacheConfig::Selection::None:
            return false;
          default:
            return selected.count(pc) != 0;
        }
    }

    void
    dropInvalid(const SetView &set)
    {
        const auto invalid = [&](std::uint32_t w) {
            return !set.line(w).valid;
        };
        mainList[set.setIndex()].remove_if(invalid);
        deliList[set.setIndex()].remove_if(invalid);
    }

    /** Demote the MainWays LRU, whatever its PC, while Main overflows. */
    void
    demoteOverflow(const SetView &set)
    {
        std::list<std::uint32_t> &main = mainList[set.setIndex()];
        while (main.size() > mainWays()) {
            const std::uint32_t lru = main.front();
            main.pop_front();
            deliList[set.setIndex()].push_back(lru);
            numon.onRetire(set.setIndex(), set.tag(lru), pcOf(set, lru));
        }
    }

    void
    select()
    {
        ++epochCount;
        std::vector<PC> next;
        if (cfg.selection == NUcacheConfig::Selection::CostBenefit) {
            const auto candidates =
                numon.topDelinquent(selector.candidatePcs);
            const std::vector<PC> previous = selectedPcs();
            const auto run = [&](std::uint32_t d) {
                return selectDelinquentPcs(
                    candidates, std::uint64_t{d} * context.numSets,
                    numon.totalMisses(), selector, previous);
            };
            if (cfg.adaptiveDeli) {
                // Try each split on a W/8 grid; keep the first best of
                // expected DeliWays hits plus the MainWays hits the
                // split would still serve.
                double best_score = -1.0;
                std::uint32_t best_d = deli;
                const std::uint32_t step =
                    std::max(1u, context.numWays / 8);
                for (std::uint32_t d = step; d + 1 < context.numWays;
                     d += step) {
                    const SelectionResult sel = run(d);
                    double main_hits = 0.0;
                    for (std::uint32_t p = 0; p + d < context.numWays; ++p)
                        main_hits += static_cast<double>(mainHitPos[p]);
                    if (sel.expectedHits + main_hits > best_score) {
                        best_score = sel.expectedHits + main_hits;
                        best_d = d;
                        next = sel.selected;
                    }
                }
                deli = best_d;
            } else {
                next = run(deli).selected;
            }
            for (std::uint64_t &h : mainHitPos)
                h >>= 1;
        } else if (cfg.selection == NUcacheConfig::Selection::TopK) {
            next = selectTopKByMisses(
                       numon.topDelinquent(selector.candidatePcs), cfg.topK)
                       .selected;
        }
        numon.epochDecay();
        selected = std::set<PC>(next.begin(), next.end());
    }

    NUcacheConfig cfg;
    PcSelectionConfig selector;
    RefNextUse numon;
    std::uint32_t deli = 0;
    std::vector<std::list<std::uint32_t>> mainList;
    std::vector<std::list<std::uint32_t>> deliList;
    std::vector<PC> allocPc;
    std::vector<std::uint64_t> mainHitPos;
    std::set<PC> selected;
    std::uint64_t misses = 0;
    std::uint64_t epochCount = 0;
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
 * Replay @p count accesses from @p next through @p fast and @p ref in
 * lockstep; they must agree on every outcome and on the tag row of
 * the touched set, hence on every victim.  @p same_state compares the policies' own per-way state
 * after each access.
 */
void
replay(Cache &fast, Cache &ref, int count,
       const std::function<AccessInfo()> &next,
       const std::function<void(std::uint32_t set)> &same_state)
{
    for (int i = 0; i < count; ++i) {
        const AccessInfo info = next();
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
    EXPECT_EQ(fast.totalStats().hits, ref.totalStats().hits);
}

/**
 * Replay one random multi-core stream through @p fast and @p ref in
 * lockstep: per core, a loop a little larger than the cache (so
 * insertion and partitioning decisions matter) mixed with uniform
 * traffic over four times its capacity.
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
    replay(fast, ref, 12000, [&] {
        AccessInfo info;
        info.coreId = static_cast<CoreId>(rng.below(cores));
        const Addr base = static_cast<Addr>(info.coreId) << 32;
        const std::uint64_t block =
            rng.chance(0.5) ? cursor[info.coreId]++ % loop
                            : rng.below(4 * blocks);
        info.addr = base + block * 64;
        info.pc = 0x400000 + rng.below(16) * 4;
        info.isWrite = rng.chance(0.2);
        return info;
    }, same_state);
    const CacheCoreStats fs = fast.totalStats();
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

/**
 * @return a check that @p fast and @p ref agree on the region of every
 * valid way of a set and on the admission list, once per epoch.
 */
std::function<void(std::uint32_t)>
sameNucacheState(const Cache &cache, const NUcachePolicy &fast,
                 const RefNUcache &ref)
{
    return [&cache, &fast, &ref](std::uint32_t set) {
        const SetView view = cache.viewSet(set);
        for (std::uint32_t w = 0; w < view.ways(); ++w) {
            if (view.line(w).valid) {
                ASSERT_EQ(fast.inDeliWays(set, w), ref.inDeli(set, w))
                    << "way " << w;
            }
        }
        ASSERT_EQ(fast.epochsRun(), ref.epochs());
        std::vector<PC> pcs(fast.selectedPcs().begin(),
                            fast.selectedPcs().end());
        std::sort(pcs.begin(), pcs.end());
        ASSERT_EQ(pcs, ref.selectedPcs()) << "epoch " << ref.epochs();
    };
}

TEST(PolicyReference, NucacheMatchesListModel)
{
    for (const bool adaptive : {false, true}) {
        for (const Shape &s : shapes()) {
            SCOPED_TRACE(std::string(adaptive ? "adaptive, " : "fixed, ") +
                         std::to_string(s.ways) + " ways, " +
                         std::to_string(s.cores) + " cores");
            NUcacheConfig cfg;
            cfg.adaptiveDeli = adaptive;
            cfg.epochMisses = 500;
            // Small monitor tables so board displacement and PC
            // pruning both happen within the stream.
            cfg.monitor.sampleShift = 1;
            cfg.monitor.boardEntries = 64;
            cfg.monitor.maxPcs = 3;
            auto fast_policy = std::make_unique<NUcachePolicy>(cfg);
            auto ref_policy = std::make_unique<RefNUcache>(cfg);
            const NUcachePolicy &nu = *fast_policy;
            const RefNUcache &lists = *ref_policy;
            Cache fast(geometry(s.ways), std::move(fast_policy), s.cores);
            Cache ref(geometry(s.ways), std::move(ref_policy), s.cores);
            lockstep(fast, ref, s.cores,
                     0x40c + s.ways * 16 + s.cores + (adaptive ? 7 : 0),
                     sameNucacheState(fast, nu, lists));
            EXPECT_GT(nu.epochsRun(), 0u);
            EXPECT_GT(nu.deliHits(), 0u);
        }
    }
}

TEST(PolicyReference, NucacheMatchesListModelOnCatalog)
{
    std::uint64_t deli_hits = 0;
    for (const std::string &name : workloadNames()) {
        SCOPED_TRACE(name);
        NUcacheConfig cfg;
        cfg.epochMisses = 1000;
        // Every set monitored: the LLC below has only 8.
        cfg.monitor.sampleShift = 0;
        auto fast_policy = std::make_unique<NUcachePolicy>(cfg);
        auto ref_policy = std::make_unique<RefNUcache>(cfg);
        const NUcachePolicy &nu = *fast_policy;
        const RefNUcache &lists = *ref_policy;
        // Half of tiny_hot's 16 KiB loop, the catalog's smallest
        // working set, so every workload reaches the victim path.
        const CacheConfig llc{"llc", 8ull << 10, 16, 64};
        Cache fast(llc, std::move(fast_policy));
        Cache ref(llc, std::move(ref_policy));
        const TraceSourcePtr trace = makeWorkload(name);
        replay(fast, ref, 20000, [&] {
            TraceRecord rec;
            if (!trace->next(rec)) {
                trace->reset();
                trace->next(rec);
            }
            AccessInfo info;
            info.addr = rec.addr;
            info.pc = rec.pc;
            info.isWrite = rec.isWrite;
            return info;
        }, sameNucacheState(fast, nu, lists));
        EXPECT_GT(fast.totalStats().evictions, 0u);
        deli_hits += nu.deliHits();
    }
    EXPECT_GT(deli_hits, 0u);
}

} // anonymous namespace
} // namespace nucache
