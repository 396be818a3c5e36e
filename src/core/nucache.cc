#include "core/nucache.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <numeric>

#include "common/logging.hh"
#include "mem/cache.hh"
#include "obs/telemetry.hh"
#include "obs/tracer.hh"

namespace nucache
{

NUcachePolicy::NUcachePolicy(const NUcacheConfig &config)
    : cfg(config), numon(config.monitor)
{
    if (cfg.epochMisses == 0)
        fatal("NUcache: epoch length must be non-zero");
}

void
NUcachePolicy::init(const PolicyContext &ctx)
{
    ReplacementPolicy::init(ctx);
    // Default split: 5/8 of the ways are DeliWays.  The MainWays only
    // need to absorb short-distance reuse and filter demand churn; the
    // protected region is where NUcache earns its hits (the DeliWays
    // sweep, Figure 7, shows a broad optimum here).
    deliWays = cfg.deliWays != 0 ? cfg.deliWays : ctx.numWays * 5 / 8;

    // Monitoring structures are provisioned per core (the paper's
    // monitors are replicated per core): the candidate pool and the
    // admission list must cover every co-running program's delinquent
    // PCs, and the victim board must ride out the multiplied miss
    // traffic or next-use matches get displaced before they land.
    effSelector = cfg.selector;
    effMonitor = cfg.monitor;
    effEpochMisses = cfg.epochMisses;
    if (ctx.numCores > 1) {
        // The pool and the admission cap accept any 32-bit value per
        // core; their per-system products saturate instead of wrapping.
        const auto scaled = [&](std::uint32_t per_core) {
            return static_cast<std::uint32_t>(std::min<std::uint64_t>(
                std::uint64_t{per_core} * ctx.numCores, UINT32_MAX));
        };
        effSelector.candidatePcs = scaled(effSelector.candidatePcs);
        effSelector.maxSelected = scaled(effSelector.maxSelected);
        effMonitor.boardEntries *= ctx.numCores;
        effMonitor.maxPcs *= ctx.numCores;
    }
    if (deliWays >= ctx.numWays)
        fatal("NUcache: ", deliWays, " DeliWays leaves no MainWays in a ",
              ctx.numWays, "-way cache");
    order.resize(static_cast<std::size_t>(ctx.numSets) * ctx.numWays);
    for (std::uint32_t s = 0; s < ctx.numSets; ++s)
        std::iota(row(s), row(s) + ctx.numWays, std::uint8_t{0});
    allocPc.assign(static_cast<std::size_t>(ctx.numSets) * ctx.numWays,
                   invalidPC);
    masks.assign(ctx.numSets, SetMasks{});
    selGeneration = 0;
    mainHitPos.assign(ctx.numWays, 0);
    numon = NextUseMonitor(effMonitor);
    selected.clear();
    selectedIndex.reset(0);
    missCount = 0;
    deliHitCount = 0;
    leaseRefreshCount = 0;
    epochCount = 0;
    churnCount = 0;
}

std::string
NUcachePolicy::name() const
{
    switch (cfg.selection) {
      case NUcacheConfig::Selection::CostBenefit:
        return cfg.adaptiveDeli ? "nucache-adaptive" : "nucache";
      case NUcacheConfig::Selection::TopK:
        return "nucache-topk";
      case NUcacheConfig::Selection::All:
        return "nucache-all";
      case NUcacheConfig::Selection::None:
        return "nucache-none";
    }
    return "nucache";
}

bool
NUcachePolicy::isSelected(PC pc) const
{
    switch (cfg.selection) {
      case NUcacheConfig::Selection::All:
        return true;
      case NUcacheConfig::Selection::None:
        return false;
      default:
        return selectedIndex.live(selectedIndex.find(
            pc, [this](std::uint32_t s) { return selected[s]; }));
    }
}

NUcachePolicy::SetMasks &
NUcachePolicy::freshMasks(const SetView &set)
{
    SetMasks &m = masks[set.setIndex()];
    if (m.selGen != selGeneration) {
        m.sel = 0;
        for (std::uint64_t v = set.validMask(); v != 0; v &= v - 1) {
            const auto w = static_cast<std::uint32_t>(std::countr_zero(v));
            if (isSelected(allocPc[slot(set.setIndex(), w)]))
                m.sel |= std::uint64_t{1} << w;
        }
        m.selGen = selGeneration;
    }
    return m;
}

void
NUcachePolicy::moveTo(std::uint32_t set, std::uint32_t way, std::uint32_t to)
{
    std::uint8_t *r = row(set);
    // A full set's Main-LRU already sits at the DeliWays boundary, and
    // a MainWays hit is often on the MRU line.
    if (r[to] == way)
        return;
    const auto from = static_cast<std::uint32_t>(
        static_cast<std::uint8_t *>(
            std::memchr(r, static_cast<int>(way), context.numWays)) -
        r);
    if (from < to)
        std::memmove(r + from, r + from + 1, to - from);
    else
        std::memmove(r + to + 1, r + to, from - to);
    r[to] = static_cast<std::uint8_t>(way);
}

void
NUcachePolicy::enforceMainBound(const SetView &set)
{
    SetMasks &m = masks[set.setIndex()];
    while (static_cast<std::uint32_t>(std::popcount(mainMask(set))) >
           mainWays()) {
        const std::uint32_t lru = oldestMain(set);
        moveTo(set.setIndex(), lru, deliLength(set.setIndex()));
        m.deli |= std::uint64_t{1} << lru;
        // The block retires from the MainWays here: this is the moment
        // the Next-Use clock starts for it.
        numon.onRetire(set.setIndex(), set.tag(lru),
                       allocPc[slot(set.setIndex(), lru)]);
    }
}

std::uint32_t
NUcachePolicy::victimWay(const SetView &set, const AccessInfo &info)
{
    (void)info;
    const SetMasks &m = freshMasks(set);
    if (mainMask(set) == 0)
        panic("NUcache: full set with no MainWays lines");
    if (deliWays == 0)
        return oldestMain(set);

    // Stale DeliWays lines — those whose allocating PC is no longer
    // selected (selection changed, or they arrived via demotion churn)
    // — are reclaimed first.  This keeps the DeliWays from rotting
    // into dead capacity and makes NUcache degenerate gracefully to
    // (W-D)-way LRU plus a FIFO annex when nothing is selected.
    const std::uint64_t deli = set.validMask() & m.deli;
    const std::uint32_t stale = oldestDeli(set, deli & ~m.sel);
    if (stale != set.ways())
        return stale;

    // If the Main-LRU block deserves retention, sacrifice the oldest
    // DeliWays block instead; the displaced Main-LRU will be demoted
    // into the freed slot by the fill-path invariant enforcement.
    const std::uint32_t main_lru = oldestMain(set);
    if (((m.sel >> main_lru) & 1) != 0 && deli != 0)
        return oldestDeli(set, deli);
    return main_lru;
}

void
NUcachePolicy::onHit(const SetView &set, std::uint32_t way,
                     const AccessInfo &info)
{
    (void)info;
    const std::uint32_t set_index = set.setIndex();
    const std::uint64_t bit = std::uint64_t{1} << way;
    if ((masks[set_index].deli & bit) != 0) {
        SetMasks &m = freshMasks(set);
        ++deliHitCount;
        // A DeliWays hit is a successful next-use: record its distance
        // so the selection keeps seeing the PCs it is saving.
        numon.onUse(set_index, set.tag(way));

        // Promote to the MainWays MRU unless doing so would push a
        // non-selected Main-LRU into the FIFO *and* the hit block is
        // itself selected — in that one case renewing the hit block's
        // FIFO lease in place protects the selected blocks' retention
        // window from demotion churn.  (Stale demoted blocks are
        // reclaimed first by the victim path, so promotion is
        // otherwise safe.)
        const std::uint64_t main = mainMask(set);
        const bool can_promote =
            static_cast<std::uint32_t>(std::popcount(main)) < mainWays() ||
            (m.sel & bit) == 0 ||
            (main != 0 && ((m.sel >> oldestMain(set)) & 1) != 0);
        if (can_promote) {
            m.deli &= ~bit;
            moveTo(set_index, way, set.ways() - 1);
            enforceMainBound(set);
        } else {
            // A lease refresh re-enters the FIFO tail: it consumes
            // DeliWays lifetime exactly like an insertion, so it must
            // be accounted in the insertion-rate estimate or the
            // selection drifts low at high hit rates and overshoots.
            moveTo(set_index, way, deliLength(set_index) - 1);
            ++leaseRefreshCount;
            numon.onLease(set_index, allocPc[slot(set_index, way)]);
        }
        return;
    }
    // MainWays hit: in adaptive mode, record its recency rank on
    // sampled sets (the hits a smaller MainWays would forfeit): the
    // valid lines after it in the row.
    if (cfg.adaptiveDeli && numon.sampled(set_index)) {
        const std::uint8_t *r = row(set_index);
        std::uint32_t rank = 0;
        for (std::uint32_t i = set.ways() - 1; r[i] != way; --i)
            rank += static_cast<std::uint32_t>((set.validMask() >> r[i]) & 1);
        ++mainHitPos[rank];
    }
    moveTo(set_index, way, set.ways() - 1);
}

void
NUcachePolicy::onMiss(const SetView &set, const AccessInfo &info)
{
    numon.onMiss(set.setIndex(), info.addr / context.blockSize, info.pc);
    if (++missCount % effEpochMisses == 0)
        runSelection();
}

void
NUcachePolicy::onEvict(const SetView &set, std::uint32_t way,
                       const CacheLine &victim, const AccessInfo &info)
{
    (void)info;
    // A MainWays line evicted outright retires here.  A DeliWays line
    // already retired when it was demoted; re-boarding it would reset
    // its Next-Use clock and understate the distance.
    if (((masks[set.setIndex()].deli >> way) & 1) == 0)
        numon.onRetire(set.setIndex(), victim.tag,
                       allocPc[slot(set.setIndex(), way)]);
}

void
NUcachePolicy::onFill(const SetView &set, std::uint32_t way,
                      const AccessInfo &info)
{
    SetMasks &m = freshMasks(set);
    const std::uint64_t bit = std::uint64_t{1} << way;
    m.deli &= ~bit;
    m.sel = isSelected(info.pc) ? m.sel | bit : m.sel & ~bit;
    moveTo(set.setIndex(), way, set.ways() - 1);
    allocPc[slot(set.setIndex(), way)] = info.pc;
    enforceMainBound(set);
}

void
NUcachePolicy::runSelection()
{
    ++epochCount;
    // All and None admit by mode: their list stays empty.
    std::vector<PC> next;
    if (cfg.selection == NUcacheConfig::Selection::CostBenefit) {
        const auto candidates =
            numon.topDelinquent(effSelector.candidatePcs);
        const std::vector<PC> &previous = selected;

        if (cfg.adaptiveDeli) {
            // Re-balance the split: for each candidate D, expected
            // DeliWay hits (selection model) + retained MainWays hits
            // (measured position histogram; positions beyond the
            // current MainWays are unobservable, so growth beyond the
            // measured range is justified by the deli side only).
            double best_score = -1.0;
            std::uint32_t best_d = deliWays;
            SelectionResult best_sel;
            const std::uint32_t step =
                std::max(1u, context.numWays / 8);
            for (std::uint32_t d = step; d + 1 < context.numWays;
                 d += step) {
                const auto sel = selectDelinquentPcs(
                    candidates,
                    static_cast<std::uint64_t>(d) * context.numSets,
                    numon.totalMisses(), effSelector, previous);
                double main_hits = 0.0;
                for (std::uint32_t p = 0;
                     p + d < context.numWays && p < mainHitPos.size();
                     ++p) {
                    main_hits += static_cast<double>(mainHitPos[p]);
                }
                const double score = sel.expectedHits + main_hits;
                if (score > best_score) {
                    best_score = score;
                    best_d = d;
                    best_sel = sel;
                }
            }
            deliWays = best_d;
            next = std::move(best_sel.selected);
        } else {
            const std::uint64_t capacity =
                static_cast<std::uint64_t>(deliWays) * context.numSets;
            next = selectDelinquentPcs(candidates, capacity,
                                       numon.totalMisses(), effSelector,
                                       previous)
                       .selected;
        }
        for (auto &h : mainHitPos)
            h >>= 1;
    } else if (cfg.selection == NUcacheConfig::Selection::TopK) {
        next = selectTopKByMisses(
                   numon.topDelinquent(effSelector.candidatePcs), cfg.topK)
                   .selected;
    }
    numon.epochDecay();

    // Membership churn: symmetric difference of the admission list
    // across the epoch boundary (0 when the selection is stable).
    std::sort(next.begin(), next.end());
    std::vector<PC> changed;
    std::set_symmetric_difference(selected.begin(), selected.end(),
                                  next.begin(), next.end(),
                                  std::back_inserter(changed));
    const std::uint64_t churn = changed.size();
    selected = std::move(next);
    const auto key = [this](std::uint32_t s) { return selected[s]; };
    selectedIndex.reset(selected.size());
    for (std::uint32_t s = 0; s < selected.size(); ++s)
        selectedIndex.put(selectedIndex.find(selected[s], key), s);
    churnCount += churn;
    // Every set's cached selection bits go stale at once; each set
    // re-derives them on its next touch.
    if (churn != 0)
        ++selGeneration;

    if (obs::Tracer::active()) {
        obs::Tracer &tracer = obs::Tracer::instance();
        tracer.instant("nucache.epoch #" + std::to_string(epochCount),
                       "policy");
        if (churn != 0) {
            tracer.instant("nucache.reselect (+/-" +
                               std::to_string(churn) + " PCs, " +
                               std::to_string(selected.size()) +
                               " selected)",
                           "policy");
        }
    }
}

bool
NUcachePolicy::inDeliWays(std::uint32_t set, std::uint32_t way) const
{
    return ((masks[set].deli >> way) & 1) != 0;
}

void
NUcachePolicy::addProbes(obs::Sampler &sampler, const Cache &llc) const
{
    sampler.addProbe("nucache.selected_pcs", [this] {
        return static_cast<double>(selected.size());
    });
    // Cumulative counts; a lease refresh is a DeliWay hit that
    // re-enters the FIFO tail instead of promoting.
    for (const auto &[name, count] :
         {std::pair{"nucache.deli_hits", &deliHitCount},
          std::pair{"nucache.lease_refreshes", &leaseRefreshCount},
          std::pair{"nucache.epochs", &epochCount},
          std::pair{"nucache.selection_churn", &churnCount}}) {
        sampler.addProbe(name, [count] {
            return static_cast<double>(*count);
        });
    }
    // The valid share of the DeliWays; region bits of invalid ways
    // are stale, so only valid ones count.
    sampler.addProbe("nucache.deli_occupancy", [this, cache = &llc] {
        if (deliWays == 0)
            return 0.0;
        std::uint64_t occupied = 0;
        for (std::uint32_t s = 0; s < context.numSets; ++s) {
            occupied += static_cast<std::uint64_t>(std::popcount(
                masks[s].deli & cache->viewSet(s).validMask()));
        }
        return static_cast<double>(occupied) /
            (static_cast<double>(context.numSets) * deliWays);
    });
}

bool
NUcachePolicy::checkInvariants(const SetView &set, std::string &why) const
{
    const SetMasks &m = masks[set.setIndex()];
    const std::uint8_t *r = row(set.setIndex());
    const std::uint32_t deli_len = deliLength(set.setIndex());
    // The order row holds each way once, the DeliWays segment first:
    // a repeat or a misplaced region scrambles the LRU / FIFO order
    // and the victim choice diverges.
    std::uint64_t seen = 0;
    for (std::uint32_t i = 0; i < set.ways(); ++i) {
        const std::uint32_t w = r[i];
        if (w >= set.ways() || ((seen >> w) & 1) != 0) {
            why = "order row repeats or overruns way " + std::to_string(w) +
                  " at position " + std::to_string(i);
            return false;
        }
        seen |= std::uint64_t{1} << w;
        if ((i < deli_len) != (((m.deli >> w) & 1) != 0)) {
            why = "way " + std::to_string(w) + " at row position " +
                  std::to_string(i) + " is in the wrong region for a " +
                  std::to_string(deli_len) + "-way DeliWays segment";
            return false;
        }
    }
    const std::uint64_t main = mainMask(set);
    const std::uint64_t deli = set.validMask() & m.deli;
    // A set already refreshed to this generation must agree with the
    // admission list it caches.
    for (std::uint64_t v = set.validMask(); v != 0; v &= v - 1) {
        const auto w = static_cast<std::uint32_t>(std::countr_zero(v));
        if (m.selGen == selGeneration &&
            (((m.sel >> w) & 1) != 0) !=
                isSelected(allocPc[slot(set.setIndex(), w)])) {
            why = "cached selection bit of way " + std::to_string(w) +
                  " disagrees with the admission list";
            return false;
        }
    }
    // The occupancy bounds are meaningful only while the split is
    // fixed; the adaptive extension moves it between epochs and lets
    // sets re-converge lazily.
    if (cfg.adaptiveDeli)
        return true;
    const auto main_n = static_cast<std::uint32_t>(std::popcount(main));
    const auto deli_n = static_cast<std::uint32_t>(std::popcount(deli));
    if (main_n > mainWays()) {
        why = std::to_string(main_n) + " MainWays lines exceed the " +
              std::to_string(mainWays()) + "-way bound (W - D)";
        return false;
    }
    if (deli_n > deliWays) {
        why = std::to_string(deli_n) + " DeliWays lines exceed the " +
              std::to_string(deliWays) + "-way annex";
        return false;
    }
    // A full set must use all MainWays (fills always land there).
    if (main_n + deli_n == set.ways() && main_n != mainWays()) {
        why = "full set holds " + std::to_string(main_n) +
              " MainWays lines, expected " + std::to_string(mainWays());
        return false;
    }
    return true;
}

bool
NUcachePolicy::checkSetInvariants(const SetView &set) const
{
    std::string why;
    return checkInvariants(set, why);
}

} // namespace nucache
