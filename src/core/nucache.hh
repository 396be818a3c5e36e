/**
 * @file
 * NUcache: the PC-centric shared-LLC organization of the paper.
 *
 * Each set's ways are logically split into MainWays (true LRU, every
 * block enters here) and DeliWays (a FIFO-ordered annex).  When the
 * MainWays' LRU block is displaced, it is *retained* in the DeliWays —
 * instead of being evicted — iff its allocating PC is in the currently
 * selected set of delinquent PCs.  A DeliWay hit promotes the block
 * back to the MainWays' MRU position.  Selection is refreshed every
 * epoch by the cost-benefit algorithm over the Next-Use monitor's
 * profiles (see pc_selection.hh).
 *
 * Implementation notes (metadata-only moves):
 *  - Lines never change ways; "MainWays"/"DeliWays" are per-line
 *    region labels held as one bit per way in a per-set `deli` mask
 *    (a clear bit means Main).  The invariant |Main| <= W - D is
 *    restored after every fill/promotion by demoting the Main-LRU
 *    line to the DeliWays FIFO tail.
 *  - Each set keeps one order row, a byte per way: the DeliWays
 *    segment first, oldest FIFO entry first, its length the popcount
 *    of the set's `deli` mask; then the MainWays, LRU first.  A fill,
 *    a MainWays hit or a promotion moves the way to the row end; a
 *    demotion or a lease refresh moves it to the end of the DeliWays
 *    segment (memchr finds the way, memmove shifts the rest).  The
 *    LRU pick scans from the segment boundary (oldestMain()), the
 *    FIFO-oldest and stale picks from the row start (oldestDeli()).
 *    Within a region, row place is write order, which is LRU order
 *    for the MainWays and FIFO order for the DeliWays; no pick
 *    compares lines across regions.
 *  - A per-set `sel` mask caches "the allocating PC is selected" per
 *    way.  It is tagged with the selection generation, which
 *    runSelection() bumps only when the selected set changed; a set
 *    whose tag is behind re-derives its bits on its next victim, hit
 *    or fill, and onFill sets its own way's bit from the access PC.
 *    The hit and victim paths therefore test bits instead of probing
 *    the admission list.
 *  - The allocating PC of each line lives in the policy's own
 *    `allocPc` column, written by onFill: the tag store keeps tags,
 *    valid and dirty bits only.
 *  - Cache::invalidate() drops lines without consulting the policy,
 *    so the mask bits of invalid ways are stale: every mask read is
 *    ANDed with the set's valid mask (picks skip invalid ways in the
 *    row), and onFill rewrites a refilled way's bits and row place.
 *  - A demotion caused by a DeliWay-hit promotion is unconditional
 *    (it is a swap; evicting mid-hit would leave a hole).  Demotions
 *    of non-selected blocks on the miss path never occur when the set
 *    is full: the Main-LRU itself is evicted instead, exactly as the
 *    paper describes.
 *  - While a set still has invalid ways, demotions fill the DeliWays
 *    regardless of selection (free space costs nothing).
 */

#ifndef NUCACHE_CORE_NUCACHE_HH
#define NUCACHE_CORE_NUCACHE_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "core/next_use_monitor.hh"
#include "core/pc_selection.hh"
#include "mem/replacement.hh"

namespace nucache
{

/** Tunables of the NUcache organization. */
struct NUcacheConfig
{
    /**
     * DeliWays per set; 0 selects the default of 3/8 of the
     * associativity (6 of 16), the paper's sweet spot region.
     */
    std::uint32_t deliWays = 0;
    /** LLC misses between selection epochs. */
    std::uint64_t epochMisses = 100'000;
    /** How admission is decided (CostBenefit is the paper's scheme). */
    enum class Selection { CostBenefit, TopK, All, None };
    Selection selection = Selection::CostBenefit;
    /**
     * Extension (future-work direction of the paper): re-balance the
     * Main/Deli split each epoch by comparing the selection model's
     * expected DeliWay hits against the measured MainWays hit-position
     * histogram (the main hits that a smaller MainWays would lose).
     */
    bool adaptiveDeli = false;
    /** K for Selection::TopK. */
    std::uint32_t topK = 8;
    NextUseMonitorConfig monitor;
    PcSelectionConfig selector;
};

/** The NUcache LLC management policy. */
class NUcachePolicy : public ReplacementPolicy
{
  public:
    explicit NUcachePolicy(const NUcacheConfig &config = NUcacheConfig{});

    void init(const PolicyContext &ctx) override;

    std::uint32_t victimWay(const SetView &set,
                            const AccessInfo &info) override;
    void onHit(const SetView &set, std::uint32_t way,
               const AccessInfo &info) override;
    void onMiss(const SetView &set, const AccessInfo &info) override;
    void onEvict(const SetView &set, std::uint32_t way,
                 const CacheLine &victim, const AccessInfo &info) override;
    void onFill(const SetView &set, std::uint32_t way,
                const AccessInfo &info) override;

    std::string name() const override;

    /** @return the number of MainWays per set. */
    std::uint32_t mainWays() const { return context.numWays - deliWays; }

    /** @return the number of DeliWays per set. */
    std::uint32_t numDeliWays() const { return deliWays; }

    /** @return the currently selected delinquent PCs, ascending. */
    const std::vector<PC> &selectedPcs() const { return selected; }

    /** @return hits served from DeliWays-resident lines. */
    std::uint64_t deliHits() const { return deliHitCount; }

    /** @return selection epochs completed. */
    std::uint64_t epochsRun() const { return epochCount; }

    /**
     * @return cumulative PC-pool membership churn: PCs added plus PCs
     * dropped across all selection epochs (telemetry probe; a stable
     * selection contributes 0 per epoch).
     */
    std::uint64_t selectionChurn() const { return churnCount; }

    /** @return the Next-Use monitor (reports / tests). */
    const NextUseMonitor &monitor() const { return numon; }

    /** @return region label of (set, way): true if DeliWays (tests). */
    bool inDeliWays(std::uint32_t set, std::uint32_t way) const;

    /** @return the PC whose miss filled (set, way) (tests). */
    PC
    allocatingPc(std::uint32_t set, std::uint32_t way) const
    {
        return allocPc[slot(set, way)];
    }

    /**
     * The runtime verifier behind the CacheChecker: the order row is
     * a permutation of the ways whose first popcount(deli) entries are
     * exactly the ways with a set `deli` bit, cached selection bits
     * agree with the admission list, |Main| <= W - D and |Deli| <= D,
     * and a full set uses all its MainWays.  In adaptive mode the
     * occupancy bounds are not asserted: the split moves at epoch
     * boundaries and sets re-converge lazily on their next fill or
     * promotion.
     */
    bool checkInvariants(const SetView &set,
                         std::string &why) const override;

    /** Registers the six nucache.* telemetry columns. */
    void addProbes(obs::Sampler &sampler, const Cache &llc) const override;

    /** Verify the Main/Deli occupancy invariants of @p set (tests). */
    bool checkSetInvariants(const SetView &set) const;

    /** Force a selection epoch now (tests). */
    void runSelection();

  private:
    /** Region and selection bits of one set (bit w = way w). */
    struct SetMasks
    {
        /** Set: the way's line is in the DeliWays; clear: MainWays. */
        std::uint64_t deli = 0;
        /** Set: the way's allocating PC is selected (see selGen). */
        std::uint64_t sel = 0;
        /** Selection generation `sel` was derived under. */
        std::uint64_t selGen = 0;
    };

    std::size_t
    slot(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * context.numWays + way;
    }

    /** @return valid MainWays lines of @p set as a way mask. */
    std::uint64_t
    mainMask(const SetView &set) const
    {
        return set.validMask() & ~masks[set.setIndex()].deli;
    }

    /** @return @p set's order row (DeliWays FIFO, then MainWays LRU). */
    std::uint8_t *
    row(std::uint32_t set)
    {
        return &order[slot(set, 0)];
    }

    const std::uint8_t *
    row(std::uint32_t set) const
    {
        return &order[slot(set, 0)];
    }

    /** @return the length of @p set's DeliWays segment. */
    std::uint32_t
    deliLength(std::uint32_t set) const
    {
        return static_cast<std::uint32_t>(std::popcount(masks[set].deli));
    }

    /**
     * @return the first way in @p mask at row positions [@p from,
     * @p to) of @p set; ways() if there is none.
     */
    std::uint32_t
    firstIn(const SetView &set, std::uint32_t from, std::uint32_t to,
            std::uint64_t mask) const
    {
        const std::uint8_t *r = row(set.setIndex());
        for (std::uint32_t i = from; i < to; ++i) {
            if (((mask >> r[i]) & 1) != 0)
                return r[i];
        }
        return set.ways();
    }

    /** @return the valid MainWays LRU line; ways() if none. */
    std::uint32_t
    oldestMain(const SetView &set) const
    {
        return firstIn(set, deliLength(set.setIndex()), set.ways(),
                       set.validMask());
    }

    /** @return the oldest DeliWays line in @p mask; ways() if none. */
    std::uint32_t
    oldestDeli(const SetView &set, std::uint64_t mask) const
    {
        return firstIn(set, 0, deliLength(set.setIndex()), mask);
    }

    /** Move @p way to row position @p to, shifting the ways between. */
    void moveTo(std::uint32_t set, std::uint32_t way, std::uint32_t to);

    /**
     * @return @p set's masks with its `sel` bits brought up to the
     * current selection generation.
     */
    SetMasks &freshMasks(const SetView &set);

    /** Demote Main-LRU lines until |Main| <= mainWays(). */
    void enforceMainBound(const SetView &set);

    /** @return whether @p pc is admitted to the DeliWays. */
    bool isSelected(PC pc) const;

    NUcacheConfig cfg;
    /** Per-core-scaled copies of the monitoring/selection tunables. */
    PcSelectionConfig effSelector;
    NextUseMonitorConfig effMonitor;
    std::uint64_t effEpochMisses = 100'000;
    std::uint32_t deliWays = 0;
    /** Per set, its ways in order: DeliWays FIFO, then MainWays LRU. */
    std::vector<std::uint8_t> order;
    /** PC whose miss filled each (set, way); written by onFill. */
    std::vector<PC> allocPc;
    std::vector<SetMasks> masks;
    /** Bumped whenever the selected set changes. */
    std::uint64_t selGeneration = 0;
    NextUseMonitor numon;
    /** The admission list, ascending, and its PC index. */
    std::vector<PC> selected;
    SlotIndex selectedIndex;
    /**
     * Sampled MainWays hits by recency rank (0 = MRU): the opportunity
     * cost of shrinking the MainWays (adaptive mode).
     */
    std::vector<std::uint64_t> mainHitPos;
    std::uint64_t missCount = 0;
    std::uint64_t deliHitCount = 0;
    std::uint64_t leaseRefreshCount = 0;
    std::uint64_t epochCount = 0;
    std::uint64_t churnCount = 0;
};

} // namespace nucache

#endif // NUCACHE_CORE_NUCACHE_HH
