/**
 * @file
 * Promotion/Insertion Pseudo-Partitioning (Xie & Loh, ISCA'09).
 *
 * PIPP reuses UCP's utility monitors and lookahead allocation but
 * enforces the partition *implicitly*: core i's fills are inserted at
 * priority position pi_i (its allocation, counted from the LRU end),
 * and hits promote a line by a single position with probability 3/4
 * instead of jumping to MRU.  Cores with large allocations insert high
 * and climb; cores with small allocations are inserted near LRU and
 * get evicted quickly unless they earn promotion.
 */

#ifndef NUCACHE_POLICY_PIPP_HH
#define NUCACHE_POLICY_PIPP_HH

#include <vector>

#include "common/rng.hh"
#include "mem/replacement.hh"
#include "policy/atd.hh"

namespace nucache
{

/** Tunables for PIPP. */
struct PippConfig
{
    /** LLC accesses between re-running the allocation. */
    std::uint64_t epochAccesses = 100'000;
    /** UMON set-sampling shift. */
    unsigned sampleShift = 5;
    /** Probability a hit promotes the line by one position. */
    double promoteProb = 0.75;
};

/** The PIPP policy. */
class PippPolicy : public ReplacementPolicy
{
  public:
    explicit PippPolicy(const PippConfig &config = PippConfig{});

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

    /** A full flush unranks every line: every order row empties. */
    void
    onFlushAll() override
    {
        count.assign(count.size(), 0);
    }

    std::string name() const override { return "pipp"; }

    /**
     * Promotion bounds: insertion, single-step promotion and eviction
     * must keep each order row an exact permutation of the set's valid
     * ways (a duplicate or a missing way lets lines become
     * unevictable), and the allocations a well-formed partition of the
     * ways.
     */
    bool checkInvariants(const SetView &set,
                         std::string &why) const override;

    /** @return the current per-core allocations (tests / reports). */
    const std::vector<std::uint32_t> &allocations() const { return alloc; }

    /** @return priority rank of (set, way); 0 = next victim (tests). */
    std::uint32_t rankOf(std::uint32_t set, std::uint32_t way) const;

  private:
    static constexpr std::uint8_t noRank = 0xff;

    /** @return the order row of @p set (ways by rank, LRU end first). */
    std::uint8_t *
    row(std::uint32_t set)
    {
        return &order[static_cast<std::size_t>(set) * context.numWays];
    }
    const std::uint8_t *
    row(std::uint32_t set) const
    {
        return &order[static_cast<std::size_t>(set) * context.numWays];
    }

    /** @return the rank of @p way in @p set, or noRank if unranked. */
    std::uint8_t position(std::uint32_t set, std::uint32_t way) const;

    /** Feed UMONs and run the epoch allocator. */
    void observe(const SetView &set, const AccessInfo &info);

    /** Recompute per-core allocations from the monitors. */
    void reallocate();

    PippConfig cfg;
    Rng rng{0x9199ull};
    std::vector<UtilityMonitor> monitors;
    std::vector<std::uint32_t> alloc;
    /**
     * Per set, its ranked ways in priority order: entry r is the way
     * of rank r (0 = next victim), for the first count[set] entries.
     * Evictions and insertions shift the tail of one row with memmove;
     * a promotion swaps two neighbours.
     */
    std::vector<std::uint8_t> order;
    std::vector<std::uint8_t> count;
    std::uint64_t accessCount = 0;
};

} // namespace nucache

#endif // NUCACHE_POLICY_PIPP_HH
