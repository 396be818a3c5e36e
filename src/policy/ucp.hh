/**
 * @file
 * Utility-based Cache Partitioning (Qureshi & Patt, MICRO'06).
 *
 * Per-core UMONs (sampled shadow tags, see atd.hh) estimate the hits
 * each core would obtain with any number of ways; the lookahead
 * algorithm divides the ways to maximize total estimated hits, and the
 * replacement path enforces the quotas by evicting from over-quota
 * cores first.  This is the strongest explicit-partitioning baseline
 * the paper compares against.
 */

#ifndef NUCACHE_POLICY_UCP_HH
#define NUCACHE_POLICY_UCP_HH

#include <memory>
#include <vector>

#include "common/simd.hh"
#include "mem/replacement.hh"
#include "policy/atd.hh"

namespace nucache
{

/**
 * The lookahead way-partitioning algorithm, exposed standalone so
 * tests can drive it with crafted utility curves.
 *
 * @param curves per-core cumulative hit curves: curves[c][w] =
 *               estimated hits of core c with (w+1) ways.
 * @param total_ways ways to distribute.
 * @param min_per_core floor allocation per core (paper uses 1).
 * @return allocation per core; sums to total_ways.
 */
std::vector<std::uint32_t>
lookaheadPartition(const std::vector<std::vector<std::uint64_t>> &curves,
                   std::uint32_t total_ways,
                   std::uint32_t min_per_core = 1);

/** Tunables for UCP. */
struct UcpConfig
{
    /** LLC accesses between repartitioning decisions. */
    std::uint64_t epochAccesses = 100'000;
    /** UMON set-sampling shift (5 => 1 in 32 sets). */
    unsigned sampleShift = 5;
};

/** The UCP policy. */
class UcpPolicy : public ReplacementPolicy
{
  public:
    explicit UcpPolicy(const UcpConfig &config = UcpConfig{});

    void init(const PolicyContext &ctx) override;

    std::uint32_t victimWay(const SetView &set,
                            const AccessInfo &info) override;
    void onHit(const SetView &set, std::uint32_t way,
               const AccessInfo &info) override;
    void onMiss(const SetView &set, const AccessInfo &info) override;
    void onFill(const SetView &set, std::uint32_t way,
                const AccessInfo &info) override;

    std::string name() const override { return "ucp"; }

    /**
     * Quota compliance: the partition must stay well-formed (one
     * quota per core, each at least one way, summing exactly to the
     * associativity — anything else and the enforcement paths
     * deadlock or leak ways), every valid line must be owned by a
     * registered core (the owner column is what quotas are enforced
     * over), and the per-line recency stamps backing quota enforcement
     * must be coherent (distinct, non-zero for valid lines).
     */
    bool checkInvariants(const SetView &set,
                         std::string &why) const override;

    /** @return the current per-core way quotas (tests / reports). */
    const std::vector<std::uint32_t> &quotas() const { return quota; }

    /** @return the core whose miss filled (set, way) (tests). */
    CoreId
    ownerOf(std::uint32_t set, std::uint32_t way) const
    {
        const std::uint8_t o = owner[slot(set, way)];
        return o == noOwner ? invalidCore : o;
    }

    /** Force a repartition now (tests). */
    void repartition();

  private:
    /** Owner byte of a line no fill has claimed. */
    static constexpr std::uint8_t noOwner = 0xff;

    std::size_t
    slot(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * context.numWays + way;
    }

    /** Feed the access to the owning core's UMON. */
    void observe(const SetView &set, const AccessInfo &info);

    /**
     * @return the LRU way among the ways in @p mask (the lowest way on
     * a stamp tie); ways() if @p mask is empty.
     */
    std::uint32_t
    lruAmong(const SetView &set, std::uint64_t mask) const
    {
        return simd::minIndexMasked64(&lastTouch[slot(set.setIndex(), 0)],
                                      set.ways(), mask);
    }

    UcpConfig cfg;
    std::vector<UtilityMonitor> monitors;
    std::vector<std::uint32_t> quota;
    std::vector<Tick> lastTouch;
    /** Core that filled each line, one byte per (set, way). */
    std::vector<std::uint8_t> owner;
    /** victimWay's per-core way masks (sized once, by init). */
    std::vector<std::uint64_t> coreWays;
    std::uint64_t accessCount = 0;
};

} // namespace nucache

#endif // NUCACHE_POLICY_UCP_HH
