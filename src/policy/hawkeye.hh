/**
 * @file
 * Hawkeye-lite (Jain & Lin, ISCA'16) — beyond-paper comparator.
 *
 * Hawkeye reconstructs what Belady's OPT *would have done* on sampled
 * sets (OPTgen: liveness intervals over an occupancy vector) and
 * trains a PC-indexed predictor with the verdicts; predicted
 * cache-friendly fills are inserted protected, predicted cache-averse
 * ones are inserted dead.  Against NUcache this contrasts
 * learned-OPT admission with measured-Next-Use retention.
 *
 * This is a faithful simplification: per-set occupancy history of
 * 8x associativity, 3-bit predictor counters, 3-bit RRIP-style ages
 * with aging-on-fill and detraining on friendly evictions.
 */

#ifndef NUCACHE_POLICY_HAWKEYE_HH
#define NUCACHE_POLICY_HAWKEYE_HH

#include <deque>
#include <vector>

#include "mem/replacement.hh"

namespace nucache
{

/** Tunables for Hawkeye-lite. */
struct HawkeyeConfig
{
    /** Sample 1 set in 2^shift for OPTgen. */
    unsigned sampleShift = 5;
    /** log2 of predictor entries. */
    unsigned predictorLogSize = 13;
    /** History length per sampled set, in multiples of the ways. */
    unsigned historyFactor = 8;
};

/** The policy. */
class HawkeyePolicy : public ReplacementPolicy
{
  public:
    explicit HawkeyePolicy(const HawkeyeConfig &config = HawkeyeConfig{});

    void init(const PolicyContext &ctx) override;

    std::uint32_t victimWay(const SetView &set,
                            const AccessInfo &info) override;
    void onHit(const SetView &set, std::uint32_t way,
               const AccessInfo &info) override;
    void onMiss(const SetView &set, const AccessInfo &info) override;
    void onFill(const SetView &set, std::uint32_t way,
                const AccessInfo &info) override;

    std::string name() const override { return "hawkeye"; }

    /** @return true iff the predictor currently trusts @p pc. */
    bool predictsFriendly(PC pc) const;

    /** @return the PC whose miss filled (set, way) (tests). */
    PC
    allocatingPc(std::uint32_t set, std::uint32_t way) const
    {
        return allocPc[slot(set, way)];
    }

    /** @return OPTgen verdicts issued so far: {hits, misses}. */
    std::pair<std::uint64_t, std::uint64_t>
    optgenVerdicts() const
    {
        return {optHits, optMisses};
    }

  private:
    static constexpr std::uint8_t maxAge = 7;

    struct HistEntry
    {
        Addr tag = 0;
        std::uint32_t pcSig = 0;
        /** Liveness-interval coverage of this time slot. */
        std::uint8_t occupancy = 0;
    };

    std::size_t
    slot(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * context.numWays + way;
    }

    /** @return predictor index of @p pc. */
    std::uint32_t signatureOf(PC pc) const;

    /** @return dense sampled-set index, or -1. */
    std::int32_t sampledIndex(std::uint32_t set) const;

    /** OPTgen update for an access to (set, tag, pc). */
    void optgenAccess(std::uint32_t set, Addr tag, PC pc);

    HawkeyeConfig cfg;
    std::vector<std::int32_t> setToSample;
    std::vector<std::deque<HistEntry>> histories;
    std::vector<std::uint8_t> predictor;
    /** Per-line age (0 = protected MRU, maxAge = predicted dead). */
    std::vector<std::uint8_t> age;
    /** PC whose miss filled each line (detrained on its eviction). */
    std::vector<PC> allocPc;
    std::uint64_t optHits = 0;
    std::uint64_t optMisses = 0;
};

} // namespace nucache

#endif // NUCACHE_POLICY_HAWKEYE_HH
