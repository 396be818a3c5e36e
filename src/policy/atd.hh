/**
 * @file
 * Auxiliary Tag Directory with dynamic set sampling (UMON-DSS,
 * Qureshi & Patt, MICRO'06).
 *
 * For each monitored core, a shadow tag array covering a sampled subset
 * of cache sets simulates that core running *alone* with full
 * associativity under LRU.  Hits are accounted by the recency (stack)
 * position they hit in, yielding the marginal-utility curve
 * "hits if this core had w ways" that UCP's lookahead partitioning
 * consumes.
 */

#ifndef NUCACHE_POLICY_ATD_HH
#define NUCACHE_POLICY_ATD_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace nucache
{

/**
 * One core's utility monitor.
 */
class UtilityMonitor
{
  public:
    /**
     * @param num_sets  sets of the monitored cache.
     * @param num_ways  associativity simulated by the shadow tags.
     * @param sample_shift sample 1 set per 2^shift (5 => 1 in 32).
     */
    UtilityMonitor(std::uint32_t num_sets, std::uint32_t num_ways,
                   unsigned sample_shift = 5);

    /** @return true iff @p set is one of the sampled sets. */
    bool sampled(std::uint32_t set) const;

    /**
     * Observe an access from the monitored core.
     * No-op for unsampled sets.
     * @param set cache set index of the access.
     * @param tag full block tag.
     */
    void observe(std::uint32_t set, Addr tag);

    /**
     * @return estimated hits this core would score with @p ways ways,
     * i.e.\ the cumulative stack-position histogram.
     */
    std::uint64_t hitsWithWays(std::uint32_t ways) const;

    /** @return raw hit count at stack position @p pos (0 = MRU). */
    std::uint64_t hitsAtPosition(std::uint32_t pos) const;

    /** @return misses seen by the shadow directory. */
    std::uint64_t misses() const { return missCount; }

    /** Halve all counters (epoch aging). */
    void decay();

  private:
    struct ShadowEntry
    {
        Addr tag = 0;
        Tick touch = 0;
        bool valid = false;
    };

    /** @return index into the shadow array, or -1 if not sampled. */
    std::int64_t shadowIndex(std::uint32_t set) const;

    std::uint32_t ways;
    unsigned shift;
    std::uint32_t numSampled;
    /** Dense shadow slot per set; -1 for unsampled sets. */
    std::vector<std::int32_t> setToShadow;
    std::vector<ShadowEntry> entries;
    std::vector<std::uint64_t> positionHits;
    std::uint64_t missCount = 0;
    Tick tick = 0;
};

} // namespace nucache

#endif // NUCACHE_POLICY_ATD_HH
