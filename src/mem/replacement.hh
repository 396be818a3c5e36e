/**
 * @file
 * The replacement-policy interface of the set-associative cache model.
 *
 * The Cache owns the tag array (tags, valid and dirty bits); a
 * ReplacementPolicy owns whatever per-line or global metadata its
 * algorithm needs (recency stamps, RRPVs, owning cores, allocating
 * PCs, utility monitors, Next-Use histograms, ...) and is consulted
 * through the hooks below.  Policies see the lines of the accessed set
 * through a read-only SetView, which is enough for thread-aware and
 * PC-centric algorithms.
 *
 * Hook order on a miss that fills:
 *   onMiss -> [victimWay if the set is full] -> [onEvict if a valid
 *   line is replaced] -> onFill
 * Hook order on a hit: onHit.
 */

#ifndef NUCACHE_MEM_REPLACEMENT_HH
#define NUCACHE_MEM_REPLACEMENT_HH

#include <cstdint>
#include <string>

#include "mem/cache_line.hh"

namespace nucache
{

class Cache;

namespace obs
{
class Sampler;
} // namespace obs

/** Geometry and environment handed to a policy once, before use. */
struct PolicyContext
{
    std::uint32_t numSets = 0;
    std::uint32_t numWays = 0;
    std::uint32_t numCores = 1;
    std::uint32_t blockSize = 64;
};

/**
 * Read-only view of one cache set, passed to policy hooks.
 *
 * The view is *live*: it points into the cache's packed
 * structure-of-arrays tag store (per-set tag array and valid/dirty
 * bitmask words), so hooks fired after a state change — onFill in
 * particular — observe the updated set.  line() assembles a CacheLine
 * value from the packed columns; tag() and validMask() read one column.
 */
class SetView
{
  public:
    SetView(const Addr *tags, const std::uint64_t *valid,
            const std::uint64_t *dirty, std::uint32_t ways,
            std::uint32_t set_index)
        : tagsPtr(tags), validPtr(valid), dirtyPtr(dirty), wayCount(ways),
          setIdx(set_index)
    {
    }

    /** @return line metadata of way @p w (assembled by value). */
    CacheLine
    line(std::uint32_t w) const
    {
        CacheLine l;
        l.tag = tagsPtr[w];
        l.valid = ((*validPtr >> w) & 1) != 0;
        l.dirty = ((*dirtyPtr >> w) & 1) != 0;
        return l;
    }

    /** @return the tag held by way @p w (meaningful if valid). */
    Addr tag(std::uint32_t w) const { return tagsPtr[w]; }

    /** @return number of ways in the set. */
    std::uint32_t ways() const { return wayCount; }

    /** @return index of this set within the cache. */
    std::uint32_t setIndex() const { return setIdx; }

    /** @return bitmask of ways holding a valid line. */
    std::uint64_t validMask() const { return *validPtr; }

  private:
    const Addr *tagsPtr;
    const std::uint64_t *validPtr;
    const std::uint64_t *dirtyPtr;
    std::uint32_t wayCount;
    std::uint32_t setIdx;
};

/**
 * Abstract replacement / cache-management policy.
 *
 * Implementations must be deterministic given the access stream (any
 * randomness must come from an internally seeded generator) so that
 * experiments are reproducible.
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** Bind the policy to a cache geometry; called exactly once. */
    virtual void init(const PolicyContext &ctx) { context = ctx; }

    /**
     * Choose the way to evict.  Called only when the set is full.
     * @return a way index in [0, ways).
     */
    virtual std::uint32_t victimWay(const SetView &set,
                                    const AccessInfo &info) = 0;

    /** A lookup hit way @p way. */
    virtual void onHit(const SetView &set, std::uint32_t way,
                       const AccessInfo &info) = 0;

    /** A lookup missed (called before victim selection / fill). */
    virtual void
    onMiss(const SetView &set, const AccessInfo &info)
    {
        (void)set;
        (void)info;
    }

    /**
     * A valid line at way @p way is about to be replaced.
     * @param victim copy of the evicted line's metadata.
     * @param info   the access causing the eviction.
     */
    virtual void
    onEvict(const SetView &set, std::uint32_t way, const CacheLine &victim,
            const AccessInfo &info)
    {
        (void)set;
        (void)way;
        (void)victim;
        (void)info;
    }

    /** The missing block was installed at way @p way. */
    virtual void onFill(const SetView &set, std::uint32_t way,
                        const AccessInfo &info) = 0;

    /**
     * Every line of every set was invalidated at once (the
     * randomized-index defense's dynamic remap flushes the cache when
     * it re-keys; see mem/rand_index.hh).  Policies holding per-line
     * metadata must drop it so flushed lines read as untracked —
     * PIPP's rank permutation in particular demands invalid lines be
     * unranked.  The default assumes no per-line state survives a
     * normal fill cycle and does nothing.
     */
    virtual void onFlushAll() {}

    /** @return a short policy name for reports. */
    virtual std::string name() const = 0;

    /**
     * Verify this policy's own metadata invariants over @p set (e.g.\
     * recency-stack coherence for LRU, |Main| <= W - D for NUcache,
     * rank-permutation integrity for PIPP).  Consulted by the runtime
     * CacheChecker (see check/checker.hh) after every access when
     * checking is enabled; the default claims nothing.
     * @param why on failure, filled with a human-readable reason.
     * @return true iff the invariants hold.
     */
    virtual bool
    checkInvariants(const SetView &set, std::string &why) const
    {
        (void)set;
        (void)why;
        return true;
    }

    /**
     * Register telemetry probes over this policy's own state and the
     * LLC it manages (both outlive the sampler).  System calls it
     * once, after the LLC's own columns; the default adds none.
     */
    virtual void addProbes(obs::Sampler &, const Cache &) const {}

  protected:
    /** Geometry captured by init(). */
    PolicyContext context;
};

} // namespace nucache

#endif // NUCACHE_MEM_REPLACEMENT_HH
