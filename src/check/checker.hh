/**
 * @file
 * Runtime invariant checking for any cache + policy combination.
 *
 * A CacheChecker attaches to a Cache's access observer and, after
 * every access, sweeps the touched set for two classes of invariant:
 *
 *  - structural (owned by the tag array itself): at most one valid
 *    line per tag in a set;
 *  - policy (owned by the replacement algorithm's metadata): whatever
 *    ReplacementPolicy::checkInvariants() asserts — LRU recency-stack
 *    coherence, NUcache's |Main| <= W - D and FIFO DeliWays ordering,
 *    UCP quota compliance and registered line owners, PIPP's rank
 *    order rows.
 *
 * In Panic mode (the default, used by --check runs) a violation
 * aborts via panic() so the broken state is captured; Collect mode
 * records violations instead, which lets unit tests assert both that
 * clean runs stay clean and that seeded corruption is detected.
 */

#ifndef NUCACHE_CHECK_CHECKER_HH
#define NUCACHE_CHECK_CHECKER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/cache.hh"

namespace nucache
{

/** One recorded invariant violation (Collect mode). */
struct CheckViolation
{
    /** Name of the offending cache. */
    std::string cache;
    /** Set index the violation was observed in. */
    std::uint32_t set = 0;
    /** Human-readable description. */
    std::string what;
};

/** The per-cache invariant checker. */
class CacheChecker
{
  public:
    enum class Mode
    {
        /** panic() on the first violation (production --check runs). */
        Panic,
        /** Record violations; inspect via violations() (tests). */
        Collect,
    };

    /**
     * Attach to @p cache: installs the access observer.  The checker
     * must outlive the cache's last access (System owns both).
     */
    explicit CacheChecker(Cache &cache, Mode mode = Mode::Panic);

    /** Detach the observer (the cache keeps working unchecked). */
    ~CacheChecker();

    CacheChecker(const CacheChecker &) = delete;
    CacheChecker &operator=(const CacheChecker &) = delete;

    /** Check one set now; @return number of violations found in it. */
    std::size_t checkSet(std::uint32_t set);

    /** Sweep every set (end-of-run audit); @return violations found. */
    std::size_t checkAll();

    /** @return sets swept so far (per-access + explicit calls). */
    std::uint64_t checksRun() const { return checkCount; }

    /** @return violations found so far (all modes count; Collect keeps
     * the first few descriptions). */
    std::uint64_t violationCount() const { return violationTotal; }

    /** @return recorded violations (Collect mode; capped). */
    const std::vector<CheckViolation> &violations() const { return viols; }

  private:
    /** Record or panic, per mode. */
    void report(std::uint32_t set, const std::string &what);

    /** Cap on stored violation records (the count keeps running). */
    static constexpr std::size_t maxStored = 32;

    Cache &cache;
    Mode mode;
    std::uint64_t checkCount = 0;
    std::uint64_t violationTotal = 0;
    std::vector<CheckViolation> viols;
};

} // namespace nucache

#endif // NUCACHE_CHECK_CHECKER_HH
