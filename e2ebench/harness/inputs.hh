/**
 * @file
 * The benchmark's inputs, drawn from --seed alone: ad-hoc workload
 * mixes for the figure grid and the request pools of the two serving
 * workloads.  The program under test only ever sees these generated
 * lists, so a held-out seed gives fresh mixes and fresh keys.
 *
 * Workload names come from a deck: independent shuffles of the
 * 17-workload catalog dealt one after another.  Every workload then
 * appears as evenly as the slot count allows, which keeps the total
 * simulated work of a seed close to that of any other seed while the
 * combinations (and so the contention) change.
 */

#ifndef E2EBENCH_INPUTS_HH
#define E2EBENCH_INPUTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/mixes.hh"

namespace e2e
{

/** The paper's baselines: the serve_exact policy set. */
const std::vector<std::string> &baselinePolicies();

/** The policy families the estimate tier models. */
const std::vector<std::string> &modeledPolicies();

/** Deals workload names from successive shuffles of the catalog. */
class WorkloadDeck
{
  public:
    explicit WorkloadDeck(std::uint64_t seed);

    /** @return the next workload name. */
    const std::string &draw();

    /** @return @p n names. */
    std::vector<std::string> draw(unsigned n);

  private:
    nucache::Rng rng;
    std::vector<std::string> deck;
    std::size_t pos = 0;
};

/** @return @p count seeded @p cores-core mixes named "s<seed>_<i>". */
std::vector<nucache::WorkloadMix> drawMixes(std::uint64_t seed,
                                            unsigned cores,
                                            std::size_t count);

/** @return the distinct workloads of @p mixes, in first-seen order. */
std::vector<std::string> distinctWorkloads(
    const std::vector<nucache::WorkloadMix> &mixes);

/** One run_mix request of a pool. */
struct PoolRequest
{
    std::vector<std::string> workloads;
    std::string policy;
    bool estimate = false;
    /** Measurement window; 0 = the server default. */
    std::uint64_t records = 0;
    /** LLC size override; 0 = canonical for the core count. */
    std::uint64_t llcKib = 0;
    bool noCache = false;

    /**
     * @return the request object's members after "id", closing
     * brace included: `"op":"run_mix","params":{...}}`.
     */
    std::string body() const;
};

/** @return the wire line for @p body under @p id, newline included. */
std::string requestLine(std::uint64_t id, const std::string &body);

/**
 * serve_exact's pool: no_cache exact requests at @p records per core,
 * 34 two-core and 17 four-core lists (four whole decks each), every
 * list under every baseline policy: 255 requests.
 */
std::vector<PoolRequest> exactPool(std::uint64_t seed,
                                   std::uint64_t records);

/** serve_inline's key pool. */
struct InlinePool
{
    /** Exact keys first (primed in setup), then estimate keys. */
    std::vector<PoolRequest> keys;
    std::size_t exactKeys = 0;
};

/**
 * @return serve_inline's keys: 8 cacheable two-core exact keys plus
 * estimate keys over 2/4/8-core lists x modeled policies x four
 * llc_kib values, all estimates at @p estimate_records per core.
 */
InlinePool inlinePool(std::uint64_t seed, std::uint64_t estimate_records);

/**
 * @return connection @p conn's request sequence (@p n key indices):
 * one request in ten reads an exact key (uniformly), the rest draw an
 * estimate key by Zipf(1) popularity over a seeded ranking.
 */
std::vector<std::uint32_t> inlineOrder(const InlinePool &pool,
                                       std::uint64_t seed, unsigned conn,
                                       std::size_t n);

/** @return 0..n-1 in a seeded order. */
std::vector<std::uint32_t> shuffledOrder(std::size_t n, std::uint64_t seed);

} // namespace e2e

#endif // E2EBENCH_INPUTS_HH
