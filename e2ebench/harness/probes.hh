/**
 * @file
 * The traced run's probes: decorators around two public seams of the
 * simulator, ReplacementPolicy and TraceSource, that count and time
 * each call while forwarding it unchanged.  They live only in the
 * benchmark: the end-to-end runs never construct them, and a decorated
 * System produces byte-identical statistics (tests/test_harness.cc).
 *
 * One distortion is built in and reported with every traced run: the
 * LLC takes a devirtualized fast lane only when its policy's exact
 * type is LruPolicy (mem/cache.cc), so a wrapped "lru" runs the
 * generic virtual path and its hook times describe that path.
 */

#ifndef E2EBENCH_PROBES_HH
#define E2EBENCH_PROBES_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/nucache.hh"
#include "mem/replacement.hh"
#include "sim/system.hh"
#include "trace/trace.hh"

namespace e2e
{

/** @return steady-clock nanoseconds (the probes' time base). */
std::uint64_t nowNs();

/**
 * @return the cost the probes' own clock reads add to one timed
 * region: the median, over batches, of the mean gap between two
 * back-to-back nowNs() calls.  Subtracted from every timed call.
 */
double timerFloorNs();

/** The replacement hooks, in replacement.hh's order. */
enum Hook : unsigned
{
    kVictim,
    kHit,
    kMiss,
    kEvict,
    kFill,
    kHooks,
};

/** @return the metric name of @p hook ("victim", "hit", ...). */
const char *hookName(unsigned hook);

/** Call counts and host time per hook of one or more policies. */
struct HookTimes
{
    std::array<std::uint64_t, kHooks> calls{};
    std::array<std::uint64_t, kHooks> ns{};
    /** NUcache only: the onMiss calls during which an epoch ran. */
    std::uint64_t selectionCalls = 0;
    std::uint64_t selectionNs = 0;

    void merge(const HookTimes &other);
    std::uint64_t totalCalls() const;
    std::uint64_t totalNs() const;
};

/** Times every hook of the wrapped LLC policy. */
class TimedPolicy final : public nucache::ReplacementPolicy
{
  public:
    explicit TimedPolicy(std::unique_ptr<nucache::ReplacementPolicy> inner);

    void init(const nucache::PolicyContext &ctx) override;
    std::uint32_t victimWay(const nucache::SetView &set,
                            const nucache::AccessInfo &info) override;
    void onHit(const nucache::SetView &set, std::uint32_t way,
               const nucache::AccessInfo &info) override;
    void onMiss(const nucache::SetView &set,
                const nucache::AccessInfo &info) override;
    void onEvict(const nucache::SetView &set, std::uint32_t way,
                 const nucache::CacheLine &victim,
                 const nucache::AccessInfo &info) override;
    void onFill(const nucache::SetView &set, std::uint32_t way,
                const nucache::AccessInfo &info) override;
    void onFlushAll() override;
    std::string name() const override;
    bool checkInvariants(const nucache::SetView &set,
                         std::string &why) const override;

    const HookTimes &times() const { return hookTimes; }

    /** @return the wrapped policy when it is NUcache, else nullptr. */
    const nucache::NUcachePolicy *nucache() const { return nu; }

  private:
    std::unique_ptr<nucache::ReplacementPolicy> inner;
    const nucache::NUcachePolicy *nu = nullptr;
    HookTimes hookTimes;
};

/** Record count and sampled next() cost of one or more sources. */
struct TraceTimes
{
    std::uint64_t records = 0;
    std::uint64_t sampled = 0;
    std::uint64_t sampledNs = 0;

    void merge(const TraceTimes &other);
};

/**
 * Counts every next() of the wrapped source and times one call in
 * kSampleEvery: a replayed record costs a few nanoseconds, so timing
 * each one would mostly measure the clock.
 */
class TimedTraceSource final : public nucache::TraceSource
{
  public:
    static constexpr std::uint64_t kSampleEvery = 64;

    explicit TimedTraceSource(nucache::TraceSourcePtr inner);

    bool next(nucache::TraceRecord &rec) override;
    void reset() override;
    const std::string &name() const override;

    const TraceTimes &times() const { return traceTimes; }

  private:
    nucache::TraceSourcePtr inner;
    TraceTimes traceTimes;
};

/** What one decorated run of a (workloads, policy) cell measured. */
struct CellProbe
{
    std::string policy;
    /** Host seconds inside System::run. */
    double runS = 0.0;
    HookTimes hooks;
    TraceTimes trace;
    nucache::SystemResult result;
    /** NUcache counters (0 for other policies). */
    std::uint64_t epochs = 0;
    std::uint64_t deliHits = 0;
    std::uint64_t churn = 0;
};

/**
 * Run @p workloads under @p policy on @p hier for @p records per core
 * with every probe attached, replaying the shared trace arena exactly
 * as RunEngine::runMix does, inside an obs::TraceSpan when tracing is
 * on.
 */
CellProbe probeCell(const std::vector<std::string> &workloads,
                    const std::string &policy,
                    const nucache::HierarchyConfig &hier,
                    std::uint64_t records);

/**
 * The same run with no probe attached.  @return the host seconds inside
 * System::run, the baseline of the probes' overhead.
 */
double plainRunSeconds(const std::vector<std::string> &workloads,
                       const std::string &policy,
                       const nucache::HierarchyConfig &hier,
                       std::uint64_t records);

} // namespace e2e

#endif // E2EBENCH_PROBES_HH
