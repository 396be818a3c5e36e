#include "probes.hh"

#include <algorithm>
#include <chrono>

#include "obs/tracer.hh"
#include "sim/policies.hh"
#include "trace/arena.hh"

namespace e2e
{

using namespace nucache;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
timerFloorNs()
{
    constexpr int kBatches = 9;
    constexpr int kPairs = 20'000;
    std::vector<double> means;
    for (int b = 0; b < kBatches; ++b) {
        std::uint64_t sum = 0;
        for (int i = 0; i < kPairs; ++i) {
            const std::uint64_t t0 = nowNs();
            sum += nowNs() - t0;
        }
        means.push_back(static_cast<double>(sum) / kPairs);
    }
    std::sort(means.begin(), means.end());
    return means[means.size() / 2];
}

const char *
hookName(unsigned hook)
{
    static const char *const names[kHooks] = {"victim", "hit", "miss",
                                              "evict", "fill"};
    return hook < kHooks ? names[hook] : "?";
}

void
HookTimes::merge(const HookTimes &other)
{
    for (unsigned h = 0; h < kHooks; ++h) {
        calls[h] += other.calls[h];
        ns[h] += other.ns[h];
    }
    selectionCalls += other.selectionCalls;
    selectionNs += other.selectionNs;
}

std::uint64_t
HookTimes::totalCalls() const
{
    std::uint64_t n = 0;
    for (const std::uint64_t c : calls)
        n += c;
    return n;
}

std::uint64_t
HookTimes::totalNs() const
{
    std::uint64_t n = 0;
    for (const std::uint64_t t : ns)
        n += t;
    return n;
}

TimedPolicy::TimedPolicy(std::unique_ptr<ReplacementPolicy> wrapped)
    : inner(std::move(wrapped)),
      nu(dynamic_cast<const NUcachePolicy *>(inner.get()))
{
}

void
TimedPolicy::init(const PolicyContext &ctx)
{
    ReplacementPolicy::init(ctx);
    inner->init(ctx);
}

std::uint32_t
TimedPolicy::victimWay(const SetView &set, const AccessInfo &info)
{
    const std::uint64_t t0 = nowNs();
    const std::uint32_t way = inner->victimWay(set, info);
    hookTimes.ns[kVictim] += nowNs() - t0;
    ++hookTimes.calls[kVictim];
    return way;
}

void
TimedPolicy::onHit(const SetView &set, std::uint32_t way,
                   const AccessInfo &info)
{
    const std::uint64_t t0 = nowNs();
    inner->onHit(set, way, info);
    hookTimes.ns[kHit] += nowNs() - t0;
    ++hookTimes.calls[kHit];
}

void
TimedPolicy::onMiss(const SetView &set, const AccessInfo &info)
{
    const std::uint64_t epochs = nu != nullptr ? nu->epochsRun() : 0;
    const std::uint64_t t0 = nowNs();
    inner->onMiss(set, info);
    const std::uint64_t dt = nowNs() - t0;
    hookTimes.ns[kMiss] += dt;
    ++hookTimes.calls[kMiss];
    if (nu != nullptr && nu->epochsRun() != epochs) {
        hookTimes.selectionNs += dt;
        ++hookTimes.selectionCalls;
    }
}

void
TimedPolicy::onEvict(const SetView &set, std::uint32_t way,
                     const CacheLine &victim, const AccessInfo &info)
{
    const std::uint64_t t0 = nowNs();
    inner->onEvict(set, way, victim, info);
    hookTimes.ns[kEvict] += nowNs() - t0;
    ++hookTimes.calls[kEvict];
}

void
TimedPolicy::onFill(const SetView &set, std::uint32_t way,
                    const AccessInfo &info)
{
    const std::uint64_t t0 = nowNs();
    inner->onFill(set, way, info);
    hookTimes.ns[kFill] += nowNs() - t0;
    ++hookTimes.calls[kFill];
}

void
TimedPolicy::onFlushAll()
{
    inner->onFlushAll();
}

std::string
TimedPolicy::name() const
{
    return inner->name();
}

bool
TimedPolicy::checkInvariants(const SetView &set, std::string &why) const
{
    return inner->checkInvariants(set, why);
}

void
TraceTimes::merge(const TraceTimes &other)
{
    records += other.records;
    sampled += other.sampled;
    sampledNs += other.sampledNs;
}

TimedTraceSource::TimedTraceSource(TraceSourcePtr wrapped)
    : inner(std::move(wrapped))
{
}

bool
TimedTraceSource::next(TraceRecord &rec)
{
    if (++traceTimes.records % kSampleEvery != 0)
        return inner->next(rec);
    const std::uint64_t t0 = nowNs();
    const bool more = inner->next(rec);
    traceTimes.sampledNs += nowNs() - t0;
    ++traceTimes.sampled;
    return more;
}

void
TimedTraceSource::reset()
{
    inner->reset();
}

const std::string &
TimedTraceSource::name() const
{
    return inner->name();
}

CellProbe
probeCell(const std::vector<std::string> &workloads,
          const std::string &policy, const HierarchyConfig &hier,
          std::uint64_t records)
{
    obs::TraceSpan span(obs::Tracer::active() ? "probe " + policy
                                              : std::string(),
                        "e2ebench");
    std::vector<TraceSourcePtr> traces;
    std::vector<const TimedTraceSource *> sources;
    for (const std::string &w : workloads) {
        auto src = std::make_unique<TimedTraceSource>(
            TraceArena::instance().open(w));
        sources.push_back(src.get());
        traces.push_back(std::move(src));
    }
    auto timed = std::make_unique<TimedPolicy>(makePolicy(policy));
    const TimedPolicy *probe = timed.get();

    System sys(hier, std::move(timed), std::move(traces), records,
               /*check_invariants=*/false);
    CellProbe out;
    out.policy = policy;
    const std::uint64_t t0 = nowNs();
    out.result = sys.run();
    out.runS = static_cast<double>(nowNs() - t0) * 1e-9;

    // The System owns the probes and is still alive here.
    out.hooks = probe->times();
    for (const TimedTraceSource *src : sources)
        out.trace.merge(src->times());
    if (const NUcachePolicy *nu = probe->nucache()) {
        out.epochs = nu->epochsRun();
        out.deliHits = nu->deliHits();
        out.churn = nu->selectionChurn();
    }
    return out;
}

double
plainRunSeconds(const std::vector<std::string> &workloads,
                const std::string &policy, const HierarchyConfig &hier,
                std::uint64_t records)
{
    std::vector<TraceSourcePtr> traces;
    for (const std::string &w : workloads)
        traces.push_back(TraceArena::instance().open(w));
    System sys(hier, makePolicy(policy), std::move(traces), records,
               /*check_invariants=*/false);
    const std::uint64_t t0 = nowNs();
    sys.run();
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

} // namespace e2e
