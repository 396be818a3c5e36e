#include "model/predictor.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "policy/ucp.hh"
#include "sim/metrics.hh"
#include "sim/policies.hh"

namespace nucache::model
{

namespace
{

/** Fixed-point iteration bounds (converges in a handful of rounds). */
constexpr unsigned kMaxRounds = 40;
constexpr unsigned kDeliRounds = 12;
/**
 * Relative cycle-count convergence threshold.  The model's own error
 * floor is ~1e-1, so iterating past 1e-6 buys nothing but rounds —
 * under 0.5 damping each extra decade of tolerance costs ~3 rounds
 * of every per-core capacity probe.
 */
constexpr double kTolerance = 1e-6;

/** DRAM utilization clamp: keeps the M/D/1 queue term finite. */
constexpr double kMaxDramUtil = 0.95;

/** Cost-benefit replay limits (mirrors PcSelectionConfig's spirit). */
constexpr std::size_t kDeliCandidatesPerCore = 8;
constexpr std::size_t kDeliMaxSelected = 16;

/** Policy families the analytical model covers. */
enum class PolicyFamily
{
    Lru,
    Nru,
    NUcache,
    Ucp,
    Pipp,
};

/** Resolved policy family plus its NUcache knobs. */
struct FamilySpec
{
    PolicyFamily family = PolicyFamily::Lru;
    /** NUcache `d=` override; 0 = the policy's 5/8 default. */
    std::uint32_t deliWays = 0;
    /** False for nucache-none (DeliWays exist but admit nothing). */
    bool deliAdmission = true;
};

bool
resolveFamily(const spec::Spec &policy, FamilySpec &out,
              std::string &err)
{
    const std::string_view name = policy.family->name;
    if (name == "lru") {
        out.family = PolicyFamily::Lru;
    } else if (name == "nru") {
        out.family = PolicyFamily::Nru;
    } else if (name == "ucp") {
        out.family = PolicyFamily::Ucp;
    } else if (name == "pipp") {
        out.family = PolicyFamily::Pipp;
    } else if (name == "nucache" || name == "nucache-topk" ||
               name == "nucache-all" || name == "nucache-none") {
        out.family = PolicyFamily::NUcache;
        out.deliAdmission = name != "nucache-none";
        // Honour the d= DeliWays override; every other key tunes
        // monitoring detail the model does not resolve.
        out.deliWays = static_cast<std::uint32_t>(policy.get("d", 0));
    } else {
        err = "policy family '" + std::string(name) +
              "' is outside the estimate tier (modeled: lru, nru, "
              "ucp, pipp, nucache*)";
        return false;
    }
    return true;
}

/** Per-core mutable state of the fixed-point iteration. */
struct CoreState
{
    const WorkloadProfile *p = nullptr;
    /** Cycles with the pass's own LLC-miss stalls removed. */
    double baseCycles = 0.0;
    double cycles = 0.0;
    double hits = 0.0;
    double deliHits = 0.0;
    double misses = 0.0;
};

/**
 * Flattened non-empty histogram: bucket midpoints and counts pulled
 * out once per estimateMix() call, so the inner fixed-point loops
 * iterate a dozen doubles instead of walking LogHistogram buckets.
 */
struct HistView
{
    std::vector<double> mid;
    std::vector<double> cnt;

    explicit HistView(const LogHistogram &h)
    {
        for (unsigned b = 0; b < h.numBuckets(); ++b) {
            if (h.count(b) == 0)
                continue;
            mid.push_back(
                0.5 * (static_cast<double>(h.bucketLow(b)) +
                       static_cast<double>(h.bucketHigh(b))));
            cnt.push_back(static_cast<double>(h.count(b)));
        }
    }

    /** @return the sum over observations of min(value, n). */
    double
    clampedSum(double n) const
    {
        double s = 0.0;
        for (std::size_t b = 0; b < mid.size(); ++b)
            s += std::min(mid[b], n) * cnt[b];
        return s;
    }

    /**
     * @return the expected observations retained by a churning stack
     * of @p capacity blocks: an observation at stack distance d
     * survives with probability capacity / (capacity + d).  The soft
     * form (rather than the step min(1, C/d)) reflects that a
     * pseudo-partitioned stack keeps churning even inside its own
     * allocation — co-runner insertions and promotion swaps evict a
     * share of the nominally-fitting blocks, while a share of the
     * over-distance ones survives in the stable retained subset.
     */
    double
    retainedCount(double capacity) const
    {
        if (capacity <= 0.0)
            return 0.0;
        double s = 0.0;
        for (std::size_t b = 0; b < mid.size(); ++b)
            s += capacity / (capacity + std::max(1.0, mid[b])) *
                 cnt[b];
        return s;
    }
};

/**
 * Expected distinct blocks the profiled stream touches in a window of
 * @p n of its own consecutive LLC accesses.  Every cold access opens
 * a block; a reused access opens one iff its previous touch fell
 * before the window, which across random window alignments happens
 * with probability min(delta, n) / n for time distance delta.  Capped
 * by the stream's whole footprint — this cap is what keeps a small
 * resident working set from being modeled as endless pollution.
 */
double
distinctBlocks(const WorkloadProfile &p, const HistView &time,
               double n)
{
    if (n <= 0.0 || p.llcAccesses == 0)
        return 0.0;
    const double accesses = static_cast<double>(p.llcAccesses);
    const double cold = static_cast<double>(p.coldAccesses);
    const double opened =
        (n * cold + time.clampedSum(n)) / accesses;
    return std::min(cold, std::min(n, opened));
}

/**
 * Per-core lookup table over the window-pollution primitives.  Both
 * distinctBlocks() and its inverse depend only on the profile — not
 * on the evolving rates — yet the fixed-point loop calls them from
 * inside sharedCapacity()'s bisection, once per co-runner per probe,
 * across ~50 rounds.  Tabulating them once per estimateMix() on a
 * geometric grid turns those nested bisections into interpolated
 * lookups and is what holds a warm 8-core estimate under the
 * millisecond budget.  Interpolation error is ~1% of a bucket span,
 * far below the model's own error floor.
 */
class WindowTable
{
  public:
    WindowTable(const WorkloadProfile &p, const HistView &time)
        : cold(static_cast<double>(p.coldAccesses))
    {
        n.resize(kPoints);
        db.resize(kPoints);
        const double growth =
            std::pow(kMaxWindow, 1.0 / (kPoints - 1));
        double x = 1.0;
        for (int k = 0; k < kPoints; ++k, x *= growth) {
            n[k] = x;
            db[k] = distinctBlocks(p, time, x);
        }
    }

    /** Tabulated distinctBlocks(p, time, x). */
    double
    distinct(double x) const
    {
        if (x <= 0.0)
            return 0.0;
        if (x <= n.front())
            return db.front() * x / n.front();
        if (x >= n.back())
            return db.back();
        const std::size_t k = static_cast<std::size_t>(
            std::upper_bound(n.begin(), n.end(), x) - n.begin());
        const double f = (x - n[k - 1]) / (n[k] - n[k - 1]);
        return db[k - 1] + f * (db[k] - db[k - 1]);
    }

    /** Tabulated accessesToCover(p, time, d). */
    double
    cover(double d) const
    {
        if (d <= 0.0)
            return 0.0;
        if (d >= cold)
            return std::numeric_limits<double>::infinity();
        const std::size_t k = static_cast<std::size_t>(
            std::lower_bound(db.begin(), db.end(), d) - db.begin());
        if (k >= db.size())
            return kMaxWindow;
        if (k == 0)
            return n.front() * d / std::max(db.front(), d);
        const double span = db[k] - db[k - 1];
        if (span <= 0.0)
            return n[k];
        const double f = (d - db[k - 1]) / span;
        return n[k - 1] + f * (n[k] - n[k - 1]);
    }

  private:
    static constexpr int kPoints = 128;
    static constexpr double kMaxWindow = 1e15;

    std::vector<double> n;
    std::vector<double> db;
    double cold;
};

/**
 * Effective LRU depth of core @p i in a shared cache of @p shared
 * blocks: the largest own stack distance d that still hits once the
 * distinct blocks every co-runner drags through the cache during the
 * same wall-clock interval stack on top of it.  The co-runner windows
 * scale by the access-rate ratio; their pollution is footprint-capped
 * (distinctBlocks), which is what gives cache-friendly cores the
 * negative feedback a bare proportional-share model lacks.
 */
double
sharedCapacity(const std::vector<CoreState> &cores,
               const std::vector<WindowTable> &tabs, std::size_t i,
               double shared)
{
    const WorkloadProfile &pi = *cores[i].p;
    const double rate_i =
        static_cast<double>(pi.llcAccesses) / cores[i].cycles;
    if (rate_i <= 0.0)
        return shared;
    const auto overflows = [&](double d) -> bool {
        const double n = tabs[i].cover(d);
        if (!std::isfinite(n))
            return true;
        double sum = d;
        for (std::size_t j = 0; j < cores.size(); ++j) {
            if (j == i)
                continue;
            const double rate_j =
                static_cast<double>(cores[j].p->llcAccesses) /
                cores[j].cycles;
            sum += tabs[j].distinct(n * rate_j / rate_i);
            if (sum > shared)
                return true;
        }
        return false;
    };
    double lo = 0.0;
    double hi = shared;
    if (!overflows(hi))
        return shared;
    // 20 probes resolve the capacity to shared / 2^20 — well under a
    // block for any geometry the server accepts.
    for (int it = 0; it < 20; ++it) {
        const double d = 0.5 * (lo + hi);
        if (overflows(d))
            hi = d;
        else
            lo = d;
    }
    // Distances <= lo hit; hitFraction(capacity) counts d < capacity.
    return lo + 1.0;
}

/** DRAM read penalty: device latency plus an M/D/1 queueing term. */
double
dramPenalty(double miss_per_cycle, const DramConfig &dram)
{
    const double service =
        static_cast<double>(dram.occupancy) /
        std::max(1.0, static_cast<double>(dram.channels));
    const double util =
        std::min(kMaxDramUtil, miss_per_cycle * service);
    return static_cast<double>(dram.latency) +
           service * util / (2.0 * (1.0 - util));
}

/**
 * UCP/PIPP way partition: the policies' own lookahead algorithm run
 * over utility curves synthesized from the profiles' reuse CDFs (the
 * lookahead is what lets a cliff workload — a pointer chase whose
 * curve is flat until its whole footprint fits — claim its span in
 * one move).  The real monitors accumulate utility per wall-clock
 * epoch, so a slow core contributes proportionally fewer ATD hits
 * than a fast one: weight each curve by the core's access rate
 * (hits per cycle, not hits per window) or the partition hands
 * all-miss stragglers capacity the real policy never gives them.
 * Computed once from the pass rates, outside the rate iteration.
 */
std::vector<double>
partitionCapacities(const std::vector<CoreState> &cores,
                    std::uint32_t ways, std::uint64_t sets)
{
    const std::size_t n = cores.size();
    std::vector<std::vector<std::uint64_t>> curves(n);
    for (std::size_t i = 0; i < n; ++i) {
        const WorkloadProfile &p = *cores[i].p;
        const double rate =
            static_cast<double>(p.llcAccesses) / cores[i].cycles;
        curves[i].resize(ways);
        for (std::uint32_t w = 1; w <= ways; ++w) {
            curves[i][w - 1] = static_cast<std::uint64_t>(
                1e9 * rate * static_cast<double>(p.llcAccesses) *
                p.hitFraction(static_cast<double>(w) *
                              static_cast<double>(sets)));
        }
    }
    const std::vector<std::uint32_t> alloc =
        lookaheadPartition(curves, ways, 1);
    std::vector<double> capacities(n);
    for (std::size_t i = 0; i < n; ++i)
        capacities[i] = alloc[i] * static_cast<double>(sets);
    return capacities;
}

/**
 * Replay the paper's cost-benefit PC selection on the profiles'
 * next-use CDFs and @return the expected DeliWays hits per access,
 * per core.  Distances live in each profile's own pass-miss units;
 * they convert to mix-miss units through the current access and miss
 * rates (a co-runner's misses age the FIFO too).
 */
std::vector<double>
deliHitsPerAccess(const std::vector<CoreState> &cores,
                  double deli_blocks)
{
    const std::size_t n = cores.size();
    std::vector<double> perAccess(n, 0.0);
    double totalMissPerCycle = 0.0;
    for (const CoreState &c : cores)
        totalMissPerCycle += c.misses / c.cycles;
    if (totalMissPerCycle <= 0.0 || deli_blocks <= 0.0)
        return perAccess;

    struct Candidate
    {
        std::size_t core = 0;
        /** Probed once per greedy step, for every member. */
        LogHistogramCdf nextUse;
        /** DeliWays insertions per mix miss if selected. */
        double insRate = 0.0;
        /** Pass-miss distance units per mix miss. */
        double conv = 0.0;
        /** Scale from covered sampled next-uses to mix-miss units. */
        double benefitScale = 0.0;

        explicit Candidate(const LogHistogram &h) : nextUse(h) {}
    };
    std::vector<Candidate> candidates;
    for (std::size_t i = 0; i < n; ++i) {
        const WorkloadProfile &p = *cores[i].p;
        if (p.monitorMisses == 0 || p.llcAccesses == 0 ||
            p.llcMisses == 0)
            continue;
        const double a = static_cast<double>(p.llcAccesses) /
                         cores[i].cycles;
        const double passMissRate =
            static_cast<double>(p.llcMisses) /
            static_cast<double>(p.llcAccesses);
        const double conv = a * passMissRate / totalMissPerCycle;
        const double missShare =
            (cores[i].misses / cores[i].cycles) / totalMissPerCycle;
        const double perMonitorMiss =
            missShare / static_cast<double>(p.monitorMisses);
        const std::size_t take =
            std::min(kDeliCandidatesPerCore, p.pcs.size());
        for (std::size_t k = 0; k < take; ++k) {
            const PcNextUse &pc = p.pcs[k];
            if (pc.nextUse.total() == 0)
                continue;
            Candidate c(pc.nextUse);
            c.core = i;
            c.insRate = std::max(
                1e-9, static_cast<double>(pc.retires) * perMonitorMiss);
            c.conv = conv;
            c.benefitScale = perMonitorMiss;
            candidates.push_back(std::move(c));
        }
    }
    if (candidates.empty())
        return perAccess;

    // Greedy ascent with full window recomputation, exactly as the
    // policy's firmware does: adding a PC shrinks the retention
    // window  T = C / f(S)  for every member of S.
    std::vector<bool> chosen(candidates.size(), false);
    std::vector<std::size_t> selected;
    double insSum = 0.0;
    double bestTotal = 0.0;
    auto totalBenefit = [&](double ins_sum,
                            std::size_t extra) -> double {
        const double window = deli_blocks / ins_sum;
        double total = 0.0;
        auto benefit = [&](const Candidate &c) {
            return c.nextUse.atOrBelow(static_cast<std::uint64_t>(
                       window * c.conv)) *
                   c.benefitScale;
        };
        for (const std::size_t s : selected)
            total += benefit(candidates[s]);
        total += benefit(candidates[extra]);
        return total;
    };
    while (selected.size() < kDeliMaxSelected) {
        double best = bestTotal;
        std::size_t who = candidates.size();
        for (std::size_t c = 0; c < candidates.size(); ++c) {
            if (chosen[c])
                continue;
            const double total =
                totalBenefit(insSum + candidates[c].insRate, c);
            if (total > best) {
                best = total;
                who = c;
            }
        }
        if (who == candidates.size())
            break;
        chosen[who] = true;
        selected.push_back(who);
        insSum += candidates[who].insRate;
        bestTotal = best;
    }
    if (selected.empty())
        return perAccess;

    const double window = deli_blocks / insSum;
    for (const std::size_t s : selected) {
        const Candidate &c = candidates[s];
        const double perMixMiss =
            c.nextUse.atOrBelow(
                static_cast<std::uint64_t>(window * c.conv)) *
            c.benefitScale;
        // Hits per mix miss -> hits per own access.
        const double a =
            static_cast<double>(cores[c.core].p->llcAccesses) /
            cores[c.core].cycles;
        if (a > 0.0)
            perAccess[c.core] += perMixMiss * totalMissPerCycle / a;
    }
    return perAccess;
}

/**
 * @return the cold (first-touch) rate of the profiled stream in its
 * window's second half — the footprint growth rate at the window's
 * edge, which is the right extrapolation for accesses past it.
 */
double
tailColdRate(const WorkloadProfile &p)
{
    if (p.llcAccesses == 0)
        return 0.0;
    const double half = static_cast<double>(p.llcAccesses) / 2.0;
    const double early = p.coldArrival.countAtOrBelow(
        static_cast<std::uint64_t>(half));
    const double late = static_cast<double>(p.coldAccesses) - early;
    return std::clamp(late / half, 0.0, 1.0);
}

/** Modeled run-alone IPC: private full-capacity LRU at @p hier. */
double
aloneIpcEstimate(const WorkloadProfile &p, double capacity_blocks,
                 const DramConfig &dram, double base_cycles)
{
    if (p.instructions == 0)
        return 0.0;
    const double hits =
        static_cast<double>(p.llcAccesses) *
        p.hitFraction(capacity_blocks);
    const double misses = static_cast<double>(p.llcAccesses) - hits;
    double cycles = std::max(base_cycles, 1.0);
    for (unsigned round = 0; round < kMaxRounds; ++round) {
        const double next =
            base_cycles + misses * dramPenalty(misses / cycles, dram);
        if (std::abs(next - cycles) <= kTolerance * cycles) {
            cycles = next;
            break;
        }
        cycles = 0.5 * (cycles + next);
    }
    return static_cast<double>(p.instructions) / cycles;
}

} // anonymous namespace

bool
estimateSupported(const spec::Spec &policy, std::string &err)
{
    FamilySpec family;
    return resolveFamily(policy, family, err);
}

MixEstimate
estimateMix(const std::vector<ProfilePtr> &profiles,
            const HierarchyConfig &hier,
            const std::string &policy_spec)
{
    spec::Spec policy;
    FamilySpec spec;
    std::string err;
    if (!parsePolicySpec(policy_spec, policy, err) ||
        !resolveFamily(policy, spec, err))
        fatal("estimateMix: ", err);
    if (profiles.empty())
        fatal("estimateMix: no profiles");
    for (const ProfilePtr &p : profiles) {
        if (p == nullptr)
            fatal("estimateMix: null profile");
    }

    const std::uint32_t ways = hier.llc.ways;
    const std::uint64_t sets =
        hier.llc.sizeBytes /
        (static_cast<std::uint64_t>(ways) * hier.llc.blockSize);
    const double totalBlocks =
        static_cast<double>(sets) * static_cast<double>(ways);

    std::uint32_t deliWays = 0;
    if (spec.family == PolicyFamily::NUcache) {
        deliWays = spec.deliWays != 0 ? spec.deliWays : ways * 5 / 8;
        deliWays = std::min(deliWays, ways - 1);
    }
    const double deliBlocks =
        static_cast<double>(sets) * static_cast<double>(deliWays);

    const std::size_t n = profiles.size();
    std::vector<CoreState> cores(n);
    for (std::size_t i = 0; i < n; ++i) {
        CoreState &c = cores[i];
        c.p = profiles[i].get();
        const WorkloadProfile &p = *c.p;
        const double passPenalty =
            static_cast<double>(hier.dram.latency) +
            (p.dramReads != 0
                 ? static_cast<double>(p.dramQueueCycles) /
                       static_cast<double>(p.dramReads)
                 : 0.0);
        c.baseCycles = std::max(
            static_cast<double>(p.instructions),
            static_cast<double>(p.cycles) -
                static_cast<double>(p.llcMisses) * passPenalty);
        // Start the fixed point from the all-miss rates, not the
        // run-alone pass rates.  Contended mixes can be bistable —
        // a cliff workload that keeps its working set resident runs
        // fast enough to hold it, one that lost it runs too slowly
        // to ever get it back — and the simulator's cold cache puts
        // the real system in the pessimistic basin.  Iterating up
        // from all-miss lands in the same basin: hits must be
        // earned, not assumed.
        c.cycles = std::max(
            1.0, c.baseCycles + static_cast<double>(p.llcAccesses) *
                                    passPenalty);
    }

    const bool partitioned = spec.family == PolicyFamily::Ucp ||
                             spec.family == PolicyFamily::Pipp;
    const std::vector<double> partition =
        partitioned ? partitionCapacities(cores, ways, sets)
                    : std::vector<double>();

    std::vector<WindowTable> tabs;
    std::vector<HistView> dists;
    tabs.reserve(n);
    dists.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        tabs.emplace_back(*cores[i].p, HistView(cores[i].p->reuseTime));
        dists.emplace_back(cores[i].p->reuse);
    }

    MixEstimate out;
    auto iterate = [&](bool with_deli, unsigned max_rounds) {
        for (unsigned round = 0; round < max_rounds; ++round) {
            ++out.iterations;
            std::vector<double> deli(n, 0.0);
            if (with_deli && spec.deliAdmission)
                deli = deliHitsPerAccess(cores, deliBlocks);

            // Selective admission makes the DeliWays a pollution
            // *filter*, not just extra LRU depth: the cost-benefit
            // pass admits only PCs whose blocks come back, so a
            // streaming co-runner inserts nothing and cannot age a
            // reused core's demoted blocks out of the FIFO.  Model
            // the deli occupancy as split among cores in proportion
            // to the reuse each would recover with it — the reuses
            // that fit the whole cache but not this core's polluted
            // share of it, weighted by access rate because FIFO
            // residency is contended in time.  (The run-alone pass
            // cannot supply this from its next-use histograms: a
            // workload that fits alone never retires a block, so its
            // profile has no next-use samples for exactly the blocks
            // contention would demote.)
            std::vector<double> shared0(n, 0.0);
            std::vector<double> deliSlice(n, 0.0);
            if (with_deli && spec.deliAdmission && deliBlocks > 0.0 &&
                !partitioned) {
                double recoverSum = 0.0;
                std::vector<double> recover(n, 0.0);
                for (std::size_t i = 0; i < n; ++i) {
                    const WorkloadProfile &p = *cores[i].p;
                    if (p.llcAccesses == 0)
                        continue;
                    shared0[i] =
                        sharedCapacity(cores, tabs, i, totalBlocks);
                    const double gap =
                        p.hitFraction(totalBlocks) -
                        p.hitFraction(shared0[i]);
                    recover[i] =
                        std::max(0.0, gap) *
                        static_cast<double>(p.llcAccesses) /
                        cores[i].cycles;
                    recoverSum += recover[i];
                }
                if (recoverSum > 0.0) {
                    for (std::size_t i = 0; i < n; ++i)
                        deliSlice[i] =
                            deliBlocks * recover[i] / recoverSum;
                }
            }

            for (std::size_t i = 0; i < n; ++i) {
                CoreState &c = cores[i];
                const double accesses =
                    static_cast<double>(c.p->llcAccesses);
                if (accesses == 0.0) {
                    c.hits = c.misses = c.deliHits = 0.0;
                    continue;
                }
                if (spec.family == PolicyFamily::Pipp) {
                    // Pseudo-partition, two retention paths.  Within
                    // this core's allocation the rank stack thrash-
                    // resists: a reuse at stack distance d beyond the
                    // allocation still hits with probability C/d, the
                    // chance its block sits in the stable retained
                    // subset (retainedCount).  And the promotion
                    // ladder — one rank per hit, with the ranks above
                    // every insert height churning only through such
                    // swaps — lets steadily-reused blocks do about as
                    // well as under shared LRU regardless of their
                    // allocation.  Take whichever path keeps more
                    // reuses alive.
                    const double retained =
                        dists[i].retainedCount(partition[i]);
                    const double lruHits =
                        accesses *
                        c.p->hitFraction(sharedCapacity(
                            cores, tabs, i, totalBlocks));
                    c.hits = std::max(retained, lruHits);
                    c.deliHits = 0.0;
                    c.misses = accesses - c.hits;
                    continue;
                }
                double capacity = 0.0;
                if (partitioned) {
                    capacity = partition[i];
                } else {
                    // Shared LRU: the window-pollution model above —
                    // co-runners inject their footprint-capped
                    // distinct blocks into every reuse interval.
                    // NUcache gets the full capacity too: fills land
                    // in the MainWays and the Main-LRU line *demotes*
                    // into the DeliWays FIFO (a hit there promotes it
                    // back), so for ordinary reuse the two regions
                    // jointly behave like a W-way segmented LRU.  The
                    // selection's extra retention beyond LRU depth is
                    // the separate deli term.
                    capacity =
                        shared0[i] > 0.0
                            ? shared0[i]
                            : sharedCapacity(cores, tabs, i,
                                             totalBlocks);
                    // Second capacity path via the filtered deli:
                    // the polluted MainWays share plus this core's
                    // own slice of the FIFO.  When window pollution
                    // collapses the joint-LRU capacity below a cliff
                    // workload's reuse distances, its demoted blocks
                    // still survive in the reserved slice — the
                    // paper's headline rescue (the exact simulator
                    // shows LRU thrashing to zero on the same mix
                    // NUcache serves at full reuse).  The better
                    // path carries the reuses.
                    if (deliSlice[i] > 0.0) {
                        const double seg =
                            sharedCapacity(cores, tabs, i,
                                           totalBlocks - deliBlocks) +
                            deliSlice[i];
                        capacity = std::max(capacity, seg);
                    }
                }
                c.hits = accesses * c.p->hitFraction(capacity);
                const double hittable =
                    accesses -
                    static_cast<double>(c.p->coldAccesses);
                c.deliHits = std::min(deli[i] * accesses,
                                      hittable - c.hits);
                c.deliHits = std::max(0.0, c.deliHits);
                c.misses = accesses - c.hits - c.deliHits;
            }

            double missPerCycle = 0.0;
            for (const CoreState &c : cores)
                missPerCycle += c.misses / c.cycles;
            const double penalty =
                dramPenalty(missPerCycle, hier.dram);

            double worstDelta = 0.0;
            for (CoreState &c : cores) {
                const double next =
                    c.baseCycles + c.misses * penalty;
                worstDelta = std::max(
                    worstDelta, std::abs(next - c.cycles) / c.cycles);
                c.cycles = 0.5 * (c.cycles + next);
            }
            if (worstDelta <= kTolerance)
                break;
        }
    };
    iterate(false, kMaxRounds);
    if (spec.family == PolicyFamily::NUcache && deliWays != 0)
        iterate(true, kDeliRounds);

    // The mix runs until the slowest core finishes its window; the
    // faster cores keep executing (and keep counting stats) in the
    // meantime.  Model that overtime stream: its first-touch rate is
    // the footprint's tail growth rate, and its reuses hit at the
    // window's non-cold hit ratio.
    double endCycles = 0.0;
    for (const CoreState &c : cores)
        endCycles = std::max(endCycles, c.cycles);

    std::vector<double> ipcShared, ipcAlone;
    double totalAccesses = 0.0, totalHits = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const CoreState &c = cores[i];
        const WorkloadProfile &p = *c.p;
        CoreEstimate core;
        core.workload = p.workload;
        core.ipc = p.instructions != 0
                       ? static_cast<double>(p.instructions) / c.cycles
                       : 0.0;
        core.ipcAlone = aloneIpcEstimate(p, totalBlocks, hier.dram,
                                         c.baseCycles);
        const double accesses = static_cast<double>(p.llcAccesses);
        const double overtime =
            c.cycles > 0.0
                ? accesses * (endCycles / c.cycles - 1.0)
                : 0.0;
        const double reused =
            accesses - static_cast<double>(p.coldAccesses);
        const double reuseHitRatio =
            reused > 0.0 ? (c.hits + c.deliHits) / reused : 0.0;
        const double otHits =
            overtime * (1.0 - tailColdRate(p)) * reuseHitRatio;
        const double otDeli =
            c.hits + c.deliHits > 0.0
                ? otHits * c.deliHits / (c.hits + c.deliHits)
                : 0.0;
        const double total = accesses + overtime;
        core.llcAccesses = total;
        core.llcMisses = c.misses + overtime - otHits;
        core.hitRate =
            total > 0.0 ? (c.hits + c.deliHits + otHits) / total : 0.0;
        core.missRate = total > 0.0 ? core.llcMisses / total : 0.0;
        core.deliHitRate =
            total > 0.0 ? (c.deliHits + otDeli) / total : 0.0;
        totalAccesses += total;
        totalHits += c.hits + c.deliHits + otHits;
        ipcShared.push_back(core.ipc);
        ipcAlone.push_back(core.ipcAlone);
        out.cores.push_back(std::move(core));
    }
    out.llcHitRate =
        totalAccesses > 0.0 ? totalHits / totalAccesses : 0.0;
    out.weightedSpeedup = weightedSpeedup(ipcShared, ipcAlone);
    out.hmeanSpeedup = hmeanSpeedup(ipcShared, ipcAlone);
    out.antt = antt(ipcShared, ipcAlone);
    out.fairness = fairness(ipcShared, ipcAlone);
    return out;
}

} // namespace nucache::model
