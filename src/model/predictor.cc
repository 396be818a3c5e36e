#include "model/predictor.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "model/tables.hh"
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

/**
 * Cost-benefit replay limit (mirrors PcSelectionConfig's spirit); the
 * per-core candidate count is tables.hh's kDeliCandidatesPerCore.
 */
constexpr std::size_t kDeliMaxSelected = 16;

/** Policy families the analytical model covers. */
enum class PolicyFamily
{
    Lru,
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
    // NRU's one-bit recency approximates LRU's stack; the model has
    // no separate NRU term, so nru is estimated as lru.
    if (name == "lru" || name == "nru") {
        out.family = PolicyFamily::Lru;
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
    const ModelTables *t = nullptr;
    /** Cycles with the pass's own LLC-miss stalls removed. */
    double baseCycles = 0.0;
    double cycles = 0.0;
    /** LLC accesses per cycle at this round's cycles. */
    double rate = 0.0;
    double hits = 0.0;
    double deliHits = 0.0;
    double misses = 0.0;
    /**
     * Where sharedCapacity() resumes for the whole cache and for the
     * MainWays share (NUcache's filtered-deli path).
     */
    GridCursor atTotal;
    GridCursor atMain;
};

/**
 * Effective LRU depth of core @p i in a shared cache of @p shared
 * blocks: the largest own stack distance d that still hits once the
 * distinct blocks every co-runner drags through the cache during the
 * same wall-clock interval stack on top of it.  The co-runner windows
 * scale by the access-rate ratio; their pollution is footprint-capped
 * (distinctBlocks), which is what gives cache-friendly cores the
 * negative feedback a bare proportional-share model lacks.
 *
 * d is resolved on the grid shared * k / 2^20 (well under a block for
 * any geometry the server accepts).  Each round moves a core's rates
 * only a little, so the search resumes from @p cursor, where the
 * core's previous search at this @p shared ended.
 */
double
sharedCapacity(const std::vector<CoreState> &cores, std::size_t i,
               double shared, GridCursor &cursor)
{
    const double rate_i = cores[i].rate;
    if (rate_i <= 0.0)
        return shared;
    const WindowTable &own = cores[i].t->window;
    const double unit =
        std::ldexp(shared, -static_cast<int>(kCapacityGridBits));
    // How far a reuse at distance k * unit, plus every co-runner's
    // pollution over the same interval, overflows the cache; > 0 is a
    // miss.
    const auto excess = [&](std::uint32_t k) -> double {
        const double d = static_cast<double>(k) * unit;
        const double n = own.cover(d);
        if (!std::isfinite(n))
            return std::numeric_limits<double>::infinity();
        double sum = d;
        for (std::size_t j = 0; j < cores.size(); ++j) {
            if (j != i)
                sum += cores[j].t->window.distinct(n * cores[j].rate /
                                                   rate_i);
        }
        return sum - shared;
    };
    const std::uint32_t k = searchCapacityGrid(cursor, excess);
    if (k == kCapacityGrid)
        return shared;
    // Distances <= k * unit hit; hitFraction(capacity) counts d <
    // capacity.
    return static_cast<double>(k) * unit + 1.0;
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
 * Replay of the paper's cost-benefit PC selection on the profiles'
 * next-use CDFs: the expected DeliWays hits per access, per core.
 * Distances live in each profile's own pass-miss units; they convert
 * to mix-miss units through the current access and miss rates (a
 * co-runner's misses age the FIFO too).  The candidates and the
 * greedy's scratch are gathered once per estimateMix() call; each
 * round only rescales them.
 */
class DeliReplay
{
  public:
    explicit DeliReplay(const std::vector<CoreState> &cores)
        : perCore(cores.size())
    {
        for (std::size_t i = 0; i < cores.size(); ++i) {
            const WorkloadProfile &p = *cores[i].p;
            if (p.monitorMisses == 0 || p.llcAccesses == 0 ||
                p.llcMisses == 0)
                continue;
            const std::vector<LogHistogramCdf> &cdfs =
                cores[i].t->nextUse;
            for (std::size_t k = 0; k < cdfs.size(); ++k) {
                const LogHistogram &h = p.pcs[k].nextUse;
                if (h.total() == 0)
                    continue;
                if (perCore[i].layout == nullptr)
                    perCore[i].layout = &h;
                if (!h.sameLayout(*perCore[i].layout))
                    panic("estimateMix: next-use histograms differ in "
                          "layout");
                Candidate c;
                c.core = i;
                c.nextUse = &cdfs[k];
                c.retires = static_cast<double>(p.pcs[k].retires);
                candidates.push_back(c);
            }
        }
        chosen.reserve(candidates.size());
        selected.reserve(kDeliMaxSelected);
    }

    /** Fill @p per_access with this round's DeliWays hits per access. */
    void
    hitsPerAccess(const std::vector<CoreState> &cores, double deli_blocks,
                  std::vector<double> &per_access)
    {
        std::fill(per_access.begin(), per_access.end(), 0.0);
        double totalMissPerCycle = 0.0;
        for (const CoreState &c : cores)
            totalMissPerCycle += c.misses / c.cycles;
        if (totalMissPerCycle <= 0.0 || deli_blocks <= 0.0 ||
            candidates.empty())
            return;

        for (std::size_t i = 0; i < cores.size(); ++i) {
            if (perCore[i].layout == nullptr)
                continue;
            const WorkloadProfile &p = *cores[i].p;
            const double a =
                static_cast<double>(p.llcAccesses) / cores[i].cycles;
            const double passMissRate =
                static_cast<double>(p.llcMisses) /
                static_cast<double>(p.llcAccesses);
            perCore[i].conv = a * passMissRate / totalMissPerCycle;
            const double missShare =
                (cores[i].misses / cores[i].cycles) / totalMissPerCycle;
            perCore[i].perMonitorMiss =
                missShare / static_cast<double>(p.monitorMisses);
        }
        for (Candidate &c : candidates) {
            c.insRate = std::max(
                1e-9, c.retires * perCore[c.core].perMonitorMiss);
        }

        // Greedy ascent with full window recomputation, exactly as the
        // policy's firmware does: adding a PC shrinks the retention
        // window  T = C / f(S)  for every member of S.
        chosen.assign(candidates.size(), false);
        selected.clear();
        double insSum = 0.0;
        double bestTotal = 0.0;
        auto totalBenefit = [&](double ins_sum,
                                std::size_t extra) -> double {
            setWindow(deli_blocks / ins_sum);
            double total = 0.0;
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
            return;

        setWindow(deli_blocks / insSum);
        for (const std::size_t s : selected) {
            const Candidate &c = candidates[s];
            const double perMixMiss = benefit(c);
            // Hits per mix miss -> hits per own access.
            const double a =
                static_cast<double>(cores[c.core].p->llcAccesses) /
                cores[c.core].cycles;
            if (a > 0.0)
                per_access[c.core] += perMixMiss * totalMissPerCycle / a;
        }
    }

  private:
    struct Candidate
    {
        std::size_t core = 0;
        /** The PC's next-use CDF, from its profile's tables. */
        const LogHistogramCdf *nextUse = nullptr;
        /** Sampled MainWays retirements of the PC's blocks. */
        double retires = 0.0;
        /** DeliWays insertions per mix miss if selected. */
        double insRate = 0.0;
    };

    /** Per-core scaling, and the current window's limit split once. */
    struct CoreScale
    {
        /** Bucket layout shared by the core's next-use histograms. */
        const LogHistogram *layout = nullptr;
        /** Pass-miss distance units per mix miss. */
        double conv = 0.0;
        /** Scale from covered sampled next-uses to mix-miss units. */
        double perMonitorMiss = 0.0;
        LogHistogram::Split split;
        /** windowSerial the split was taken at. */
        std::uint64_t splitSerial = 0;
    };

    /**
     * Evaluate a retention window of @p window mix misses next: each
     * core's limit is split on first use, then shared by every
     * candidate of that core.
     */
    void
    setWindow(double window)
    {
        currentWindow = window;
        ++windowSerial;
    }

    /** @return the candidate's covered next-uses in mix-miss units. */
    double
    benefit(const Candidate &c)
    {
        CoreScale &core = perCore[c.core];
        if (core.splitSerial != windowSerial) {
            core.split = core.layout->splitAt(
                static_cast<std::uint64_t>(currentWindow * core.conv));
            core.splitSerial = windowSerial;
        }
        return c.nextUse->at(core.split) * core.perMonitorMiss;
    }

    std::vector<CoreScale> perCore;
    std::vector<Candidate> candidates;
    std::vector<bool> chosen;
    std::vector<std::size_t> selected;
    double currentWindow = 0.0;
    std::uint64_t windowSerial = 0;
};

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
        c.t = &c.p->tables();
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

    MixEstimate out;
    DeliReplay replay(cores);
    std::vector<double> deli(n), shared0(n), deliSlice(n), recover(n);
    auto iterate = [&](bool with_deli, unsigned max_rounds) {
        for (unsigned round = 0; round < max_rounds; ++round) {
            ++out.iterations;
            for (CoreState &c : cores)
                c.rate = static_cast<double>(c.p->llcAccesses) / c.cycles;
            if (with_deli && spec.deliAdmission)
                replay.hitsPerAccess(cores, deliBlocks, deli);
            else
                std::fill(deli.begin(), deli.end(), 0.0);

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
            std::fill(shared0.begin(), shared0.end(), 0.0);
            std::fill(deliSlice.begin(), deliSlice.end(), 0.0);
            if (with_deli && spec.deliAdmission && deliBlocks > 0.0 &&
                !partitioned) {
                double recoverSum = 0.0;
                std::fill(recover.begin(), recover.end(), 0.0);
                for (std::size_t i = 0; i < n; ++i) {
                    const WorkloadProfile &p = *cores[i].p;
                    if (p.llcAccesses == 0)
                        continue;
                    shared0[i] = sharedCapacity(cores, i, totalBlocks,
                                                cores[i].atTotal);
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
                        c.t->reuse.retainedCount(partition[i]);
                    const double lruHits =
                        accesses *
                        c.p->hitFraction(sharedCapacity(
                            cores, i, totalBlocks, c.atTotal));
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
                            : sharedCapacity(cores, i, totalBlocks,
                                             c.atTotal);
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
                            sharedCapacity(cores, i,
                                           totalBlocks - deliBlocks,
                                           c.atMain) +
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
            overtime * (1.0 - c.t->tailColdRate) * reuseHitRatio;
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
