/**
 * @file
 * The analytical half of the estimate tier: map workload profiles
 * (profile.hh) + an LLC geometry + a policy family onto estimated
 * per-core hit rates, miss rates and IPC — without simulating.
 *
 * Model (DESIGN.md "Estimate tier" derives the equations):
 *
 *  - Shared-LRU families (lru, nru, nucache MainWays): window
 *    pollution.  A reuse of core i at stack distance d hits iff
 *    d plus the distinct blocks every co-runner inserts while core i
 *    issues the n = coverAccesses_i(d) accesses between the two
 *    touches still fits:  d + sum_{j!=i} distinct_j(n * r_j / r_i)
 *    <= C, with r_k the cores' access rates in the current
 *    fixed-point round.  The largest surviving d is the core's
 *    effective capacity; hits_i = A_i * H_i(C_eff) via the profile's
 *    reuse CDF.  distinct_j and cover_j come straight from the
 *    profiles' time-distance histograms and are tabulated once per
 *    profile on a geometric grid (tables.hh's WindowTable), so the
 *    capacity search is O(1) interpolated lookups, not histogram
 *    walks; each core's search resumes where its previous round's
 *    ended and interpolates the overflow to its zero.
 *  - Partitioned families (ucp, pipp): greedy marginal-utility way
 *    allocation (UCP's lookahead) over the same CDFs; no inflation
 *    inside a private partition.  This is UCP's steady state — the
 *    UMON-observe/epoch-grant/refill transient of short runs is
 *    deliberately not modeled (see bench_estimate.cc for why that
 *    family carries a loose error bound).
 *  - NUcache: the shared-LRU model over all W*sets blocks, plus the
 *    DeliWays as a *pollution filter*: cost-benefit admission keeps
 *    streaming co-runners out of the FIFO, so cores whose reuses die
 *    to pollution (H_i(C_total) > H_i(C_eff)) split the D*sets
 *    filtered blocks in proportion to their recoverable reuse rate,
 *    and each such core's capacity is at least
 *    sharedCapacity(C - D*sets) + its slice.  A per-PC next-use CDF
 *    replay of the paper's selection adds the retention-window term
 *    for blocks the monitor actually saw retire and return.
 *  - Cycles close the loop: cycles_i = base_i + misses_i * penalty,
 *    where base_i is the profile's cycles with its own miss stalls
 *    removed and penalty models DRAM latency plus an M/D/1 queueing
 *    term of the mix's combined miss bandwidth.  Access rates feed
 *    capacities feed misses feed cycles, so the whole thing iterates
 *    to a fixed point (a handful of rounds in practice).  The
 *    iteration starts from all-miss cycles: contended mixes are
 *    bistable, and the cold-cache simulator lands in the pessimistic
 *    basin, so the model must climb up from it too.
 *
 * Everything here is pure arithmetic over immutable profiles:
 * deterministic, thread-safe, and fast enough to answer inline on
 * the server's event loop: bench_estimate's full sweep measures a
 * median of 15 / 40 / 131 us per warm 2- / 4- / 8-core mix on a
 * 4-thread host (EXPERIMENTS.md, M2).
 */

#ifndef NUCACHE_MODEL_PREDICTOR_HH
#define NUCACHE_MODEL_PREDICTOR_HH

#include <string>
#include <vector>

#include "common/spec.hh"
#include "mem/hierarchy.hh"
#include "model/profile.hh"

namespace nucache::model
{

/**
 * Can the estimate tier model @p policy (parsed by parsePolicySpec)?
 * Every nucache variant but nucache-adaptive is one NUcache family
 * (its `d=` key honoured).
 * @param err on failure, names the unsupported family.
 */
bool estimateSupported(const spec::Spec &policy, std::string &err);

/** Per-core output of the model. */
struct CoreEstimate
{
    std::string workload;
    double ipc = 0.0;
    /** Modeled run-alone IPC at the same geometry (LRU, private). */
    double ipcAlone = 0.0;
    /** LLC demand hit/miss fractions. */
    double hitRate = 0.0;
    double missRate = 0.0;
    /** Expected demand access/miss counts over the window. */
    double llcAccesses = 0.0;
    double llcMisses = 0.0;
    /** NUcache only: fraction of accesses saved by the DeliWays. */
    double deliHitRate = 0.0;
};

/** Whole-mix output of the model. */
struct MixEstimate
{
    std::vector<CoreEstimate> cores;
    double weightedSpeedup = 0.0;
    double hmeanSpeedup = 0.0;
    double antt = 0.0;
    double fairness = 0.0;
    /** Aggregate LLC hit fraction across the mix. */
    double llcHitRate = 0.0;
    /** Fixed-point rounds until convergence (diagnostics). */
    unsigned iterations = 0;
};

/**
 * Evaluate the model.  @p profiles holds one profile per core (all
 * collected at the same window); @p policy_spec must satisfy
 * estimateSupported() — callers validate first, this fatal()s on an
 * unsupported family like the rest of the simulation layer does on
 * impossible inputs.
 */
MixEstimate estimateMix(const std::vector<ProfilePtr> &profiles,
                        const HierarchyConfig &hier,
                        const std::string &policy_spec);

} // namespace nucache::model

#endif // NUCACHE_MODEL_PREDICTOR_HH
