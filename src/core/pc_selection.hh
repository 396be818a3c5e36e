/**
 * @file
 * The cost-benefit PC-selection algorithm: the decision half of
 * NUcache.
 *
 * Given the DeliWays capacity C (blocks) and per-PC next-use profiles,
 * choose the subset S of delinquent PCs whose blocks enter the
 * DeliWays so that expected DeliWay hits are maximized.
 *
 * The tension the algorithm balances (the paper's "cost-benefit
 * analysis"): blocks in the DeliWays are retired FIFO, so a block
 * survives exactly C subsequent *selected-PC insertions*.  A PC's
 * candidate hits are its next-uses that fall inside that retention
 * window — but adding a PC to S raises the insertion rate, which
 * shrinks the window *for every member of S*.  Selecting everything
 * floods the FIFO and captures nothing; selecting too little wastes
 * capacity.
 *
 * With f(S) = fraction of all misses allocated by S, the retention
 * window expressed in whole-cache miss counts (the unit of the
 * monitor's histograms) is  W(S) = C / f(S),  and the expected hits
 * are  B(S) = sum over p in S of  H_p(W(S))  where H_p is PC p's
 * cumulative next-use histogram.  B is neither monotone nor
 * submodular; we use greedy ascent over the top-k delinquent PCs with
 * full window recomputation per step, which recovers the optimum for
 * the homogeneous-loop structure that dominates in practice and is
 * cheap enough for hardware firmware: each candidate's cumulative
 * histogram is built once per run and the insertion sum is kept
 * incrementally, so a flip costs one O(1) CDF probe per member.
 */

#ifndef NUCACHE_CORE_PC_SELECTION_HH
#define NUCACHE_CORE_PC_SELECTION_HH

#include <cstdint>
#include <vector>

#include "core/next_use_monitor.hh"

namespace nucache
{

/** Tunables of the selection algorithm. */
struct PcSelectionConfig
{
    /** Candidate pool: top-k delinquent PCs considered. */
    std::uint32_t candidatePcs = 32;
    /** Upper bound on |S| (paper's PC-pointer storage budget). */
    std::uint32_t maxSelected = 32;
};

/** Outcome of one selection run. */
struct SelectionResult
{
    /** Chosen PCs (DeliWays admission list). */
    std::vector<PC> selected;
    /** Expected DeliWay hits per epoch under the model. */
    double expectedHits = 0.0;
    /** Retention window of the chosen set, in whole-cache misses. */
    double window = 0.0;
};

/**
 * Run the cost-benefit selection.
 *
 * @param candidates delinquent-PC profiles (see NextUseMonitor);
 *                    `misses` fields must share one scale.
 * @param deli_capacity_blocks total DeliWays capacity, in blocks.
 * @param total_misses total misses in the same scale as the
 *                    candidates' `misses` fields.
 * @param cfg         pool/size limits.
 */
SelectionResult
selectDelinquentPcs(const std::vector<PcProfile> &candidates,
                    std::uint64_t deli_capacity_blocks,
                    std::uint64_t total_misses,
                    const PcSelectionConfig &cfg = PcSelectionConfig{},
                    const std::vector<PC> &previous = {});

/**
 * Baseline selector for the ablation study: ignore next-use entirely
 * and admit the @p k most delinquent PCs.
 */
SelectionResult
selectTopKByMisses(const std::vector<PcProfile> &candidates,
                   std::uint32_t k);

} // namespace nucache

#endif // NUCACHE_CORE_PC_SELECTION_HH
