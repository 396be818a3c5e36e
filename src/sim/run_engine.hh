/**
 * @file
 * The parallel experiment engine.  Replaces the old single-threaded
 * ExperimentHarness: the same memoized run-alone baselines and
 * one-call mix evaluation, but thread-safe, with (mix x policy) grids
 * enumerated as jobs on a fixed-size pool.
 *
 * Determinism: each simulation is a pure function of its (workload,
 * policy, hierarchy, window) inputs, every job writes only its own
 * preallocated result slot, and grids are reassembled in submission
 * order — so a grid run with N threads is bit-identical to the serial
 * run.  The run-alone IPC cache uses per-key once-semantics (a
 * shared_future per key): concurrent submissions of the same baseline
 * block on the first runner instead of duplicating it.
 */

#ifndef NUCACHE_SIM_RUN_ENGINE_HH
#define NUCACHE_SIM_RUN_ENGINE_HH

#include <atomic>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "check/check_mode.hh"
#include "common/thread_pool.hh"
#include "sim/experiment.hh"
#include "sim/mixes.hh"
#include "sim/system.hh"

namespace nucache
{

/** One (mix x policy) cell of a finished grid. */
struct GridCell
{
    /** Weighted speedup normalized to the grid baseline on this mix. */
    double normWs = 0.0;
    MixResult result;
    /**
     * Wall-clock of the cell's simulation job, in ns on the tracer's
     * clock.  Timing is observability-only: it is surfaced on stderr
     * and in the event trace but never enters the bench JSON, which
     * must stay bit-identical across --jobs widths.
     */
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    /** Stable 1-based id of the worker thread that ran the job. */
    unsigned worker = 0;

    /** @return the job's wall-clock duration in nanoseconds. */
    std::uint64_t durationNs() const { return endNs - startNs; }
};

/** A finished (mix x policy) grid, rows and columns in request order. */
struct GridRun
{
    std::vector<std::string> mixNames;
    std::vector<std::string> policies;
    /** Baseline policy the normWs cells are normalized to. */
    std::string baseline;
    /** cells[mix][policy], in mixNames x policies order. */
    std::vector<std::vector<GridCell>> cells;
    /** The baseline run per mix (shared with cells when listed). */
    std::vector<MixResult> baselineRuns;
};

/**
 * Runs experiments with memoized run-alone baselines, optionally in
 * parallel.  All public member functions are thread-safe; one engine
 * per bench binary.
 */
class RunEngine
{
  public:
    /**
     * Observer for grid/parallelFor progress; invoked as (done,
     * total) after each finished job.  Calls are serialized by the
     * engine, but arrive on worker threads.
     */
    using ProgressFn = std::function<void(std::size_t, std::size_t)>;

    /**
     * @param records_per_core measurement window per program.
     * @param jobs worker threads for grid execution (clamped to >= 1).
     * @param check_invariants run every simulation under the runtime
     *        invariant checker (--check); defaults to the process-wide
     *        check mode (see check/check_mode.hh).
     */
    explicit RunEngine(std::uint64_t records_per_core, unsigned jobs = 1,
                       bool check_invariants = check::enabled());

    /**
     * @return IPC of @p workload running alone under LRU on the LLC of
     * @p hier.  Memoized on (workload, window, hierarchyKey() of the
     * one-core config); each distinct baseline is simulated exactly
     * once, even when requested from many threads at once.
     */
    double aloneIpc(const std::string &workload,
                    const HierarchyConfig &hier);

    /** Run one mix under one policy; fills every derived metric. */
    MixResult runMix(const WorkloadMix &mix,
                     const std::string &policy_spec,
                     const HierarchyConfig &hier);

    /**
     * Asynchronously run one externally submitted (mix, policy) cell
     * on the pool and invoke @p done with the finished result (from a
     * worker thread).  This is the entry point the serve layer's
     * dispatcher batches requests through: every cell submitted this
     * way shares the engine's trace arena cursors and run-alone IPC
     * cache with every other consumer of the engine.  Pair with
     * waitIdle() to form a batch barrier.
     */
    void submitMix(const WorkloadMix &mix, const std::string &policy_spec,
                   const HierarchyConfig &hier,
                   std::function<void(MixResult)> done);

    /** Block until every submitted job has finished executing. */
    void waitIdle();

    /**
     * Run one workload alone under an arbitrary policy (single-core
     * experiments, Figure 3).
     */
    SystemResult runSingle(const std::string &workload,
                           const std::string &policy_spec,
                           const HierarchyConfig &hier);

    /**
     * Enumerate (mix x policy) cells as jobs, execute them on the
     * pool, and reassemble in submission order.  Cells are normalized
     * to @p baseline on the same mix; when @p baseline is not one of
     * @p policies it still runs (once per mix) but gets no column.
     */
    GridRun runGrid(const HierarchyConfig &hier,
                    const std::vector<WorkloadMix> &mixes,
                    const std::vector<std::string> &policies,
                    const std::string &baseline = "lru",
                    const ProgressFn &progress = {});

    /**
     * Run fn(0) .. fn(n-1) on the pool and block until done (for
     * benches whose job shape is not a policy grid).  @p fn must only
     * write state owned by its index.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn,
                     const ProgressFn &progress = {});

    /** @return the measurement window. */
    std::uint64_t recordsPerCore() const { return records; }

    /** @return the worker-thread count. */
    unsigned jobs() const { return pool.size(); }

    /** @return how many run-alone baselines were actually simulated. */
    std::uint64_t aloneRunCount() const
    {
        return aloneRuns.load(std::memory_order_relaxed);
    }

  private:
    std::uint64_t records;
    bool checkFlag;
    ThreadPool pool;

    std::mutex aloneMtx;
    std::map<std::string, std::shared_future<double>> aloneCache;
    std::atomic<std::uint64_t> aloneRuns{0};
};

} // namespace nucache

#endif // NUCACHE_SIM_RUN_ENGINE_HH
