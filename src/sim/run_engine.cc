#include "sim/run_engine.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "obs/tracer.hh"
#include "sim/metrics.hh"
#include "sim/policies.hh"
#include "trace/arena.hh"

namespace nucache
{

RunEngine::RunEngine(std::uint64_t records_per_core, unsigned jobs,
                     bool check_invariants)
    : records(records_per_core), checkFlag(check_invariants), pool(jobs)
{
    if (records == 0)
        fatal("RunEngine: zero records per core");
}

double
RunEngine::aloneIpc(const std::string &workload,
                    const HierarchyConfig &hier)
{
    // Run-alone baseline: the whole LLC, LRU management, one core.
    // The key names every field of that config, so hierarchy variants
    // sharing one engine (L2, inclusion, prefetch, defense) never
    // share a baseline.
    HierarchyConfig alone = hier;
    alone.numCores = 1;
    const std::string key = workload + "|" + std::to_string(records) +
        "|" + hierarchyKey(alone);

    std::promise<double> promise;
    std::shared_future<double> future;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(aloneMtx);
        const auto it = aloneCache.find(key);
        if (it != aloneCache.end()) {
            future = it->second;
        } else {
            // First requester becomes the owner; everyone else who
            // races in blocks on the shared future below.
            future = promise.get_future().share();
            aloneCache.emplace(key, future);
            owner = true;
        }
    }
    if (!owner)
        return future.get();

    obs::TraceSpan span(obs::Tracer::active() ? "alone " + workload
                                              : std::string(),
                        "engine");

    std::vector<TraceSourcePtr> traces;
    traces.push_back(TraceArena::instance().open(workload));
    System sys(alone, makePolicy("lru"), std::move(traces), records,
               checkFlag);
    sys.setTelemetryLabel("alone/" + workload);
    const SystemResult res = sys.run();
    const double ipc = res.cores.at(0).ipc;
    aloneRuns.fetch_add(1, std::memory_order_relaxed);
    promise.set_value(ipc);
    return ipc;
}

MixResult
RunEngine::runMix(const WorkloadMix &mix, const std::string &policy_spec,
                  const HierarchyConfig &hier)
{
    if (mix.workloads.size() != hier.numCores)
        fatal("mix '", mix.name, "' has ", mix.workloads.size(),
              " programs for ", hier.numCores, " cores");

    obs::TraceSpan span(obs::Tracer::active()
                            ? "cell " + mix.name + "/" + policy_spec
                            : std::string(),
                        "engine");

    // Grid cells replay shared arena buffers through cheap cursors
    // instead of regenerating the synthetic stream per cell.
    std::vector<TraceSourcePtr> traces;
    traces.reserve(mix.workloads.size());
    for (const auto &w : mix.workloads)
        traces.push_back(TraceArena::instance().open(w));

    System sys(hier, makePolicy(policy_spec), std::move(traces), records,
               checkFlag);
    sys.setTelemetryLabel(mix.name + "/" + policy_spec);

    MixResult out;
    out.mixName = mix.name;
    out.policy = policy_spec;
    out.system = sys.run();

    std::vector<double> shared;
    shared.reserve(out.system.cores.size());
    for (const auto &core : out.system.cores)
        shared.push_back(core.ipc);
    out.ipcAlone.reserve(mix.workloads.size());
    for (const auto &w : mix.workloads)
        out.ipcAlone.push_back(aloneIpc(w, hier));

    out.weightedSpeedup = nucache::weightedSpeedup(shared, out.ipcAlone);
    out.hmeanSpeedup = nucache::hmeanSpeedup(shared, out.ipcAlone);
    out.antt = nucache::antt(shared, out.ipcAlone);
    out.fairness = nucache::fairness(shared, out.ipcAlone);
    return out;
}

void
RunEngine::submitMix(const WorkloadMix &mix,
                     const std::string &policy_spec,
                     const HierarchyConfig &hier,
                     std::function<void(MixResult)> done)
{
    // Copy the inputs into the job: externally submitted cells (the
    // serve layer's requests) outlive no caller stack frame.
    pool.submit([this, mix, policy_spec, hier,
                 done = std::move(done)] {
        done(runMix(mix, policy_spec, hier));
    });
}

void
RunEngine::waitIdle()
{
    pool.wait();
}

SystemResult
RunEngine::runSingle(const std::string &workload,
                     const std::string &policy_spec,
                     const HierarchyConfig &hier)
{
    obs::TraceSpan span(obs::Tracer::active()
                            ? "single " + workload + "/" + policy_spec
                            : std::string(),
                        "engine");

    HierarchyConfig single = hier;
    single.numCores = 1;
    std::vector<TraceSourcePtr> traces;
    traces.push_back(TraceArena::instance().open(workload));
    System sys(single, makePolicy(policy_spec), std::move(traces),
               records, checkFlag);
    sys.setTelemetryLabel("single/" + workload + "/" + policy_spec);
    return sys.run();
}

GridRun
RunEngine::runGrid(const HierarchyConfig &hier,
                   const std::vector<WorkloadMix> &mixes,
                   const std::vector<std::string> &policies,
                   const std::string &baseline,
                   const ProgressFn &progress)
{
    // One job per (mix, spec); the baseline gets its own job per mix
    // only when it is not already a column.
    std::vector<std::string> specs = policies;
    const auto base_it =
        std::find(policies.begin(), policies.end(), baseline);
    const std::size_t base_idx =
        static_cast<std::size_t>(base_it - policies.begin());
    if (base_it == policies.end())
        specs.push_back(baseline);

    std::vector<std::vector<MixResult>> results(
        mixes.size(), std::vector<MixResult>(specs.size()));

    // Wall-clock per cell job, kept apart from the MixResults so the
    // deterministic payload never carries timing.
    struct JobClock
    {
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
        unsigned worker = 0;
    };
    std::vector<std::vector<JobClock>> clocks(
        mixes.size(), std::vector<JobClock>(specs.size()));

    const std::size_t total = mixes.size() * specs.size();
    std::mutex progressMtx;
    std::size_t done = 0;
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        for (std::size_t s = 0; s < specs.size(); ++s) {
            pool.submit([this, &results, &clocks, &mixes, &specs, &hier,
                         &progress, &progressMtx, &done, total, m, s] {
                const obs::Tracer &tracer = obs::Tracer::instance();
                JobClock &clock = clocks[m][s];
                clock.worker = ThreadPool::currentThreadId();
                clock.startNs = tracer.nowNs();
                results[m][s] = runMix(mixes[m], specs[s], hier);
                clock.endNs = tracer.nowNs();
                if (progress) {
                    std::lock_guard<std::mutex> lock(progressMtx);
                    progress(++done, total);
                }
            });
        }
    }
    pool.wait();

    GridRun out;
    out.baseline = baseline;
    out.policies = policies;
    out.mixNames.reserve(mixes.size());
    out.baselineRuns.reserve(mixes.size());
    out.cells.resize(mixes.size());
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        out.mixNames.push_back(mixes[m].name);
        const double base_ws = results[m][base_idx].weightedSpeedup;
        if (base_ws <= 0.0)
            fatal("grid baseline '", baseline, "' has non-positive ",
                  "weighted speedup on mix '", mixes[m].name, "'");
        // The baseline record is exposed twice when it is also a grid
        // column; copy it out before the column move below.  A
        // baseline that only ran as the extra per-mix job is moved.
        if (base_it != policies.end())
            out.baselineRuns.push_back(results[m][base_idx]);
        else
            out.baselineRuns.push_back(std::move(results[m][base_idx]));
        out.cells[m].reserve(policies.size());
        for (std::size_t p = 0; p < policies.size(); ++p) {
            GridCell cell;
            cell.result = std::move(results[m][p]);
            cell.normWs = cell.result.weightedSpeedup / base_ws;
            cell.startNs = clocks[m][p].startNs;
            cell.endNs = clocks[m][p].endNs;
            cell.worker = clocks[m][p].worker;
            out.cells[m].push_back(std::move(cell));
        }
    }
    return out;
}

void
RunEngine::parallelFor(std::size_t n,
                       const std::function<void(std::size_t)> &fn,
                       const ProgressFn &progress)
{
    std::mutex progressMtx;
    std::size_t done = 0;
    pool.parallelFor(n, [&](std::size_t i) {
        fn(i);
        if (progress) {
            std::lock_guard<std::mutex> lock(progressMtx);
            progress(++done, n);
        }
    });
}

} // namespace nucache
