/**
 * @file
 * The multicore system driver: cores over a shared hierarchy,
 * interleaved by local time, with the first-wrap measurement
 * methodology (each core's statistics freeze once it completes its
 * target record count; it keeps executing to preserve cache pressure
 * until every core has finished measuring).
 */

#ifndef NUCACHE_SIM_SYSTEM_HH
#define NUCACHE_SIM_SYSTEM_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/check_mode.hh"
#include "check/checker.hh"
#include "common/json.hh"
#include "common/stats.hh"
#include "mem/hierarchy.hh"
#include "obs/telemetry.hh"
#include "sim/cpu.hh"
#include "trace/trace.hh"

namespace nucache
{

/** Per-core results of a finished run. */
struct CoreResult
{
    std::string workload;
    double ipc = 0.0;
    std::uint64_t instructions = 0;
    Cycles cycles = 0;
    /** Demand accesses / misses at each level, measured at the end. */
    CacheCoreStats l1;
    CacheCoreStats llc;
};

/** Results of a finished run. */
struct SystemResult
{
    std::vector<CoreResult> cores;
    std::uint64_t llcWritebacks = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramQueueCycles = 0;
};

/** The system. */
class System
{
  public:
    /**
     * @param hier_config geometry; numCores must match traces.size().
     * @param llc_policy  management policy for the shared LLC.
     * @param traces      one workload per core (ownership taken).
     * @param records_per_core measurement window per core.
     * @param check_invariants attach a CacheChecker to every level so
     *        each access is followed by an invariant sweep of the
     *        touched set (and run() ends with a full audit); defaults
     *        to the process-wide check mode (--check, NUCACHE_CHECK).
     */
    System(const HierarchyConfig &hier_config,
           std::unique_ptr<ReplacementPolicy> llc_policy,
           std::vector<TraceSourcePtr> traces,
           std::uint64_t records_per_core,
           bool check_invariants = check::enabled());

    /** Run to completion and @return the results. */
    SystemResult run();

    /**
     * Dump the full statistics tree (per-core CPUs, per-level caches,
     * DRAM) in gem5-style "group.key value" lines.  Call after run().
     */
    void dumpStats(std::ostream &os) const;

    /** @return the same statistics tree as nested JSON objects. */
    Json statsJson() const;

    /**
     * Label the telemetry series this run publishes (e.g.\
     * "mix03/nucache").  Defaults to "<policy>/<w0>+<w1>+..." when
     * unset.  No effect unless telemetry is enabled (see
     * obs/obs_mode.hh).
     */
    void setTelemetryLabel(std::string label);

    /** @return the hierarchy (introspection before/after run()). */
    MemoryHierarchy &hierarchy() { return *hier; }
    const MemoryHierarchy &hierarchy() const { return *hier; }

    /** @return per-access invariant sweeps performed (0 = unchecked). */
    std::uint64_t invariantChecksRun() const;

  private:
    /** Build every StatGroup of the tree and hand it to @p emit. */
    void forEachStatGroup(const std::function<void(StatGroup &)> &emit)
        const;

    /** Create the sampler and register every applicable probe. */
    void setupTelemetry(std::uint64_t interval);

    std::unique_ptr<MemoryHierarchy> hier;
    /** One checker per cache level when checking is on (else empty). */
    std::vector<std::unique_ptr<CacheChecker>> checkers;
    std::vector<std::unique_ptr<TraceCpu>> cpus;
    /** Present iff telemetry was enabled at construction. */
    std::unique_ptr<obs::Sampler> sampler;
    std::string telemetryTag;
};

} // namespace nucache

#endif // NUCACHE_SIM_SYSTEM_HH
