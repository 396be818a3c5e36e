/**
 * @file
 * Reuse/next-use-distance workload profiles: the input side of the
 * estimate tier (see predictor.hh for the analytical model).
 *
 * One cheap single-core profiling pass per (workload, window)
 * harvests everything the predictor needs, and nothing it does not:
 *
 *  - a geometry-independent *reuse-distance* histogram of the LLC
 *    demand stream (distinct blocks touched between consecutive uses
 *    of a block, the classic stack-distance measure), collected by an
 *    access observer with a Fenwick tree over last-touch timestamps;
 *  - the Next-Use monitor's per-PC profiles — sampled miss and
 *    retirement counts plus the next-use-distance histogram in
 *    whole-cache-miss units — taken from the NUcache policy the pass
 *    runs under (the same monitor hardware the paper builds);
 *  - the pass's own instruction/cycle/miss/DRAM totals, from which
 *    the predictor derives a base (miss-stall-free) CPI.
 *
 * Profiles are immutable once built and memoized process-wide with
 * the same once-semantics the run-alone IPC cache uses: concurrent
 * first requests block on one builder instead of duplicating the
 * pass.  Collection is deterministic — the observer fires in the
 * serial access order, so a profile is a pure function of (workload,
 * window), which is what makes serving cached estimates sound.
 */

#ifndef NUCACHE_MODEL_PROFILE_HH
#define NUCACHE_MODEL_PROFILE_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "common/json.hh"
#include "common/types.hh"
#include "model/tables.hh"
#include "trace/trace.hh"

namespace nucache::model
{

/** Version tag carried by every estimate response and profile doc. */
inline constexpr const char *kModelVersion = "nucache-estimate/v1";

/** Schema of the exported profile document. */
inline constexpr const char *kProfileSchema = "nucache-profile/v1";

/** Per-PC slice of a profile: the monitor's view, deep-copied. */
struct PcNextUse
{
    PC pc = invalidPC;
    /** Sampled misses allocated by this PC. */
    std::uint64_t misses = 0;
    /** Sampled MainWays retirements of this PC's blocks. */
    std::uint64_t retires = 0;
    /** Next-use distances, in whole-cache misses of the pass. */
    LogHistogram nextUse;
};

/**
 * Everything one profiling pass learned about one workload, plus the
 * lookup tables the model derives from it (tables.hh).  The tables
 * view the profile's own histograms, so a profile stays where it was
 * built: it is neither copyable nor movable.
 */
struct WorkloadProfile
{
    WorkloadProfile() = default;
    WorkloadProfile(const WorkloadProfile &) = delete;
    WorkloadProfile &operator=(const WorkloadProfile &) = delete;

    std::string workload;
    std::uint64_t records = 0;

    /** Pass geometry (provenance; the model extrapolates from it). */
    std::uint64_t passLlcBytes = 0;
    std::uint32_t passLlcWays = 0;
    std::uint32_t blockBytes = 64;

    /** Pass totals (single core, LRU-stack MainWays under NUcache). */
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramQueueCycles = 0;

    /** Reuse distances of the LLC demand stream (distinct blocks). */
    LogHistogram reuse;
    /**
     * The same reuse intervals measured in *accesses* of the stream.
     * The predictor inverts this to turn a stack distance into a
     * window length, which is what lets it bound how many distinct
     * blocks a co-runner injects into that window (the inter-thread
     * pollution model).
     */
    LogHistogram reuseTime;
    /** First-touch (compulsory) accesses: no reuse distance exists. */
    std::uint64_t coldAccesses = 0;
    /**
     * Arrival position (LLC access index) of every first touch.  The
     * tail of this distribution is the footprint's growth rate, which
     * the predictor extrapolates when a fast core in a mix runs past
     * its measurement window while slower co-runners finish theirs.
     */
    LogHistogram coldArrival;

    /** Next-Use monitor export (sampled units share one scale). */
    std::uint64_t monitorMisses = 0;
    std::uint64_t monitorMatched = 0;
    std::uint64_t monitorScale = 1;
    std::vector<PcNextUse> pcs;

    /**
     * Derive the model tables from the fields above; the profiling
     * pass calls this once, after filling them in.
     */
    void buildTables();

    /** @return the model tables (buildTables() must have run). */
    const ModelTables &tables() const { return *modelTables; }

    /**
     * @return the fraction of this workload's LLC accesses whose
     * reuse distance fits a fully-associative LRU stack of
     * @p capacity_blocks blocks (compulsory misses never hit).  O(1)
     * through the reuse CDF, bit-identical to reuse.countAtOrBelow().
     */
    double hitFraction(double capacity_blocks) const;

    /**
     * @return the deterministic nucache-profile/v1 document: fixed
     * member order, integer-only counters, sparse non-zero histogram
     * buckets as [bucket_low, count] pairs.
     */
    Json toJson() const;

  private:
    std::unique_ptr<const ModelTables> modelTables;
};

using ProfilePtr = std::shared_ptr<const WorkloadProfile>;

/**
 * Run one profiling pass over named workload @p workload (arena
 * buffer, shared with the simulation path) with a measurement window
 * of @p records.
 */
ProfilePtr collectProfile(const std::string &workload,
                          std::uint64_t records);

/**
 * Run one profiling pass over an externally supplied trace (the
 * run_trace estimate path); @p label names the profile.
 */
ProfilePtr collectProfileFromTrace(const std::string &label,
                                   TraceSourcePtr trace,
                                   std::uint64_t records);

/**
 * Process-wide memoized profile store, mirroring the run-alone IPC
 * cache and the trace arena: per-(workload, window) once-semantics on
 * a shared_future.  get() blocks on a cold profile; peek() never
 * blocks and is what the server's event loop uses to decide whether
 * an estimate can be answered inline.
 */
class ProfileStore
{
  public:
    static ProfileStore &instance();

    /** @return the profile, building it on first request (blocks). */
    ProfilePtr get(const std::string &workload, std::uint64_t records);

    /**
     * @return the profile iff it is already built; nullptr when the
     * pass has not been requested or has not finished.  Never blocks
     * and never triggers a build — safe on the event-loop thread.
     */
    ProfilePtr peek(const std::string &workload,
                    std::uint64_t records) const;

    /** @return profiling passes actually executed. */
    std::uint64_t built() const
    {
        return builds.load(std::memory_order_relaxed);
    }

    /** Drop every memoized profile (tests). */
    void clear();

  private:
    static std::string key(const std::string &workload,
                           std::uint64_t records);

    mutable std::mutex mtx;
    std::map<std::string, std::shared_future<ProfilePtr>> futures;
    std::atomic<std::uint64_t> builds{0};
    /** Passes running now; the last one to finish trims the heap. */
    std::atomic<unsigned> building{0};
};

} // namespace nucache::model

#endif // NUCACHE_MODEL_PROFILE_HH
