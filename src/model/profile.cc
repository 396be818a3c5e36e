#include "model/profile.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/nucache.hh"
#include "mem/cache.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "trace/arena.hh"

namespace nucache::model
{

namespace
{

/** Delinquent PCs exported per profile (monitor's ranking order). */
constexpr std::uint32_t kProfilePcs = 64;

/**
 * Fenwick tree over access timestamps: one mark per block at its
 * latest touch, so a prefix-sum difference counts the distinct blocks
 * touched inside any interval — the reuse distance in O(log n).
 */
class Fenwick
{
  public:
    explicit Fenwick(std::size_t n) : tree(n + 1, 0) {}

    void
    add(std::size_t i, std::int64_t delta)
    {
        for (; i < tree.size(); i += i & (~i + 1))
            tree[i] += delta;
    }

    std::int64_t
    prefix(std::size_t i) const
    {
        std::int64_t sum = 0;
        for (; i > 0; i -= i & (~i + 1))
            sum += tree[i];
        return sum;
    }

  private:
    std::vector<std::int64_t> tree;
};

ProfilePtr
runPass(const std::string &label, TraceSourcePtr trace,
        std::uint64_t records)
{
    HierarchyConfig hier = defaultHierarchy(1);

    auto profile = std::make_shared<WorkloadProfile>();
    profile->workload = label;
    profile->records = records;
    profile->passLlcBytes = hier.llc.sizeBytes;
    profile->passLlcWays = hier.llc.ways;
    profile->blockBytes = hier.llc.blockSize;

    // The pass runs under the default NUcache so its Next-Use monitor
    // produces the per-PC histograms; the checker stays off (the
    // observer slot is ours, and a profiling pass is not a
    // correctness run).  The System owns the policy, and so the
    // monitor read below, for the whole pass.
    std::vector<TraceSourcePtr> traces;
    traces.push_back(std::move(trace));
    auto policy = std::make_unique<NUcachePolicy>();
    const NextUseMonitor &mon = policy->monitor();
    System sys(hier, std::move(policy), std::move(traces), records,
               /*check_invariants=*/false);

    // Reuse-distance collection: Fenwick tree over last-touch
    // timestamps of the LLC demand stream.  The observer fires in the
    // serial access order, which is what keeps exported profiles
    // byte-identical across collection-thread widths.
    Cache &llc = sys.hierarchy().llc();
    Fenwick marks(records + 1);
    std::unordered_map<Addr, std::size_t> lastTouch;
    lastTouch.reserve(1 << 16);
    std::size_t now = 0;
    std::uint64_t overflowed = 0;
    llc.setAccessObserver([&](std::uint32_t, const AccessInfo &info,
                              const Cache::Result &) {
        if (info.isPrefetch)
            return;
        // The LLC demand stream is L1-filtered, so it never exceeds
        // the per-core record budget the Fenwick tree is sized for;
        // the guard keeps an unexpected excess non-fatal.
        if (now + 1 >= records + 1) {
            ++overflowed;
            return;
        }
        ++now;
        const Addr block = llc.tagOf(info.addr);
        const auto it = lastTouch.find(block);
        if (it != lastTouch.end()) {
            const std::int64_t distinct =
                marks.prefix(now - 1) - marks.prefix(it->second);
            profile->reuse.add(static_cast<std::uint64_t>(distinct));
            profile->reuseTime.add(now - it->second);
            marks.add(it->second, -1);
            it->second = now;
        } else {
            ++profile->coldAccesses;
            profile->coldArrival.add(now);
            lastTouch.emplace(block, now);
        }
        marks.add(now, +1);
    });

    const SystemResult res = sys.run();
    llc.setAccessObserver({});
    (void)overflowed;

    const CoreResult &core = res.cores.front();
    profile->instructions = core.instructions;
    profile->cycles = core.cycles;
    profile->llcAccesses = core.llc.accesses;
    profile->llcMisses = core.llc.misses;
    profile->dramReads = res.dramReads;
    profile->dramQueueCycles = res.dramQueueCycles;

    profile->monitorMisses = mon.totalMisses();
    profile->monitorMatched = mon.matchedSamples();
    profile->monitorScale = mon.scaleFactor();
    for (const PcProfile &pc : mon.topDelinquent(kProfilePcs)) {
        PcNextUse entry;
        entry.pc = pc.pc;
        entry.misses = pc.misses;
        entry.retires = pc.retires;
        if (pc.nextUse != nullptr)
            entry.nextUse = *pc.nextUse;
        profile->pcs.push_back(std::move(entry));
    }
    // topDelinquent orders by descending misses; pin the tie order
    // too so the exported document is fully canonical.
    std::stable_sort(profile->pcs.begin(), profile->pcs.end(),
                     [](const PcNextUse &a, const PcNextUse &b) {
                         return a.misses != b.misses ? a.misses > b.misses
                                                     : a.pc < b.pc;
                     });
    profile->buildTables();
    return profile;
}

/**
 * Hand freed heap pages back to the OS.  A profiling pass churns tens
 * of MiB of short-lived allocations (a last-touch node per distinct
 * block, the Fenwick tree, the pass's simulated hierarchy) through its
 * thread's malloc arena, and glibc keeps the freed pages resident: 17
 * passes on four threads left ~41 MiB of free heap resident in a
 * serving process that profiles at start-up.
 */
void
releaseFreedHeap()
{
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
}

/** Append the sparse non-zero buckets of @p h as [low, count] pairs. */
Json
histogramJson(const LogHistogram &h)
{
    Json buckets = Json::array();
    for (unsigned b = 0; b < h.numBuckets(); ++b) {
        if (h.count(b) == 0)
            continue;
        Json pair = Json::array();
        pair.push(h.bucketLow(b));
        pair.push(h.count(b));
        buckets.push(std::move(pair));
    }
    return buckets;
}

} // anonymous namespace

void
WorkloadProfile::buildTables()
{
    modelTables = std::make_unique<const ModelTables>(*this);
}

double
WorkloadProfile::hitFraction(double capacity_blocks) const
{
    if (llcAccesses == 0 || capacity_blocks < 1.0)
        return 0.0;
    // A reuse distance of d distinct intervening blocks hits an
    // LRU stack of C blocks iff d < C.
    const auto limit =
        static_cast<std::uint64_t>(std::ceil(capacity_blocks)) - 1;
    return modelTables->reuseCdf.atOrBelow(limit) /
           static_cast<double>(llcAccesses);
}

Json
WorkloadProfile::toJson() const
{
    Json doc = Json::object();
    doc["schema"] = kProfileSchema;
    doc["model_version"] = kModelVersion;
    doc["workload"] = workload;
    doc["records"] = records;
    Json pass = Json::object();
    pass["llc_bytes"] = passLlcBytes;
    pass["llc_ways"] = passLlcWays;
    pass["block_bytes"] = blockBytes;
    doc["pass"] = std::move(pass);
    doc["instructions"] = instructions;
    doc["cycles"] = cycles;
    doc["llc_accesses"] = llcAccesses;
    doc["llc_misses"] = llcMisses;
    doc["dram_reads"] = dramReads;
    doc["dram_queue_cycles"] = dramQueueCycles;
    doc["cold_accesses"] = coldAccesses;
    doc["reuse"] = histogramJson(reuse);
    doc["reuse_time"] = histogramJson(reuseTime);
    doc["cold_arrival"] = histogramJson(coldArrival);
    Json mon = Json::object();
    mon["misses"] = monitorMisses;
    mon["matched"] = monitorMatched;
    mon["scale"] = monitorScale;
    doc["monitor"] = std::move(mon);
    Json pcjson = Json::array();
    for (const PcNextUse &pc : pcs) {
        Json p = Json::object();
        p["pc"] = pc.pc;
        p["misses"] = pc.misses;
        p["retires"] = pc.retires;
        p["next_use"] = histogramJson(pc.nextUse);
        pcjson.push(std::move(p));
    }
    doc["pcs"] = std::move(pcjson);
    return doc;
}

ProfilePtr
collectProfile(const std::string &workload, std::uint64_t records)
{
    return runPass(workload, TraceArena::instance().open(workload),
                   records);
}

ProfilePtr
collectProfileFromTrace(const std::string &label, TraceSourcePtr trace,
                        std::uint64_t records)
{
    return runPass(label, std::move(trace), records);
}

ProfileStore &
ProfileStore::instance()
{
    static ProfileStore store;
    return store;
}

std::string
ProfileStore::key(const std::string &workload, std::uint64_t records)
{
    return workload + "/" + std::to_string(records);
}

ProfilePtr
ProfileStore::get(const std::string &workload, std::uint64_t records)
{
    std::shared_future<ProfilePtr> future;
    bool builder = false;
    std::promise<ProfilePtr> promise;
    {
        std::lock_guard<std::mutex> lock(mtx);
        const std::string k = key(workload, records);
        const auto it = futures.find(k);
        if (it != futures.end()) {
            future = it->second;
        } else {
            future = promise.get_future().share();
            futures.emplace(k, future);
            builder = true;
        }
    }
    if (builder) {
        builds.fetch_add(1, std::memory_order_relaxed);
        building.fetch_add(1, std::memory_order_relaxed);
        promise.set_value(collectProfile(workload, records));
        // Passes that overlap reuse one another's freed heap; the last
        // to finish hands what is left to the OS.
        if (building.fetch_sub(1, std::memory_order_acq_rel) == 1)
            releaseFreedHeap();
    }
    return future.get();
}

ProfilePtr
ProfileStore::peek(const std::string &workload,
                   std::uint64_t records) const
{
    std::shared_future<ProfilePtr> future;
    {
        std::lock_guard<std::mutex> lock(mtx);
        const auto it = futures.find(key(workload, records));
        if (it == futures.end())
            return nullptr;
        future = it->second;
    }
    if (future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready)
        return nullptr;
    return future.get();
}

void
ProfileStore::clear()
{
    std::lock_guard<std::mutex> lock(mtx);
    futures.clear();
}

} // namespace nucache::model
