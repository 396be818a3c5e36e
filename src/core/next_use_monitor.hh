/**
 * @file
 * The Next-Use monitor: the profiling half of NUcache.
 *
 * Next-Use distance of a block: the number of LLC misses between the
 * moment the block *retires from the MainWays* (it reaches the LRU
 * position and is either evicted or demoted into the DeliWays) and its
 * next use.  That is precisely the interval a DeliWays slot must cover
 * to convert the next use into a hit, so it is the quantity the
 * cost-benefit selection needs per PC.
 *
 * The monitor watches a sampled subset of cache sets.  Retirements
 * from sampled sets enter a bounded FIFO "victim board" stamped with
 * the current sampled-miss count; when a later *use* of the block is
 * observed — a demand miss (the block was gone) or a DeliWays hit (the
 * block was saved) — the elapsed miss count, scaled by the sampling
 * factor back to whole-cache units, is recorded in the histogram of
 * the PC that originally allocated the block.  Per-PC miss counters
 * provide the delinquency ranking; per-PC retirement counters provide
 * the DeliWays insertion-rate estimate used for the retention-window
 * cost model.
 *
 * Both tables are flat, as in the paper's hardware: the board is a
 * ring of `boardEntries` slots and the PC table one contiguous entry
 * array sized for `maxPcs`, each found through an open-addressed
 * SlotIndex (slot_index.hh).  A board slot is live exactly while the
 * index names it.
 */

#ifndef NUCACHE_CORE_NEXT_USE_MONITOR_HH
#define NUCACHE_CORE_NEXT_USE_MONITOR_HH

#include <cstdint>
#include <vector>

#include "common/histogram.hh"
#include "common/types.hh"
#include "core/slot_index.hh"

namespace nucache
{

/** Tunables of the Next-Use monitor. */
struct NextUseMonitorConfig
{
    /** Sample 1 set in 2^shift (0 = monitor everything). */
    unsigned sampleShift = 5;
    /** Victim-board capacity (entries). */
    std::uint32_t boardEntries = 2048;
    /** Largest next-use exponent covered by the histograms. */
    unsigned histMaxLog2 = 32;
    /** Log-linear sub-bucket bits per octave (resolution). */
    unsigned histSubBits = 2;
    /** Maximum PCs profiled; colder PCs are pruned at epochs. */
    std::uint32_t maxPcs = 256;
};

/** Profile of one delinquent PC, surfaced to the selection algorithm. */
struct PcProfile
{
    PC pc = invalidPC;
    /** Sampled misses allocated by this PC (delinquency measure). */
    std::uint64_t misses = 0;
    /**
     * Sampled MainWays retirements of this PC's blocks: the DeliWays
     * insertion rate this PC would impose if selected.
     */
    std::uint64_t retires = 0;
    /** Next-use distances of this PC's blocks (whole-cache units). */
    const LogHistogram *nextUse = nullptr;
};

/** The monitor. */
class NextUseMonitor
{
  public:
    explicit NextUseMonitor(const NextUseMonitorConfig &config =
                                NextUseMonitorConfig{});

    /** @return true iff @p set is watched. */
    bool sampled(std::uint32_t set) const;

    /**
     * Observe a demand miss (counts time and records a next-use if the
     * block is on the victim board).
     * @param set cache set of the miss.
     * @param tag block tag of the missing address.
     * @param pc  PC of the missing access.
     */
    void onMiss(std::uint32_t set, Addr tag, PC pc);

    /**
     * Observe a use that is not a miss (a DeliWays hit): records a
     * next-use if the block is on the victim board.
     */
    void onUse(std::uint32_t set, Addr tag);

    /**
     * Observe a block retiring from the MainWays (evicted outright or
     * demoted into the DeliWays).
     * @param set cache set of the retirement.
     * @param tag retiring block's tag.
     * @param alloc_pc PC that had allocated the block.
     */
    void onRetire(std::uint32_t set, Addr tag, PC alloc_pc);

    /**
     * Observe a DeliWays lease renewal: it consumes FIFO lifetime like
     * an insertion (so it counts toward the PC's retirement rate) but
     * must not enter the victim board — the block is still resident,
     * and re-boarding every renewal floods the board and starves other
     * PCs' pending next-use measurements.
     */
    void onLease(std::uint32_t set, PC alloc_pc);

    /**
     * Age all profiles (halve counters) and prune the PC table down to
     * the configured maximum, keeping topDelinquent()'s leaders; call
     * once per selection epoch.
     */
    void epochDecay();

    /**
     * @return up to @p k PC profiles ordered by descending misses plus
     * matched next-uses, ties by ascending PC.  Pointers remain valid
     * until the next monitor mutation.
     */
    std::vector<PcProfile> topDelinquent(std::uint32_t k) const;

    /** @return total sampled misses (same scale as PcProfile fields). */
    std::uint64_t totalMisses() const { return missCount; }

    /** @return next-use samples matched so far (diagnostics). */
    std::uint64_t matchedSamples() const { return matched; }

    /** @return the scale from sampled-miss to whole-cache units. */
    std::uint64_t scaleFactor() const { return std::uint64_t{1} << shift; }

    /** @return number of PCs currently profiled. */
    std::size_t trackedPcs() const { return pcTable.size(); }

  private:
    struct BoardEntry
    {
        Addr tag = 0;
        PC allocPc = invalidPC;
        /** missClock at retirement time. */
        std::uint64_t stamp = 0;
    };

    struct PcEntry
    {
        PC pc;
        std::uint64_t misses = 0;
        std::uint64_t retires = 0;
        LogHistogram nextUse;

        PcEntry(PC p, unsigned max_log2, unsigned sub_bits)
            : pc(p), nextUse(max_log2, sub_bits)
        {
        }
    };

    /** Find or create the table entry for @p pc (bounded table). */
    PcEntry &pcEntry(PC pc);

    /** Index every PC table entry afresh, for at least @p keys. */
    void reindexPcs(std::size_t keys);

    /** Match @p tag against the board and record the distance. */
    void matchBoard(Addr tag);

    NextUseMonitorConfig cfg;
    unsigned shift;

    /** FIFO victim board: a ring of slots and its tag index. */
    std::vector<BoardEntry> board;
    SlotIndex boardIndex;
    std::uint32_t boardHead = 0;

    /** Profiled PCs in no particular order, and their PC index. */
    std::vector<PcEntry> pcTable;
    SlotIndex pcIndex;
    /** Monotonic sampled-miss clock (distances; never decays). */
    std::uint64_t missClock = 0;
    /** Epoch-aged sampled-miss counter (rate denominators). */
    std::uint64_t missCount = 0;
    std::uint64_t matched = 0;
};

} // namespace nucache

#endif // NUCACHE_CORE_NEXT_USE_MONITOR_HH
