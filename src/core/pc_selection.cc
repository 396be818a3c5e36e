#include "core/pc_selection.hh"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/logging.hh"

namespace nucache
{

namespace
{

/** The candidate pool with each member's CDF built once per call. */
struct Pool
{
    std::vector<PC> pcs;
    /** DeliWays insertions each candidate imposes if selected. */
    std::vector<std::uint64_t> inserts;
    std::vector<std::optional<LogHistogramCdf>> nextUse;
    /** The bucket layout every next-use histogram shares. */
    const LogHistogram *layout = nullptr;
};

/**
 * Expected DeliWay hits if exactly the candidates in @p members
 * (ascending pool indices) with @p flip toggled are selected, given
 * their summed insertions @p selected_inserts; pass a @p flip outside
 * the pool to toggle none.  Members are summed in ascending index
 * order whatever is toggled, so every flip's score is reproducible.
 * Also reports the retention window via @p window_out.
 */
double
benefitOf(const Pool &pool, const std::vector<std::size_t> &members,
          std::size_t flip, std::uint64_t selected_inserts,
          std::uint64_t capacity, std::uint64_t total_misses,
          double &window_out)
{
    if (selected_inserts == 0) {
        window_out = 0.0;
        return 0.0;
    }

    // Retention window in whole-cache miss units: the FIFO holds
    // `capacity` blocks and sees selected_inserts insertions per
    // total_misses misses.
    const double frac = static_cast<double>(selected_inserts) /
                        static_cast<double>(total_misses);
    const double window = static_cast<double>(capacity) / frac;
    window_out = window;

    const std::uint64_t limit =
        window >= static_cast<double>(
                      std::numeric_limits<std::uint64_t>::max() / 2)
            ? std::numeric_limits<std::uint64_t>::max() / 2
            : static_cast<std::uint64_t>(window);

    // One split serves every member: the histograms share a layout.
    const LogHistogram::Split split =
        pool.layout ? pool.layout->splitAt(limit) : LogHistogram::Split{};
    double hits = 0.0;
    const auto add = [&](std::size_t i) {
        if (pool.nextUse[i])
            hits += pool.nextUse[i]->at(split);
    };
    bool adding = flip < pool.pcs.size();
    for (const std::size_t i : members) {
        if (i == flip) {
            adding = false;  // the flip removes this member
            continue;
        }
        if (adding && flip < i) {
            add(flip);
            adding = false;
        }
        add(i);
    }
    if (adding)
        add(flip);
    return hits;
}

} // anonymous namespace

SelectionResult
selectDelinquentPcs(const std::vector<PcProfile> &candidates,
                    std::uint64_t deli_capacity_blocks,
                    std::uint64_t total_misses,
                    const PcSelectionConfig &cfg,
                    const std::vector<PC> &previous)
{
    SelectionResult result;
    if (total_misses == 0 || deli_capacity_blocks == 0 ||
        candidates.empty()) {
        return result;
    }

    // Restrict to the candidate pool (callers pass profiles sorted by
    // delinquency; enforce the cap defensively).  The DeliWays drain
    // one block per *insertion*, and a selected PC's insertion rate is
    // its MainWays retirement rate (misses plus re-demotions after
    // promotions).  Fall back to the miss count for PCs with no
    // retirement history yet.
    const std::size_t n =
        std::min<std::size_t>(candidates.size(), cfg.candidatePcs);
    Pool pool;
    for (std::size_t i = 0; i < n; ++i) {
        const PcProfile &c = candidates[i];
        pool.pcs.push_back(c.pc);
        pool.inserts.push_back(std::max(c.retires, c.misses));
        pool.nextUse.emplace_back();
        if (c.nextUse == nullptr)
            continue;
        if (pool.layout == nullptr)
            pool.layout = c.nextUse;
        if (!c.nextUse->sameLayout(*pool.layout))
            panic("PC selection: next-use histograms differ in layout");
        pool.nextUse.back().emplace(*c.nextUse);
    }

    // Warm-start from last epoch's selection: the DeliWays already
    // hold those PCs' blocks, so keeping a still-profitable selection
    // stable is worth more than an equal-benefit reshuffle (a dropped
    // PC's resident blocks turn stale and are reclaimed).
    std::vector<bool> member(n, false);
    std::vector<std::size_t> members;  // ascending
    std::uint64_t inserts = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (const PC pc : previous) {
            if (pool.pcs[i] == pc && members.size() < cfg.maxSelected) {
                member[i] = true;
                members.push_back(i);
                inserts += pool.inserts[i];
                break;
            }
        }
    }

    double best_window = 0.0;
    double best_benefit = benefitOf(pool, members, n, inserts,
                                    deli_capacity_blocks, total_misses,
                                    best_window);

    // Local search: alternate improving removals (prunes stale or
    // window-crowding members) and improving additions, to a bounded
    // fixpoint.  Plain greedy addition cannot escape an inherited set
    // whose members jointly shrink the window below everyone's
    // distances.
    const std::uint64_t rounds = 2 * std::uint64_t{cfg.maxSelected} + 4;
    for (std::uint64_t round = 0; round < rounds; ++round) {
        double round_best = best_benefit;
        double round_window = best_window;
        std::uint64_t round_inserts = inserts;
        std::size_t round_flip = n;

        for (std::size_t i = 0; i < n; ++i) {
            if (!member[i] && members.size() >= cfg.maxSelected)
                continue;
            const std::uint64_t trial = member[i] ? inserts - pool.inserts[i]
                                                  : inserts + pool.inserts[i];
            double window = 0.0;
            const double b = benefitOf(pool, members, i, trial,
                                       deli_capacity_blocks,
                                       total_misses, window);
            if (b > round_best) {
                round_best = b;
                round_window = window;
                round_inserts = trial;
                round_flip = i;
            }
        }

        if (round_flip == n)
            break;  // no strictly improving move
        const auto at =
            std::lower_bound(members.begin(), members.end(), round_flip);
        if (member[round_flip])
            members.erase(at);
        else
            members.insert(at, round_flip);
        member[round_flip] = !member[round_flip];
        inserts = round_inserts;
        best_benefit = round_best;
        best_window = round_window;
    }

    // The local search can strand on a zero-gradient plateau when it
    // inherits a flooding selection (every single removal still leaves
    // the window too small, so no move improves).  A fresh greedy run
    // from the empty set escapes it; keep whichever scores higher.
    if (!previous.empty()) {
        const SelectionResult fresh = selectDelinquentPcs(
            candidates, deli_capacity_blocks, total_misses, cfg, {});
        if (fresh.expectedHits > best_benefit)
            return fresh;
    }

    for (const std::size_t i : members)
        result.selected.push_back(pool.pcs[i]);
    result.expectedHits = best_benefit;
    result.window = best_window;
    return result;
}

SelectionResult
selectTopKByMisses(const std::vector<PcProfile> &candidates,
                   std::uint32_t k)
{
    // Candidates arrive sorted by misses (NextUseMonitor contract);
    // sort defensively anyway.
    std::vector<PcProfile> sorted = candidates;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto &a, const auto &b) {
                  if (a.misses != b.misses)
                      return a.misses > b.misses;
                  return a.pc < b.pc;
              });
    SelectionResult result;
    for (std::uint32_t i = 0; i < k && i < sorted.size(); ++i)
        result.selected.push_back(sorted[i].pc);
    return result;
}

} // namespace nucache
