/**
 * @file
 * Per-profile lookup tables of the estimate tier, and the capacity
 * search that probes them.
 *
 * Everything the predictor reads from a profile besides its scalar
 * totals is a pure function of the profile, so it is derived once,
 * when the profiling pass finishes, and shared read-only by every
 * estimateMix() call that names the workload: the pollution table
 * over the reuse-time histogram, the flattened reuse histogram, the
 * reuse CDF behind hitFraction() and the next-use CDFs of the PCs the
 * DeliWays replay considers.  About 13 KiB per profile.
 *
 * Every lookup here reproduces the arithmetic it replaced bit for
 * bit: the tables hold the same knots, the O(1) index computations
 * land on the same knot a binary search would, and the interpolation
 * expressions are unchanged.  tests/test_model.cc pins the model's
 * output digests on that.
 */

#ifndef NUCACHE_MODEL_TABLES_HH
#define NUCACHE_MODEL_TABLES_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/histogram.hh"

namespace nucache::model
{

struct WorkloadProfile;

/** Next-use CDFs tabulated per profile (the replay's candidates). */
inline constexpr std::size_t kDeliCandidatesPerCore = 8;

/**
 * Flattened non-empty histogram: bucket midpoints and counts, so the
 * model's sums iterate a dozen doubles instead of walking
 * LogHistogram buckets.
 */
struct HistView
{
    std::vector<double> mid;
    std::vector<double> cnt;

    explicit HistView(const LogHistogram &h);

    /** @return the sum over observations of min(value, n). */
    double
    clampedSum(double n) const
    {
        double s = 0.0;
        for (std::size_t b = 0; b < mid.size(); ++b)
            s += std::min(mid[b], n) * cnt[b];
        return s;
    }

    /**
     * @return the expected observations retained by a churning stack
     * of @p capacity blocks: an observation at stack distance d
     * survives with probability capacity / (capacity + d).  The soft
     * form (rather than the step min(1, C/d)) reflects that a
     * pseudo-partitioned stack keeps churning even inside its own
     * allocation — co-runner insertions and promotion swaps evict a
     * share of the nominally-fitting blocks, while a share of the
     * over-distance ones survives in the stable retained subset.
     */
    double
    retainedCount(double capacity) const
    {
        if (capacity <= 0.0)
            return 0.0;
        double s = 0.0;
        for (std::size_t b = 0; b < mid.size(); ++b)
            s += capacity / (capacity + std::max(1.0, mid[b])) *
                 cnt[b];
        return s;
    }
};

/**
 * The window-pollution primitives of one profile on a geometric grid
 * of window lengths: distinct(n), the expected distinct blocks the
 * stream touches in a window of n of its own LLC accesses, and its
 * inverse cover(d).  The capacity search probes them once per
 * co-runner per probe, so both are O(1): distinct() finds its knot
 * from the window's binary exponent (a per-octave base index plus at
 * most three compares, since the grid ratio is ~1.31) and cover()
 * runs a branchless lower_bound over the 128 knots.  Interpolation
 * error is ~1% of a bucket span, far below the model's error floor.
 */
class WindowTable
{
  public:
    static constexpr int kPoints = 128;

    /** Tabulate distinct() over @p p's reuse-time histogram. */
    explicit WindowTable(const WorkloadProfile &p);

    /** Interpolated distinct blocks in a window of @p x accesses. */
    double
    distinct(double x) const
    {
        if (x <= 0.0)
            return 0.0;
        if (x <= n.front())
            return db.front() * x / n.front();
        if (x >= n.back())
            return db.back();
        const std::size_t k = upperKnot(x);
        const double f = (x - n[k - 1]) / (n[k] - n[k - 1]);
        return db[k - 1] + f * (db[k] - db[k - 1]);
    }

    /** Interpolated accesses to cover @p d distinct blocks. */
    double
    cover(double d) const
    {
        if (d <= 0.0)
            return 0.0;
        if (d >= cold)
            return std::numeric_limits<double>::infinity();
        const std::size_t k = lowerBound(d);
        if (k >= db.size())
            return kMaxWindow;
        if (k == 0)
            return n.front() * d / std::max(db.front(), d);
        const double span = db[k] - db[k - 1];
        if (span <= 0.0)
            return n[k];
        const double f = (d - db[k - 1]) / span;
        return n[k - 1] + f * (n[k] - n[k - 1]);
    }

    /** @return the first knot k with !(db[k] < @p d), in [0, kPoints]. */
    std::size_t
    lowerBound(double d) const
    {
        static_assert(std::has_single_bit(unsigned{kPoints}));
        std::size_t k = 0;
        for (std::size_t step = kPoints / 2; step != 0; step /= 2)
            k += db[k + step - 1] < d ? step : 0;
        return k + (db[k] < d ? 1 : 0);
    }

    /**
     * @return the first knot k with n[k] > @p x, for n.front() < x <
     * n.back(): x's binary exponent (in [0, kOctaves)) picks the
     * octave's first candidate, and an octave spans at most 3 knots.
     */
    std::size_t
    upperKnot(double x) const
    {
        const auto e = static_cast<unsigned>(
            (std::bit_cast<std::uint64_t>(x) >> 52) - 1023);
        std::size_t k = octaveBase[e];
        while (n[k] <= x)
            ++k;
        return k;
    }

    /** @return the window-length knots (tests). */
    const std::array<double, kPoints> &windows() const { return n; }

    /** @return the distinct-block knots (tests). */
    const std::array<double, kPoints> &blocks() const { return db; }

  private:
    static constexpr double kMaxWindow = 1e15;
    /** Octaves of the grid: n.back() ~ 1e15 < 2^kOctaves. */
    static constexpr unsigned kOctaves = 50;

    std::array<double, kPoints> n{};
    std::array<double, kPoints> db{};
    /** octaveBase[e] = the first knot k with n[k] > 2^e. */
    std::array<std::uint8_t, kOctaves> octaveBase{};
    double cold = 0.0;
};

/**
 * Everything estimateMix() reads from one profile besides its scalar
 * totals.  The CDFs view the profile's own histograms, which is why a
 * WorkloadProfile is neither copyable nor movable.
 */
struct ModelTables
{
    explicit ModelTables(const WorkloadProfile &p);

    /** Window-pollution table over the reuse-time histogram. */
    WindowTable window;
    /** The reuse-distance histogram, flattened (PIPP's retention). */
    HistView reuse;
    /** Cumulative reuse distances: hitFraction() in O(1). */
    LogHistogramCdf reuseCdf;
    /** Next-use CDFs of the first kDeliCandidatesPerCore PCs. */
    std::vector<LogHistogramCdf> nextUse;
    /** First-touch rate in the window's second half (footprint tail). */
    double tailColdRate = 0.0;
};

/** A shared capacity resolves to shared * k / 2^kCapacityGridBits. */
inline constexpr unsigned kCapacityGridBits = 20;
inline constexpr std::uint32_t kCapacityGrid = 1u << kCapacityGridBits;
/** No previous grid point to start from: search the whole grid. */
inline constexpr std::uint32_t kColdSearch = ~std::uint32_t{0};

/** Where a capacity search resumes: the previous answer and its move. */
struct GridCursor
{
    /** Grid point the previous search found, or kColdSearch. */
    std::uint32_t k = kColdSearch;
    /** How far that search moved the answer: the first gallop step. */
    std::uint32_t stride = 1;
};

/**
 * Find the largest grid point k in [0, kCapacityGrid] that fits, for
 * a score @p excess(k) whose sign is monotone in k: k overflows iff
 * its excess is > 0, and every point above an overflowing one
 * overflows too.  k = 0 always fits and is never probed.
 *
 * Cold (@p cursor.k == kColdSearch) the search probes the top, then
 * narrows [0, kCapacityGrid].  Warm, it probes the previous answer,
 * then gallops away from it in doubling steps, starting from the
 * previous move's size, until the boundary is bracketed.  Inside a
 * bracket it steps to where the excess interpolates linearly to zero
 * (regula falsi: the excess is piecewise linear in k, so this usually
 * lands next to the boundary), and bisects instead when an end's
 * excess is unknown or infinite, or when the same end has moved twice
 * running.  Every bracket of a monotone predicate holds one boundary,
 * so the answer is the one a plain bisection of the whole grid finds,
 * which is what keeps a warm-started estimate bit-identical to a cold
 * one.  @p cursor is updated to the answer.
 */
template <typename Excess>
std::uint32_t
searchCapacityGrid(GridCursor &cursor, Excess &&excess)
{
    constexpr double kUnknown = std::numeric_limits<double>::infinity();
    const std::uint32_t warm = cursor.k;
    // Once bracketed, lo fits and hi overflows (or lo == hi == top);
    // sLo / sHi are their excesses, kUnknown when not probed.
    std::uint32_t lo = 0;
    std::uint32_t hi = kCapacityGrid;
    double sLo = kUnknown;
    double sHi = kUnknown;
    const auto probe = [&](std::uint32_t k) {
        const double s = excess(k);
        if (s > 0.0) {
            hi = k;
            sHi = s;
            return true;
        }
        lo = k;
        sLo = s;
        return false;
    };
    if (warm == kColdSearch) {
        probe(hi);
    } else if (warm != 0 && probe(warm)) {
        for (std::uint32_t step = cursor.stride;; step *= 2) {
            if (hi <= step) {
                lo = 0;
                break;
            }
            if (!probe(hi - step))
                break;
        }
    } else {
        lo = warm;
        for (std::uint32_t step = cursor.stride; lo < hi; step *= 2) {
            if (probe(hi - lo > step ? lo + step : hi))
                break;
        }
    }
    unsigned run = 0;
    bool loMoved = false;
    while (hi - lo > 1) {
        std::uint32_t mid = lo + (hi - lo) / 2;
        const bool interpolate =
            run < 2 && sLo != kUnknown && std::isfinite(sHi);
        if (interpolate) {
            const double t = -sLo / (sHi - sLo);
            mid = std::clamp(lo + static_cast<std::uint32_t>(
                                      t * static_cast<double>(hi - lo)),
                             lo + 1, hi - 1);
        }
        const bool moved = !probe(mid);
        run = interpolate && moved == loMoved ? run + 1 : 1;
        loMoved = moved;
    }
    cursor.stride = warm == kColdSearch || lo == warm
                        ? 1
                        : (lo > warm ? lo - warm : warm - lo);
    cursor.k = lo;
    return lo;
}

} // namespace nucache::model

#endif // NUCACHE_MODEL_TABLES_HH
