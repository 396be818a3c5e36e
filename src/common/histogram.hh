/**
 * @file
 * Bucketed histograms.
 *
 * LogHistogram keeps log-linear ("HDR") buckets — each power-of-two
 * octave is split into 2^subBits linear sub-buckets.  This is the
 * hardware-plausible shape used by the Next-Use monitor: a modest
 * array of saturating counters indexed by the distance's exponent and
 * a couple of mantissa bits, giving ~12-25% relative resolution at any
 * magnitude (plain power-of-two buckets are too coarse for the
 * selection algorithm's window test near the knee).  It supports the
 * epoch-decay operation (halving all counters) that the paper family
 * uses to age profile information.  LogHistogramCdf is its cumulative
 * view, the one next-use CDF the selection and the model probe.
 */

#ifndef NUCACHE_COMMON_HISTOGRAM_HH
#define NUCACHE_COMMON_HISTOGRAM_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitutil.hh"

namespace nucache
{

/**
 * Histogram with log-linear bucket boundaries.
 *
 * With S = subBits and B = 2^S: values below B get exact unit buckets;
 * a value v >= B with exponent e = floor(log2 v) falls in bucket
 * (e - S + 1) * B + ((v >> (e - S)) - B).  Values beyond the covered
 * range saturate into the last bucket.
 */
class LogHistogram
{
  public:
    /**
     * @param max_log2 largest exponent covered without saturation.
     * @param sub_bits linear sub-buckets per octave = 2^sub_bits.
     */
    explicit LogHistogram(unsigned max_log2 = 32, unsigned sub_bits = 2);

    /** Add @p count observations of @p value. */
    void add(std::uint64_t value, std::uint64_t count = 1);

    /** @return the bucket index that @p value falls into. */
    unsigned
    bucketOf(std::uint64_t value) const
    {
        const std::uint64_t base = std::uint64_t{1} << subBits;
        if (value < base)
            return static_cast<unsigned>(value);
        const unsigned e = floorLog2(value);
        const auto b = static_cast<unsigned>(
            ((e - subBits + 1) << subBits) + (value >> (e - subBits)) -
            base);
        return std::min(b, numBuckets() - 1);
    }

    /** @return the inclusive lower bound of bucket @p b. */
    std::uint64_t
    bucketLow(unsigned b) const
    {
        const unsigned base = 1u << subBits;
        if (b < base)
            return b;
        return std::uint64_t{base + (b & (base - 1))}
               << ((b >> subBits) - 1);
    }

    /** @return the exclusive upper bound of bucket @p b. */
    std::uint64_t
    bucketHigh(unsigned b) const
    {
        if (b < (1u << subBits))
            return std::uint64_t{b} + 1;
        return bucketLow(b) + (std::uint64_t{1} << ((b >> subBits) - 1));
    }

    /** Where a limit cuts the bucket layout. */
    struct Split
    {
        /** The bucket holding the limit. */
        unsigned bucket = 0;
        /** Share of that bucket at or below the limit (1 if whole). */
        double frac = 0.0;
    };

    /**
     * @return where @p limit (below UINT64_MAX) cuts this layout.
     * Every bucket below the split one is whole and every bucket above
     * it starts past the limit; a limit beyond the covered range cuts
     * the saturating last bucket whole.
     */
    Split
    splitAt(std::uint64_t limit) const
    {
        const unsigned b = bucketOf(limit);
        const std::uint64_t lo = bucketLow(b);
        return {b, std::min(1.0, static_cast<double>(limit - lo + 1) /
                                     static_cast<double>(bucketHigh(b) - lo))};
    }

    /** @return whether @p other has the same bucket layout. */
    bool
    sameLayout(const LogHistogram &other) const
    {
        return subBits == other.subBits &&
               counts.size() == other.counts.size();
    }

    /** @return the raw count in bucket @p b. */
    std::uint64_t count(unsigned b) const { return counts[b]; }

    /** @return the number of buckets. */
    unsigned
    numBuckets() const
    {
        return static_cast<unsigned>(counts.size());
    }

    /** @return the total number of observations. */
    std::uint64_t total() const { return totalCount; }

    /**
     * @return the number of observations with value <= @p limit,
     * attributing a bucket fractionally when @p limit splits it
     * (linear interpolation within the bucket).
     */
    double countAtOrBelow(std::uint64_t limit) const;

    /** Halve every counter (epoch aging). */
    void decay();

    /** Zero every counter. */
    void clear();

    /** Accumulate another histogram (bucket layout must match). */
    void merge(const LogHistogram &other);

  private:
    unsigned subBits;
    std::vector<std::uint64_t> counts;
    std::uint64_t totalCount;
};

/**
 * Cumulative view of a LogHistogram, built once in one pass so that
 * repeated CDF probes cost O(1): the PC selection and the model's
 * replay of it probe each candidate's next-use CDF once per candidate
 * flip.  A probe returns exactly LogHistogram::countAtOrBelow()'s
 * value (bit for bit) while the histogram's total stays below 2^53:
 * the whole buckets sum to an integer prefix that a double holds
 * exactly, and the one bucket the limit splits is interpolated with
 * the same expression (a whole or empty bucket adds its exact count).
 * The view keeps a pointer to the histogram's layout, so the histogram
 * must outlive it.
 */
class LogHistogramCdf
{
  public:
    explicit LogHistogramCdf(const LogHistogram &hist);

    /** @return the viewed histogram's countAtOrBelow(@p limit). */
    double
    atOrBelow(std::uint64_t limit) const
    {
        return at(hist->splitAt(limit));
    }

    /**
     * @return atOrBelow() of the limit @p split was taken at, by any
     * histogram with the viewed one's layout (so callers probing many
     * views at one limit split it once).
     */
    double
    at(const LogHistogram::Split &split) const
    {
        const double below = cum[split.bucket];
        return below + (cum[split.bucket + 1] - below) * split.frac;
    }

  private:
    const LogHistogram *hist;
    /** cum[b] = observations in buckets [0, b), exact below 2^53. */
    std::vector<double> cum;
};

} // namespace nucache

#endif // NUCACHE_COMMON_HISTOGRAM_HH
