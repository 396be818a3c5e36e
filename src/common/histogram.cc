#include "common/histogram.hh"

#include "common/logging.hh"

#include <algorithm>

namespace nucache
{

LogHistogram::LogHistogram(unsigned max_log2, unsigned sub_bits)
    : subBits(sub_bits), totalCount(0)
{
    if (max_log2 < sub_bits + 1 || max_log2 > 62)
        fatal("LogHistogram: max_log2 ", max_log2, " out of range");
    if (sub_bits > 6)
        fatal("LogHistogram: sub_bits ", sub_bits, " out of range");
    // Octaves [subBits, max_log2] each contribute 2^subBits buckets on
    // top of the 2^subBits exact unit buckets below them.
    const unsigned base = 1u << subBits;
    counts.assign((max_log2 - subBits + 1) * base + base, 0);
}

void
LogHistogram::add(std::uint64_t value, std::uint64_t count)
{
    counts[bucketOf(value)] += count;
    totalCount += count;
}

double
LogHistogram::countAtOrBelow(std::uint64_t limit) const
{
    double covered = 0.0;
    for (unsigned b = 0; b < numBuckets(); ++b) {
        if (counts[b] == 0)
            continue;
        const std::uint64_t lo = bucketLow(b);
        const std::uint64_t hi = bucketHigh(b);
        if (hi <= limit + 1) {
            covered += static_cast<double>(counts[b]);
        } else if (lo <= limit) {
            const double frac = static_cast<double>(limit - lo + 1) /
                                static_cast<double>(hi - lo);
            covered += static_cast<double>(counts[b]) * frac;
        }
    }
    return covered;
}

LogHistogramCdf::LogHistogramCdf(const LogHistogram &h)
    : hist(&h), cum(h.numBuckets() + 1, 0.0)
{
    std::uint64_t below = 0;
    for (unsigned b = 0; b < h.numBuckets(); ++b) {
        below += h.count(b);
        cum[b + 1] = static_cast<double>(below);
    }
}

void
LogHistogram::decay()
{
    totalCount = 0;
    for (auto &c : counts) {
        c >>= 1;
        totalCount += c;
    }
}

void
LogHistogram::clear()
{
    std::fill(counts.begin(), counts.end(), 0);
    totalCount = 0;
}

void
LogHistogram::merge(const LogHistogram &other)
{
    if (!sameLayout(other))
        panic("LogHistogram::merge: bucket layout mismatch");
    for (unsigned b = 0; b < numBuckets(); ++b)
        counts[b] += other.counts[b];
    totalCount += other.totalCount;
}

} // namespace nucache
