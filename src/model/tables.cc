#include "model/tables.hh"

#include <cmath>

#include "model/profile.hh"

namespace nucache::model
{

namespace
{

/**
 * Expected distinct blocks the profiled stream touches in a window of
 * @p n of its own consecutive LLC accesses.  Every cold access opens
 * a block; a reused access opens one iff its previous touch fell
 * before the window, which across random window alignments happens
 * with probability min(delta, n) / n for time distance delta.  Capped
 * by the stream's whole footprint — this cap is what keeps a small
 * resident working set from being modeled as endless pollution.
 */
double
distinctBlocks(const WorkloadProfile &p, const HistView &time, double n)
{
    if (n <= 0.0 || p.llcAccesses == 0)
        return 0.0;
    const double accesses = static_cast<double>(p.llcAccesses);
    const double cold = static_cast<double>(p.coldAccesses);
    const double opened = (n * cold + time.clampedSum(n)) / accesses;
    return std::min(cold, std::min(n, opened));
}

/**
 * @return the cold (first-touch) rate of the profiled stream in its
 * window's second half — the footprint growth rate at the window's
 * edge, which is the right extrapolation for accesses past it.
 */
double
tailColdRateOf(const WorkloadProfile &p)
{
    if (p.llcAccesses == 0)
        return 0.0;
    const double half = static_cast<double>(p.llcAccesses) / 2.0;
    const double early = p.coldArrival.countAtOrBelow(
        static_cast<std::uint64_t>(half));
    const double late = static_cast<double>(p.coldAccesses) - early;
    return std::clamp(late / half, 0.0, 1.0);
}

} // anonymous namespace

HistView::HistView(const LogHistogram &h)
{
    for (unsigned b = 0; b < h.numBuckets(); ++b) {
        if (h.count(b) == 0)
            continue;
        mid.push_back(0.5 * (static_cast<double>(h.bucketLow(b)) +
                             static_cast<double>(h.bucketHigh(b))));
        cnt.push_back(static_cast<double>(h.count(b)));
    }
}

WindowTable::WindowTable(const WorkloadProfile &p)
    : cold(static_cast<double>(p.coldAccesses))
{
    const HistView time(p.reuseTime);
    const double growth = std::pow(kMaxWindow, 1.0 / (kPoints - 1));
    double x = 1.0;
    for (int k = 0; k < kPoints; ++k, x *= growth) {
        n[k] = x;
        db[k] = distinctBlocks(p, time, x);
    }
    for (unsigned e = 0; e < kOctaves; ++e) {
        octaveBase[e] = static_cast<std::uint8_t>(
            std::upper_bound(n.begin(), n.end(), std::ldexp(1.0, e)) -
            n.begin());
    }
}

ModelTables::ModelTables(const WorkloadProfile &p)
    : window(p), reuse(p.reuse), reuseCdf(p.reuse),
      tailColdRate(tailColdRateOf(p))
{
    const std::size_t take =
        std::min(kDeliCandidatesPerCore, p.pcs.size());
    nextUse.reserve(take);
    for (std::size_t k = 0; k < take; ++k)
        nextUse.emplace_back(p.pcs[k].nextUse);
}

} // namespace nucache::model
