#include "policy/hawkeye.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace nucache
{

HawkeyePolicy::HawkeyePolicy(const HawkeyeConfig &config)
    : cfg(config)
{
    if (cfg.predictorLogSize == 0 || cfg.predictorLogSize > 24)
        fatal("Hawkeye: predictor log size out of range");
    if (cfg.historyFactor == 0)
        fatal("Hawkeye: history factor must be non-zero");
}

void
HawkeyePolicy::init(const PolicyContext &ctx)
{
    ReplacementPolicy::init(ctx);

    unsigned shift = cfg.sampleShift;
    if ((ctx.numSets >> shift) == 0)
        shift = 0;  // tiny caches: sample everything
    setToSample.assign(ctx.numSets, -1);
    std::uint32_t sampled = 0;
    for (std::uint32_t s = 0; s < ctx.numSets; ++s) {
        if ((mix64(s) & ((std::uint64_t{1} << shift) - 1)) == 0)
            setToSample[s] = static_cast<std::int32_t>(sampled++);
    }
    histories.assign(sampled, {});

    // Counters start weakly friendly so cold signatures get a chance
    // to demonstrate reuse.
    predictor.assign(std::size_t{1} << cfg.predictorLogSize, 4);
    age.assign(static_cast<std::size_t>(ctx.numSets) * ctx.numWays,
               maxAge);
    allocPc.assign(static_cast<std::size_t>(ctx.numSets) * ctx.numWays,
                   invalidPC);
    optHits = 0;
    optMisses = 0;
}

std::uint32_t
HawkeyePolicy::signatureOf(PC pc) const
{
    return static_cast<std::uint32_t>(
        mix64(pc) & mask(cfg.predictorLogSize));
}

bool
HawkeyePolicy::predictsFriendly(PC pc) const
{
    return predictor[signatureOf(pc)] >= 4;
}

std::int32_t
HawkeyePolicy::sampledIndex(std::uint32_t set) const
{
    return setToSample[set];
}

void
HawkeyePolicy::optgenAccess(std::uint32_t set, Addr tag, PC pc)
{
    const std::int32_t idx = sampledIndex(set);
    if (idx < 0)
        return;
    auto &hist = histories[static_cast<std::size_t>(idx)];

    // Find the most recent previous access to this block.
    std::size_t prev = hist.size();
    for (std::size_t i = hist.size(); i-- > 0;) {
        if (hist[i].tag == tag) {
            prev = i;
            break;
        }
    }

    if (prev != hist.size()) {
        // Would OPT have kept the block across [prev, now)?  Yes iff
        // the occupancy of every intervening time slot is below the
        // associativity.
        bool opt_hit = true;
        for (std::size_t i = prev; i < hist.size(); ++i) {
            if (hist[i].occupancy >= context.numWays) {
                opt_hit = false;
                break;
            }
        }
        std::uint8_t &ctr = predictor[hist[prev].pcSig];
        if (opt_hit) {
            ++optHits;
            for (std::size_t i = prev; i < hist.size(); ++i)
                ++hist[i].occupancy;
            if (ctr < 7)
                ++ctr;
        } else {
            ++optMisses;
            if (ctr > 0)
                --ctr;
        }
    }

    HistEntry entry;
    entry.tag = tag;
    entry.pcSig = signatureOf(pc);
    hist.push_back(entry);
    const std::size_t cap =
        static_cast<std::size_t>(cfg.historyFactor) * context.numWays;
    while (hist.size() > cap)
        hist.pop_front();
}

std::uint32_t
HawkeyePolicy::victimWay(const SetView &set, const AccessInfo &info)
{
    // Predicted-dead lines first (age == maxAge).
    for (std::uint32_t w = 0; w < set.ways(); ++w) {
        if (age[slot(set.setIndex(), w)] == maxAge)
            return w;
    }
    // Otherwise the oldest friendly line; its allocating PC misled
    // the predictor, so detrain it.
    std::uint32_t victim = 0;
    std::uint8_t oldest = 0;
    for (std::uint32_t w = 0; w < set.ways(); ++w) {
        if (age[slot(set.setIndex(), w)] >= oldest) {
            oldest = age[slot(set.setIndex(), w)];
            victim = w;
        }
    }
    std::uint8_t &ctr =
        predictor[signatureOf(allocPc[slot(set.setIndex(), victim)])];
    if (ctr > 0)
        --ctr;
    (void)info;
    return victim;
}

void
HawkeyePolicy::onHit(const SetView &set, std::uint32_t way,
                     const AccessInfo &info)
{
    optgenAccess(set.setIndex(), info.addr / context.blockSize,
                 info.pc);
    age[slot(set.setIndex(), way)] =
        predictsFriendly(info.pc) ? 0 : maxAge;
}

void
HawkeyePolicy::onMiss(const SetView &set, const AccessInfo &info)
{
    optgenAccess(set.setIndex(), info.addr / context.blockSize,
                 info.pc);
}

void
HawkeyePolicy::onFill(const SetView &set, std::uint32_t way,
                      const AccessInfo &info)
{
    allocPc[slot(set.setIndex(), way)] = info.pc;
    if (!predictsFriendly(info.pc)) {
        age[slot(set.setIndex(), way)] = maxAge;
        return;
    }
    // Friendly fill: protect it and age the other friendly lines
    // (saturating below the dead level so they never look averse).
    for (std::uint32_t w = 0; w < set.ways(); ++w) {
        std::uint8_t &a = age[slot(set.setIndex(), w)];
        if (w != way && a < maxAge - 1)
            ++a;
    }
    age[slot(set.setIndex(), way)] = 0;
}

} // namespace nucache
