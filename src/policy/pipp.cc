#include "policy/pipp.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.hh"
#include "policy/ucp.hh"

namespace nucache
{

PippPolicy::PippPolicy(const PippConfig &config)
    : cfg(config)
{
    if (cfg.epochAccesses == 0)
        fatal("PIPP: epoch length must be non-zero");
}

void
PippPolicy::init(const PolicyContext &ctx)
{
    ReplacementPolicy::init(ctx);
    if (ctx.numWays >= noRank)
        fatal("PIPP: associativity ", ctx.numWays, " exceeds rank range");
    monitors.clear();
    for (std::uint32_t c = 0; c < ctx.numCores; ++c)
        monitors.emplace_back(ctx.numSets, ctx.numWays, cfg.sampleShift);
    alloc.assign(ctx.numCores, ctx.numWays / ctx.numCores);
    for (std::uint32_t c = 0; c < ctx.numWays % ctx.numCores; ++c)
        ++alloc[c];
    if (ctx.numWays < ctx.numCores)
        fatal("PIPP needs at least one way per core");
    order.assign(static_cast<std::size_t>(ctx.numSets) * ctx.numWays, 0);
    count.assign(ctx.numSets, 0);
    accessCount = 0;
}

std::uint8_t
PippPolicy::position(std::uint32_t set, std::uint32_t way) const
{
    const std::uint8_t *r = row(set);
    const void *at = std::memchr(r, static_cast<int>(way), count[set]);
    return at != nullptr
        ? static_cast<std::uint8_t>(static_cast<const std::uint8_t *>(at) -
                                    r)
        : noRank;
}

std::uint32_t
PippPolicy::rankOf(std::uint32_t set, std::uint32_t way) const
{
    return position(set, way);
}

void
PippPolicy::observe(const SetView &set, const AccessInfo &info)
{
    monitors[info.coreId].observe(set.setIndex(),
                                  info.addr / context.blockSize);
    if (++accessCount % cfg.epochAccesses == 0)
        reallocate();
}

void
PippPolicy::reallocate()
{
    std::vector<std::vector<std::uint64_t>> curves;
    curves.reserve(monitors.size());
    for (auto &m : monitors) {
        std::vector<std::uint64_t> curve(context.numWays, 0);
        for (std::uint32_t w = 1; w <= context.numWays; ++w)
            curve[w - 1] = m.hitsWithWays(w);
        curves.push_back(std::move(curve));
        m.decay();
    }
    alloc = lookaheadPartition(curves, context.numWays, 1);
}

bool
PippPolicy::checkInvariants(const SetView &set, std::string &why) const
{
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < alloc.size(); ++c) {
        if (alloc[c] == 0) {
            why = "core " + std::to_string(c) + " has a zero allocation";
            return false;
        }
        total += alloc[c];
    }
    if (alloc.size() != context.numCores || total != context.numWays) {
        why = "allocations sum to " + std::to_string(total) + " of " +
              std::to_string(context.numWays) + " ways";
        return false;
    }

    // The order row must hold each valid way exactly once and nothing
    // else: the victim path takes the first entry and the promotion
    // path swaps neighbours, so a duplicate or a stray entry silently
    // pins lines in place.
    const std::uint8_t *r = row(set.setIndex());
    const std::uint32_t n = count[set.setIndex()];
    std::uint64_t seen = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t w = r[i];
        if (w >= set.ways() || ((set.validMask() >> w) & 1) == 0) {
            why = "rank " + std::to_string(i) + " holds way " +
                  std::to_string(w) + ", which is not a valid line";
            return false;
        }
        if (((seen >> w) & 1) != 0) {
            why = "way " + std::to_string(w) + " ranked twice (rank " +
                  std::to_string(i) + ")";
            return false;
        }
        seen |= std::uint64_t{1} << w;
    }
    if (seen != set.validMask()) {
        why = std::to_string(std::popcount(set.validMask() & ~seen)) +
              " valid lines missing from the " + std::to_string(n) +
              "-line rank order";
        return false;
    }
    return true;
}

std::uint32_t
PippPolicy::victimWay(const SetView &set, const AccessInfo &info)
{
    (void)info;
    // The victim is the lowest-ranked valid line.
    const std::uint8_t *r = row(set.setIndex());
    const std::uint32_t n = count[set.setIndex()];
    for (std::uint32_t i = 0; i < n; ++i) {
        if (((set.validMask() >> r[i]) & 1) != 0)
            return r[i];
    }
    return 0;
}

void
PippPolicy::onHit(const SetView &set, std::uint32_t way,
                  const AccessInfo &info)
{
    observe(set, info);
    if (!rng.chance(cfg.promoteProb))
        return;
    // Promote by one: swap places with the line directly above.
    const std::uint32_t p = position(set.setIndex(), way);
    std::uint8_t *r = row(set.setIndex());
    if (p + 1 < count[set.setIndex()])
        std::swap(r[p], r[p + 1]);
}

void
PippPolicy::onMiss(const SetView &set, const AccessInfo &info)
{
    observe(set, info);
}

void
PippPolicy::onEvict(const SetView &set, std::uint32_t way,
                    const CacheLine &victim, const AccessInfo &info)
{
    (void)victim;
    (void)info;
    // Close the rank gap left by the departing line.
    const std::uint32_t p = position(set.setIndex(), way);
    std::uint8_t &n = count[set.setIndex()];
    if (p == noRank)
        return;
    std::uint8_t *r = row(set.setIndex());
    std::memmove(r + p, r + p + 1, n - p - 1);
    --n;
}

void
PippPolicy::onFill(const SetView &set, std::uint32_t way,
                   const AccessInfo &info)
{
    std::uint8_t *r = row(set.setIndex());
    std::uint8_t &n = count[set.setIndex()];
    // Every ranked way but the one just filled is valid, unless a line
    // left through Cache::invalidate (never on an LLC): then drop the
    // entries of invalid ways and of this way before inserting.
    if (n >= std::popcount(set.validMask())) {
        std::uint32_t kept = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (r[i] != way && ((set.validMask() >> r[i]) & 1) != 0)
                r[kept++] = r[i];
        }
        n = static_cast<std::uint8_t>(kept);
    }

    // Insert at this core's priority: pi - 1 positions above LRU,
    // clamped to the currently occupied range.
    const std::uint32_t pi = alloc[info.coreId];
    const std::uint32_t pos = std::min<std::uint32_t>(pi == 0 ? 0 : pi - 1, n);
    std::memmove(r + pos + 1, r + pos, n - pos);
    r[pos] = static_cast<std::uint8_t>(way);
    ++n;
}

} // namespace nucache
