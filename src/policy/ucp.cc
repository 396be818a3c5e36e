#include "policy/ucp.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace nucache
{

std::vector<std::uint32_t>
lookaheadPartition(const std::vector<std::vector<std::uint64_t>> &curves,
                   std::uint32_t total_ways, std::uint32_t min_per_core)
{
    const std::uint32_t cores = static_cast<std::uint32_t>(curves.size());
    if (cores == 0)
        fatal("lookaheadPartition: no cores");
    if (static_cast<std::uint64_t>(min_per_core) * cores > total_ways)
        fatal("lookaheadPartition: ", total_ways, " ways cannot give ",
              cores, " cores ", min_per_core, " each");
    for (const auto &c : curves) {
        if (c.size() < total_ways)
            fatal("lookaheadPartition: utility curve shorter than ways");
    }

    // hits(c, w): estimated hits of core c with w ways (w >= 1).
    const auto hits = [&](std::uint32_t c, std::uint32_t w) {
        return w == 0 ? 0 : curves[c][w - 1];
    };

    std::vector<std::uint32_t> alloc(cores, min_per_core);
    std::uint32_t balance =
        total_ways - min_per_core * cores;

    while (balance > 0) {
        // For each core, the best marginal utility per way over every
        // feasible claim size ("lookahead" beyond the immediate next
        // way, which handles convex regions of the curve).
        double best_mu = -1.0;
        std::uint32_t best_core = 0;
        std::uint32_t best_claim = 1;
        for (std::uint32_t c = 0; c < cores; ++c) {
            for (std::uint32_t claim = 1; claim <= balance; ++claim) {
                const std::uint64_t gain =
                    hits(c, alloc[c] + claim) - hits(c, alloc[c]);
                const double mu =
                    static_cast<double>(gain) / static_cast<double>(claim);
                // Ties break towards the least-allocated core so that
                // identical utility curves split evenly instead of
                // degenerating to first-come-takes-all.
                const bool better =
                    mu > best_mu ||
                    (mu == best_mu && alloc[c] < alloc[best_core]);
                if (better) {
                    best_mu = mu;
                    best_core = c;
                    best_claim = claim;
                }
            }
        }
        alloc[best_core] += best_claim;
        balance -= best_claim;
    }
    return alloc;
}

UcpPolicy::UcpPolicy(const UcpConfig &config)
    : cfg(config)
{
    if (cfg.epochAccesses == 0)
        fatal("UCP: epoch length must be non-zero");
}

void
UcpPolicy::init(const PolicyContext &ctx)
{
    ReplacementPolicy::init(ctx);
    monitors.clear();
    for (std::uint32_t c = 0; c < ctx.numCores; ++c) {
        monitors.emplace_back(ctx.numSets, ctx.numWays, cfg.sampleShift);
    }
    // Initial quota: equal split, remainder to the low cores.
    quota.assign(ctx.numCores, ctx.numWays / ctx.numCores);
    for (std::uint32_t c = 0; c < ctx.numWays % ctx.numCores; ++c)
        ++quota[c];
    if (ctx.numWays < ctx.numCores)
        fatal("UCP needs at least one way per core (", ctx.numWays,
              " ways, ", ctx.numCores, " cores)");
    if (ctx.numCores >= noOwner)
        fatal("UCP: ", ctx.numCores, " cores exceed the owner byte");
    lastTouch.assign(
        static_cast<std::size_t>(ctx.numSets) * ctx.numWays, 0);
    owner.assign(static_cast<std::size_t>(ctx.numSets) * ctx.numWays,
                 noOwner);
    coreWays.assign(ctx.numCores, 0);
    accessCount = 0;
}

void
UcpPolicy::observe(const SetView &set, const AccessInfo &info)
{
    monitors[info.coreId].observe(set.setIndex(),
                                  info.addr / context.blockSize);
    if (++accessCount % cfg.epochAccesses == 0)
        repartition();
}

void
UcpPolicy::repartition()
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
    quota = lookaheadPartition(curves, context.numWays, 1);
}

bool
UcpPolicy::checkInvariants(const SetView &set, std::string &why) const
{
    if (quota.size() != context.numCores) {
        why = std::to_string(quota.size()) + " quotas for " +
              std::to_string(context.numCores) + " cores";
        return false;
    }
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < quota.size(); ++c) {
        if (quota[c] == 0) {
            why = "core " + std::to_string(c) + " has a zero quota";
            return false;
        }
        total += quota[c];
    }
    if (total != context.numWays) {
        why = "quotas sum to " + std::to_string(total) + " of " +
              std::to_string(context.numWays) + " ways";
        return false;
    }
    const Tick *stamps = &lastTouch[slot(set.setIndex(), 0)];
    const std::uint8_t *owners = &owner[slot(set.setIndex(), 0)];
    const std::uint64_t valid = set.validMask();
    for (std::uint64_t v = valid; v != 0; v &= v - 1) {
        const auto a = static_cast<std::uint32_t>(std::countr_zero(v));
        if (owners[a] >= context.numCores) {
            why = "valid line in way " + std::to_string(a) +
                  " owned by core " + std::to_string(owners[a]) +
                  " but only " + std::to_string(context.numCores) +
                  " cores registered";
            return false;
        }
        if (stamps[a] == 0) {
            why = "valid line in way " + std::to_string(a) +
                  " has no recency stamp";
            return false;
        }
        for (std::uint64_t o = v & (v - 1); o != 0; o &= o - 1) {
            const auto b = static_cast<std::uint32_t>(std::countr_zero(o));
            if (stamps[b] == stamps[a]) {
                why = "ways " + std::to_string(a) + " and " +
                      std::to_string(b) + " share recency stamp " +
                      std::to_string(stamps[a]);
                return false;
            }
        }
    }
    return true;
}

std::uint32_t
UcpPolicy::victimWay(const SetView &set, const AccessInfo &info)
{
    // Per-core way masks of the set; occupancy is their popcount.
    const std::uint8_t *owners = &owner[slot(set.setIndex(), 0)];
    const std::uint64_t valid = set.validMask();
    std::fill(coreWays.begin(), coreWays.end(), std::uint64_t{0});
    for (std::uint64_t v = valid; v != 0; v &= v - 1) {
        const auto w = static_cast<std::uint32_t>(std::countr_zero(v));
        if (owners[w] < context.numCores)
            coreWays[owners[w]] |= std::uint64_t{1} << w;
    }
    const auto occupancy = [&](CoreId c) {
        return static_cast<std::uint32_t>(std::popcount(coreWays[c]));
    };

    const CoreId me = info.coreId;
    if (occupancy(me) < quota[me]) {
        // Someone must be over quota; take their LRU line.
        std::uint64_t over = 0;
        for (CoreId c = 0; c < context.numCores; ++c) {
            if (occupancy(c) > quota[c])
                over |= coreWays[c];
        }
        const std::uint32_t v = lruAmong(set, over);
        if (v != set.ways())
            return v;
        // Transient (e.g.\ right after repartitioning): fall through to
        // global LRU.
    }
    // At or above quota: replace within my own lines if I have any.
    const std::uint32_t own = lruAmong(set, coreWays[me]);
    if (own != set.ways())
        return own;
    return lruAmong(set, valid);
}

void
UcpPolicy::onHit(const SetView &set, std::uint32_t way,
                 const AccessInfo &info)
{
    lastTouch[slot(set.setIndex(), way)] = info.tick;
    observe(set, info);
}

void
UcpPolicy::onMiss(const SetView &set, const AccessInfo &info)
{
    observe(set, info);
}

void
UcpPolicy::onFill(const SetView &set, std::uint32_t way,
                  const AccessInfo &info)
{
    lastTouch[slot(set.setIndex(), way)] = info.tick;
    owner[slot(set.setIndex(), way)] = static_cast<std::uint8_t>(info.coreId);
}

} // namespace nucache
