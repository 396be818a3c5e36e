#include "policy/dip.hh"

#include "common/simd.hh"
#include "obs/telemetry.hh"

namespace nucache
{

void
InsertionLruBase::init(const PolicyContext &ctx)
{
    ReplacementPolicy::init(ctx);
    lastTouch.assign(
        static_cast<std::size_t>(ctx.numSets) * ctx.numWays, 0);
}

std::uint32_t
InsertionLruBase::victimWay(const SetView &set, const AccessInfo &info)
{
    (void)info;
    return simd::minIndex64(&lastTouch[slot(set.setIndex(), 0)],
                            set.ways());
}

void
InsertionLruBase::onHit(const SetView &set, std::uint32_t way,
                        const AccessInfo &info)
{
    lastTouch[slot(set.setIndex(), way)] = info.tick;
}

void
InsertionLruBase::onFill(const SetView &set, std::uint32_t way,
                         const AccessInfo &info)
{
    if (insertAtMru(set, info)) {
        lastTouch[slot(set.setIndex(), way)] = info.tick;
        return;
    }
    // LRU insertion: stamp just below the current minimum of the other
    // valid lines so this line is the next victim unless it is reused
    // first; in an otherwise empty set the position is irrelevant.
    const Tick *row = &lastTouch[slot(set.setIndex(), 0)];
    const std::uint32_t lru = simd::minIndexMasked64(
        row, set.ways(), set.validMask() & ~(std::uint64_t{1} << way));
    const Tick oldest = lru != set.ways() ? row[lru] : 1;
    lastTouch[slot(set.setIndex(), way)] = oldest > 0 ? oldest - 1 : 0;
}

void
DipPolicy::init(const PolicyContext &ctx)
{
    InsertionLruBase::init(ctx);
    leaders = std::make_unique<LeaderSets>(ctx.numSets, duelSpacing);
    psel = SaturatingCounter{10};
}

void
DipPolicy::onMiss(const SetView &set, const AccessInfo &info)
{
    (void)info;
    // Misses in LRU-insertion leaders favour BIP and vice versa.
    const int team = leaders->teamOf(set.setIndex());
    if (team == 0)
        psel.up();
    else if (team == 1)
        psel.down();
}

void
DipPolicy::addProbes(obs::Sampler &sampler, const Cache &) const
{
    sampler.addProbe("dip.psel", [this] {
        return static_cast<double>(psel.value());
    });
}

bool
DipPolicy::insertAtMru(const SetView &set, const AccessInfo &info)
{
    (void)info;
    const int team = leaders->teamOf(set.setIndex());
    const bool use_bip = team == 1 || (team == -1 && psel.high());
    if (!use_bip)
        return true;
    return rng.chance(eps);
}

void
TadipPolicy::init(const PolicyContext &ctx)
{
    InsertionLruBase::init(ctx);
    psels.assign(ctx.numCores, SaturatingCounter{10});
    leaders.clear();
    for (std::uint32_t c = 0; c < ctx.numCores; ++c)
        leaders.emplace_back(ctx.numSets, duelSpacing, c);
}

void
TadipPolicy::onMiss(const SetView &set, const AccessInfo &info)
{
    // Only the owning core's leader sets train its PSEL, and only on
    // its own misses (the "feedback" variant).
    const int team = leaders[info.coreId].teamOf(set.setIndex());
    if (team == 0)
        psels[info.coreId].up();
    else if (team == 1)
        psels[info.coreId].down();
}

void
TadipPolicy::addProbes(obs::Sampler &sampler, const Cache &) const
{
    for (std::uint32_t c = 0; c < psels.size(); ++c) {
        sampler.addProbe("tadip.psel.core" + std::to_string(c), [this, c] {
            return static_cast<double>(psels[c].value());
        });
    }
}

bool
TadipPolicy::insertAtMru(const SetView &set, const AccessInfo &info)
{
    const int team = leaders[info.coreId].teamOf(set.setIndex());
    const bool use_bip =
        team == 1 || (team == -1 && psels[info.coreId].high());
    if (!use_bip)
        return true;
    return rng.chance(eps);
}

} // namespace nucache
