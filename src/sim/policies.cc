#include "sim/policies.hh"

#include <iterator>

#include "common/logging.hh"
#include "core/nucache.hh"
#include "mem/lru.hh"
#include "policy/dip.hh"
#include "policy/hawkeye.hh"
#include "policy/nru.hh"
#include "policy/pipp.hh"
#include "policy/random.hh"
#include "policy/rrip.hh"
#include "policy/ship.hh"
#include "policy/ucp.hh"

namespace nucache
{

namespace
{

using PolicyPtr = std::unique_ptr<ReplacementPolicy>;

constexpr std::uint64_t kU32Max = 0xffffffffu;

/**
 * NUcache's keys.  Each maximum fits the 32-bit field the value lands
 * in; a board is non-empty and at most 2^20 entries per core (more
 * would allocate without bound), and a sampling shift stays below the
 * word width.
 */
constexpr spec::Key kNucacheKeys[] = {
    {"d", 0, kU32Max},
    {"epoch", 1},
    {"topk", 0, kU32Max},
    {"pool", 0, kU32Max},
    {"maxsel", 0, kU32Max},
    {"board", 1, std::uint64_t{1} << 20},
    {"shift", 0, 31},
};
constexpr spec::Key kEpochKeys[] = {{"epoch", 1}};
constexpr spec::Key kShiftKeys[] = {{"shift", 0, 31}};
/** The SHCT sizes ShipPolicy accepts. */
constexpr spec::Key kShipKeys[] = {{"shct", 1, 24}};

/** One policy family: its grammar and its factory. */
struct PolicyRow : spec::Family
{
    PolicyPtr (*make)(const spec::Spec &);
};

template <class P>
PolicyPtr
makePlain(const spec::Spec &)
{
    return std::make_unique<P>();
}

template <NUcacheConfig::Selection Mode, bool Adaptive = false>
PolicyPtr
makeNucache(const spec::Spec &s)
{
    NUcacheConfig cfg;
    cfg.selection = Mode;
    cfg.adaptiveDeli = Adaptive;
    cfg.deliWays = static_cast<std::uint32_t>(s.get("d", cfg.deliWays));
    cfg.epochMisses = s.get("epoch", cfg.epochMisses);
    cfg.topK = static_cast<std::uint32_t>(s.get("topk", cfg.topK));
    cfg.selector.candidatePcs = static_cast<std::uint32_t>(
        s.get("pool", cfg.selector.candidatePcs));
    cfg.selector.maxSelected = static_cast<std::uint32_t>(
        s.get("maxsel", cfg.selector.maxSelected));
    cfg.monitor.boardEntries = static_cast<std::uint32_t>(
        s.get("board", cfg.monitor.boardEntries));
    cfg.monitor.sampleShift = static_cast<unsigned>(
        s.get("shift", cfg.monitor.sampleShift));
    return std::make_unique<NUcachePolicy>(cfg);
}

/** UCP and PIPP: an epoch length in accesses. */
template <class P, class Config>
PolicyPtr
makeEpochal(const spec::Spec &s)
{
    Config cfg;
    cfg.epochAccesses = s.get("epoch", cfg.epochAccesses);
    return std::make_unique<P>(cfg);
}

PolicyPtr
makeHawkeye(const spec::Spec &s)
{
    HawkeyeConfig cfg;
    cfg.sampleShift = static_cast<unsigned>(s.get("shift", cfg.sampleShift));
    return std::make_unique<HawkeyePolicy>(cfg);
}

PolicyPtr
makeShip(const spec::Spec &s)
{
    ShipConfig cfg;
    cfg.shctLogSize = static_cast<unsigned>(s.get("shct", cfg.shctLogSize));
    return std::make_unique<ShipPolicy>(cfg);
}

using Sel = NUcacheConfig::Selection;

/** Every policy family, in allPolicyNames() order. */
constexpr PolicyRow kPolicies[] = {
    {{"lru"}, makePlain<LruPolicy>},
    {{"random"}, makePlain<RandomPolicy>},
    {{"nru"}, makePlain<NruPolicy>},
    {{"lip"}, makePlain<LipPolicy>},
    {{"srrip"}, makePlain<SrripPolicy>},
    {{"brrip"}, makePlain<BrripPolicy>},
    {{"drrip"}, makePlain<DrripPolicy>},
    {{"tadrrip"}, makePlain<TaDrripPolicy>},
    {{"dip"}, makePlain<DipPolicy>},
    {{"tadip"}, makePlain<TadipPolicy>},
    {{"ship", kShipKeys}, makeShip},
    {{"hawkeye", kShiftKeys}, makeHawkeye},
    {{"ucp", kEpochKeys}, makeEpochal<UcpPolicy, UcpConfig>},
    {{"pipp", kEpochKeys}, makeEpochal<PippPolicy, PippConfig>},
    {{"nucache", kNucacheKeys}, makeNucache<Sel::CostBenefit>},
    {{"nucache-adaptive", kNucacheKeys},
     makeNucache<Sel::CostBenefit, true>},
    {{"nucache-topk", kNucacheKeys}, makeNucache<Sel::TopK>},
    {{"nucache-all", kNucacheKeys}, makeNucache<Sel::All>},
    {{"nucache-none", kNucacheKeys}, makeNucache<Sel::None>},
};
static_assert(std::size(kNucacheKeys) <= spec::kMaxKeys);

} // anonymous namespace

bool
parsePolicySpec(std::string_view text, spec::Spec &out, std::string &err)
{
    return spec::parse<PolicyRow>(text, kPolicies, "policy", out, err) !=
           nullptr;
}

std::unique_ptr<ReplacementPolicy>
makePolicy(const std::string &spec)
{
    spec::Spec parsed;
    std::string err;
    const PolicyRow *row =
        spec::parse<PolicyRow>(spec, kPolicies, "policy", parsed, err);
    if (row == nullptr)
        fatal("policy spec '", spec, "': ", err);
    return row->make(parsed);
}

bool
validatePolicyForLlc(const spec::Spec &policy, std::uint32_t llc_ways,
                     std::uint32_t cores, std::string &err)
{
    const std::string_view name = policy.family->name;
    const std::uint64_t deli = policy.get("d", 0);
    if (name.starts_with("nucache") && deli >= llc_ways) {
        err = "policy '" + policy.canonical() + "': d=" +
              std::to_string(deli) + " DeliWays leave no MainWay in a " +
              std::to_string(llc_ways) + "-way LLC";
        return false;
    }
    if ((name == "ucp" || name == "pipp") && llc_ways < cores) {
        err = "policy '" + std::string(name) +
              "' needs at least one LLC way per core (" +
              std::to_string(llc_ways) + " ways, " +
              std::to_string(cores) + " cores)";
        return false;
    }
    return true;
}

const std::vector<std::string> &
evaluationPolicySet()
{
    static const std::vector<std::string> set = {
        "lru", "dip", "tadip", "ucp", "pipp", "nucache",
    };
    return set;
}

const std::vector<std::string> &
allPolicyNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const PolicyRow &row : kPolicies)
            v.emplace_back(row.name);
        return v;
    }();
    return names;
}

} // namespace nucache
