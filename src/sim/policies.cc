#include "sim/policies.hh"

#include <algorithm>
#include <map>

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

/** Split "name:key=v,key=v" into name and a key/value map. */
std::pair<std::string, std::map<std::string, std::string>>
parseSpec(const std::string &spec)
{
    const auto colon = spec.find(':');
    std::pair<std::string, std::map<std::string, std::string>> out;
    out.first = spec.substr(0, colon);
    if (colon == std::string::npos)
        return out;
    std::string rest = spec.substr(colon + 1);
    std::size_t pos = 0;
    while (pos < rest.size()) {
        const auto comma = rest.find(',', pos);
        const std::string item =
            rest.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        const auto eq = item.find('=');
        if (eq == std::string::npos || eq == 0)
            fatal("policy spec '", spec, "': bad option '", item, "'");
        out.second[item.substr(0, eq)] = item.substr(eq + 1);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

std::uint64_t
intOpt(const std::map<std::string, std::string> &opts,
       const std::string &key, std::uint64_t def)
{
    const auto it = opts.find(key);
    if (it == opts.end())
        return def;
    return std::stoull(it->second);
}

NUcacheConfig
nucacheConfigFrom(const std::map<std::string, std::string> &opts,
                  NUcacheConfig::Selection mode)
{
    NUcacheConfig cfg;
    cfg.selection = mode;
    cfg.deliWays = static_cast<std::uint32_t>(intOpt(opts, "d", 0));
    cfg.epochMisses = intOpt(opts, "epoch", cfg.epochMisses);
    cfg.topK = static_cast<std::uint32_t>(intOpt(opts, "topk", cfg.topK));
    cfg.selector.candidatePcs = static_cast<std::uint32_t>(
        intOpt(opts, "pool", cfg.selector.candidatePcs));
    cfg.selector.maxSelected = static_cast<std::uint32_t>(
        intOpt(opts, "maxsel", cfg.selector.maxSelected));
    cfg.monitor.boardEntries = static_cast<std::uint32_t>(
        intOpt(opts, "board", cfg.monitor.boardEntries));
    cfg.monitor.sampleShift =
        static_cast<unsigned>(intOpt(opts, "shift",
                                     cfg.monitor.sampleShift));
    return cfg;
}

/**
 * Largest per-core victim board a spec may ask for.  Larger values
 * would wrap the 32-bit entry count (board=4294967296 reads as 0) or
 * allocate without bound.
 */
constexpr std::uint64_t kMaxBoardEntries = std::uint64_t{1} << 20;

} // anonymous namespace

std::unique_ptr<ReplacementPolicy>
makePolicy(const std::string &spec)
{
    std::string err;
    if (!validatePolicySpec(spec, err))
        fatal(err);
    const auto [name, opts] = parseSpec(spec);

    if (name == "lru")
        return std::make_unique<LruPolicy>();
    if (name == "random")
        return std::make_unique<RandomPolicy>();
    if (name == "nru")
        return std::make_unique<NruPolicy>();
    if (name == "srrip")
        return std::make_unique<SrripPolicy>();
    if (name == "brrip")
        return std::make_unique<BrripPolicy>();
    if (name == "drrip")
        return std::make_unique<DrripPolicy>();
    if (name == "lip")
        return std::make_unique<LipPolicy>();
    if (name == "dip")
        return std::make_unique<DipPolicy>();
    if (name == "tadip")
        return std::make_unique<TadipPolicy>();
    if (name == "tadrrip")
        return std::make_unique<TaDrripPolicy>();
    if (name == "hawkeye") {
        HawkeyeConfig cfg;
        cfg.sampleShift = static_cast<unsigned>(
            intOpt(opts, "shift", cfg.sampleShift));
        return std::make_unique<HawkeyePolicy>(cfg);
    }
    if (name == "ship") {
        ShipConfig cfg;
        cfg.shctLogSize = static_cast<unsigned>(
            intOpt(opts, "shct", cfg.shctLogSize));
        return std::make_unique<ShipPolicy>(cfg);
    }
    if (name == "ucp") {
        UcpConfig cfg;
        cfg.epochAccesses = intOpt(opts, "epoch", cfg.epochAccesses);
        return std::make_unique<UcpPolicy>(cfg);
    }
    if (name == "pipp") {
        PippConfig cfg;
        cfg.epochAccesses = intOpt(opts, "epoch", cfg.epochAccesses);
        return std::make_unique<PippPolicy>(cfg);
    }
    if (name == "nucache") {
        return std::make_unique<NUcachePolicy>(
            nucacheConfigFrom(opts, NUcacheConfig::Selection::CostBenefit));
    }
    if (name == "nucache-adaptive") {
        NUcacheConfig cfg = nucacheConfigFrom(
            opts, NUcacheConfig::Selection::CostBenefit);
        cfg.adaptiveDeli = true;
        return std::make_unique<NUcachePolicy>(cfg);
    }
    if (name == "nucache-topk") {
        return std::make_unique<NUcachePolicy>(
            nucacheConfigFrom(opts, NUcacheConfig::Selection::TopK));
    }
    if (name == "nucache-all") {
        return std::make_unique<NUcachePolicy>(
            nucacheConfigFrom(opts, NUcacheConfig::Selection::All));
    }
    if (name == "nucache-none") {
        return std::make_unique<NUcachePolicy>(
            nucacheConfigFrom(opts, NUcacheConfig::Selection::None));
    }
    fatal("unknown policy '", name, "'");
}

bool
validatePolicySpec(const std::string &spec, std::string &err)
{
    const auto colon = spec.find(':');
    const std::string name = spec.substr(0, colon);
    const auto &names = allPolicyNames();
    if (std::find(names.begin(), names.end(), name) == names.end()) {
        err = "unknown policy '" + name + "'";
        return false;
    }
    if (colon == std::string::npos)
        return true;
    const std::string rest = spec.substr(colon + 1);
    std::size_t pos = 0;
    while (pos <= rest.size()) {
        const auto comma = rest.find(',', pos);
        const std::string item =
            rest.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        const auto eq = item.find('=');
        if (eq == std::string::npos || eq == 0) {
            err = "policy spec '" + spec + "': bad option '" + item + "'";
            return false;
        }
        const std::string value = item.substr(eq + 1);
        // Digits only, and short enough that std::stoull cannot throw.
        if (value.empty() || value.size() > 15 ||
            value.find_first_not_of("0123456789") != std::string::npos) {
            err = "policy spec '" + spec + "': bad value '" + value + "'";
            return false;
        }
        // Ranges whose violation would otherwise reach a fatal() or an
        // undefined shift once the policy is built.
        const std::string key = item.substr(0, eq);
        const std::uint64_t n = std::stoull(value);
        if ((key == "epoch" || key == "board") && n == 0) {
            err = "policy spec '" + spec + "': '" + key +
                  "' must be positive";
            return false;
        }
        if (key == "board" && n > kMaxBoardEntries) {
            err = "policy spec '" + spec + "': 'board' exceeds " +
                  std::to_string(kMaxBoardEntries) + " entries";
            return false;
        }
        if (key == "shift" && n >= 32) {
            err = "policy spec '" + spec + "': 'shift' must be below 32";
            return false;
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return true;
}

bool
validatePolicyForLlc(const std::string &spec, std::uint32_t llc_ways,
                     std::uint32_t cores, std::string &err)
{
    const auto [name, opts] = parseSpec(spec);
    if (name.rfind("nucache", 0) == 0) {
        const std::uint64_t deli = intOpt(opts, "d", 0);
        if (deli >= llc_ways) {
            err = "policy spec '" + spec + "': d=" + std::to_string(deli) +
                  " DeliWays leave no MainWay in a " +
                  std::to_string(llc_ways) + "-way LLC";
            return false;
        }
    }
    if ((name == "ucp" || name == "pipp") && llc_ways < cores) {
        err = "policy '" + name + "' needs at least one LLC way per core (" +
              std::to_string(llc_ways) + " ways, " + std::to_string(cores) +
              " cores)";
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
    static const std::vector<std::string> names = {
        "lru",  "random", "nru",  "lip",     "srrip",   "brrip",
        "drrip", "tadrrip", "dip", "tadip",  "ship",    "hawkeye",
        "ucp",  "pipp",
        "nucache", "nucache-adaptive", "nucache-topk", "nucache-all",
        "nucache-none",
    };
    return names;
}

} // namespace nucache
