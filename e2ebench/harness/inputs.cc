#include "inputs.hh"

#include <algorithm>
#include <charconv>

#include "trace/workloads.hh"

namespace e2e
{

namespace
{

/** Distinct streams per purpose, so one seed feeds independent draws. */
constexpr std::uint64_t kMixSalt = 0x6d69786573ull;
constexpr std::uint64_t kExactSalt = 0x6578616374ull;
constexpr std::uint64_t kInlineSalt = 0x696e6c696e65ull;
constexpr std::uint64_t kOrderSalt = 0x6f72646572ull;

/** The exact-key share of serve_inline traffic. */
constexpr double kExactShare = 0.1;

std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t salt)
{
    return seed * 0x9e3779b97f4a7c15ull ^ salt;
}

template <typename T>
void
shuffle(std::vector<T> &v, nucache::Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

} // anonymous namespace

const std::vector<std::string> &
baselinePolicies()
{
    static const std::vector<std::string> policies = {"lru", "dip",
                                                      "tadip", "ucp",
                                                      "pipp"};
    return policies;
}

const std::vector<std::string> &
modeledPolicies()
{
    static const std::vector<std::string> policies = {"lru", "nru", "ucp",
                                                      "pipp", "nucache"};
    return policies;
}

WorkloadDeck::WorkloadDeck(std::uint64_t seed) : rng(seed) {}

const std::string &
WorkloadDeck::draw()
{
    if (pos == deck.size()) {
        deck = nucache::workloadNames();
        shuffle(deck, rng);
        pos = 0;
    }
    return deck[pos++];
}

std::vector<std::string>
WorkloadDeck::draw(unsigned n)
{
    std::vector<std::string> out;
    out.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        out.push_back(draw());
    return out;
}

std::vector<nucache::WorkloadMix>
drawMixes(std::uint64_t seed, unsigned cores, std::size_t count)
{
    WorkloadDeck deck(streamSeed(seed, kMixSalt + cores));
    std::vector<nucache::WorkloadMix> mixes;
    for (std::size_t i = 0; i < count; ++i) {
        mixes.push_back({"s" + std::to_string(seed) + "_" +
                             std::to_string(i),
                         deck.draw(cores)});
    }
    return mixes;
}

std::vector<std::string>
distinctWorkloads(const std::vector<nucache::WorkloadMix> &mixes)
{
    std::vector<std::string> out;
    for (const nucache::WorkloadMix &mix : mixes) {
        for (const std::string &w : mix.workloads) {
            if (std::find(out.begin(), out.end(), w) == out.end())
                out.push_back(w);
        }
    }
    return out;
}

std::string
PoolRequest::body() const
{
    std::string b = R"("op":"run_mix","params":{"workloads":[)";
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        if (i != 0)
            b += ',';
        b += '"' + workloads[i] + '"';
    }
    b += R"(],"policy":")" + policy + '"';
    b += estimate ? R"(,"mode":"estimate")" : R"(,"mode":"exact")";
    if (records != 0)
        b += ",\"records\":" + std::to_string(records);
    if (llcKib != 0)
        b += ",\"llc_kib\":" + std::to_string(llcKib);
    if (noCache)
        b += ",\"no_cache\":true";
    b += "}}";
    return b;
}

std::string
requestLine(std::uint64_t id, const std::string &body)
{
    char num[24];
    const auto res = std::to_chars(num, num + sizeof num, id);
    std::string line;
    line.reserve(body.size() + 32);
    line += "{\"id\":";
    line.append(num, res.ptr);
    line += ',';
    line += body;
    line += '\n';
    return line;
}

std::vector<PoolRequest>
exactPool(std::uint64_t seed, std::uint64_t records)
{
    // Whole decks only: every workload fills the same number of slots
    // at each core count, and every list runs under every baseline.
    const std::size_t catalog = nucache::workloadNames().size();
    WorkloadDeck deck(streamSeed(seed, kExactSalt));
    std::vector<PoolRequest> pool;
    for (const auto &[cores, lists] :
         {std::pair{2u, 2 * catalog}, std::pair{4u, catalog}}) {
        for (std::size_t l = 0; l < lists; ++l) {
            const std::vector<std::string> list = deck.draw(cores);
            for (const std::string &policy : baselinePolicies()) {
                PoolRequest r;
                r.workloads = list;
                r.policy = policy;
                r.records = records;
                r.noCache = true;
                pool.push_back(std::move(r));
            }
        }
    }
    return pool;
}

InlinePool
inlinePool(std::uint64_t seed, std::uint64_t estimate_records)
{
    constexpr unsigned kExactKeys = 8;
    constexpr unsigned kListsPerSize = 24;
    static const std::uint64_t kLlcKib[] = {512, 1024, 2048, 4096};

    WorkloadDeck deck(streamSeed(seed, kInlineSalt));
    InlinePool pool;
    for (unsigned i = 0; i < kExactKeys; ++i) {
        PoolRequest r;
        r.workloads = deck.draw(2);
        r.policy = baselinePolicies()[i % baselinePolicies().size()];
        pool.keys.push_back(std::move(r));
    }
    pool.exactKeys = pool.keys.size();
    for (const unsigned cores : {2u, 4u, 8u}) {
        for (unsigned l = 0; l < kListsPerSize; ++l) {
            const std::vector<std::string> list = deck.draw(cores);
            for (const std::string &policy : modeledPolicies()) {
                for (const std::uint64_t kib : kLlcKib) {
                    PoolRequest r;
                    r.workloads = list;
                    r.policy = policy;
                    r.estimate = true;
                    r.records = estimate_records;
                    r.llcKib = kib;
                    pool.keys.push_back(std::move(r));
                }
            }
        }
    }
    return pool;
}

std::vector<std::uint32_t>
inlineOrder(const InlinePool &pool, std::uint64_t seed, unsigned conn,
            std::size_t n)
{
    // One popularity ranking per seed, shared by every connection.
    // Ranks deal round-robin over the (core count, policy) strata, each
    // stratum's keys in seeded order, so every seed's hot set has the
    // same shape and only the lists in it change.
    std::vector<std::pair<std::size_t, std::string>> names;
    std::vector<std::vector<std::uint32_t>> strata;
    for (std::size_t i = pool.exactKeys; i < pool.keys.size(); ++i) {
        const std::pair<std::size_t, std::string> name{
            pool.keys[i].workloads.size(), pool.keys[i].policy};
        const std::size_t s = static_cast<std::size_t>(
            std::find(names.begin(), names.end(), name) - names.begin());
        if (s == names.size()) {
            names.push_back(name);
            strata.emplace_back();
        }
        strata[s].push_back(static_cast<std::uint32_t>(i));
    }
    nucache::Rng shuffler(streamSeed(seed, kOrderSalt));
    for (std::vector<std::uint32_t> &s : strata)
        shuffle(s, shuffler);
    std::vector<std::uint32_t> rank;
    for (std::size_t pos = 0; rank.size() < pool.keys.size() - pool.exactKeys;
         ++pos) {
        for (const std::vector<std::uint32_t> &s : strata) {
            if (pos < s.size())
                rank.push_back(s[pos]);
        }
    }
    const nucache::ZipfSampler zipf(rank.size(), 1.0);
    nucache::Rng rng(streamSeed(seed, kOrderSalt + 1 + conn));
    std::vector<std::uint32_t> order;
    order.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (rng.chance(kExactShare)) {
            order.push_back(
                static_cast<std::uint32_t>(rng.below(pool.exactKeys)));
        } else {
            order.push_back(rank[zipf.sample(rng)]);
        }
    }
    return order;
}

std::vector<std::uint32_t>
shuffledOrder(std::size_t n, std::uint64_t seed)
{
    std::vector<std::uint32_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = static_cast<std::uint32_t>(i);
    nucache::Rng rng(seed);
    shuffle(order, rng);
    return order;
}

} // namespace e2e
