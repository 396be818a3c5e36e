/**
 * @file
 * Randomized-index defense for the set-associative cache model.
 *
 * Classic set-indexing exposes the set bits of the address directly,
 * so an attacker who can observe hit/miss timing can build an
 * *eviction set* — W congruent blocks that evict any victim line from
 * its set — with nothing more than address arithmetic.  The defense
 * here scrambles the tag -> set mapping through a keyed hash (the
 * CEASER idea): congruence becomes a secret of the key, and the
 * attacker is reduced to search.  The dynamic variant additionally
 * re-keys every `period` accesses and flushes the cache, so any
 * eviction set the attacker *does* discover goes stale before it
 * amortizes.
 *
 * The remap clock is the cache's own access tick, so re-key points
 * follow from the run's serial access order alone (the defended rows
 * of tests/test_integration.cc's golden digests pin them).
 *
 * Spec grammar (parsed non-fatally for the server's never-fatal
 * request validation): `none`, `rand[:key=N]`, or
 * `rand-dynamic[:key=N][,period=N]` with decimal values.
 */

#ifndef NUCACHE_MEM_RAND_INDEX_HH
#define NUCACHE_MEM_RAND_INDEX_HH

#include <cstdint>
#include <string>

#include "common/logging.hh"
#include "mem/cache_line.hh"

namespace nucache
{

/** The randomized-index defense family. */
enum class IndexDefenseKind
{
    /** Plain indexing: set = low index bits of the block tag. */
    None,
    /** Keyed index scramble, static key for the whole run. */
    Rand,
    /** Keyed scramble, re-keyed + full flush every `period` accesses. */
    RandDynamic,
};

/** Parsed defense configuration of one cache level. */
struct IndexDefenseConfig
{
    IndexDefenseKind kind = IndexDefenseKind::None;
    /** Scramble key (epoch 0 key for the dynamic variant). */
    std::uint64_t key = 0x5eed5eedcafef00dull;
    /** Accesses between re-keys (dynamic variant only). */
    std::uint64_t period = 100'000;

    /** @return whether any scrambling is active. */
    bool enabled() const { return kind != IndexDefenseKind::None; }

    /** @return the canonical spec string (round-trips the parse). */
    std::string
    spec() const
    {
        switch (kind) {
        case IndexDefenseKind::None:
            return "none";
        case IndexDefenseKind::Rand:
            return "rand:key=" + std::to_string(key);
        case IndexDefenseKind::RandDynamic:
            return "rand-dynamic:key=" + std::to_string(key) +
                ",period=" + std::to_string(period);
        }
        return "none";
    }
};

/**
 * Keyed index scramble: the splitmix64 finalizer over (tag ^ key),
 * masked down to the set-index width.  Full-width mixing means every
 * tag bit diffuses into every set bit, so address-stride congruence
 * (the eviction-set shortcut) carries no information about the
 * scrambled index.  Pure function — the same (tag, key) always maps
 * to the same set, which the differential tests rely on.
 */
inline std::uint32_t
scrambleIndex(Addr tag, std::uint64_t key, std::uint32_t sets)
{
    std::uint64_t x = tag ^ key;
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<std::uint32_t>(x & (sets - 1));
}

/** @return the scramble key of remap epoch @p epoch under master key. */
inline std::uint64_t
epochKeyOf(std::uint64_t master_key, std::uint64_t epoch)
{
    // Same finalizer, keyed by the epoch ordinal: successive epochs
    // get statistically independent permutations from one master key.
    std::uint64_t x = master_key + epoch * 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Parse a defense spec without dying: unknown names, malformed
 * key=value pairs and zero periods all land in @p err.  The server's
 * request validation (never fatal on client bytes) funnels through
 * here.
 * @return true and fill @p out iff @p spec is well-formed.
 */
inline bool
tryParseIndexDefense(const std::string &spec, IndexDefenseConfig &out,
                     std::string &err)
{
    out = IndexDefenseConfig{};
    std::string head = spec;
    std::string params;
    const std::size_t colon = spec.find(':');
    if (colon != std::string::npos) {
        head = spec.substr(0, colon);
        params = spec.substr(colon + 1);
    }
    if (head.empty() || head == "none") {
        if (!params.empty()) {
            err = "defense 'none' takes no parameters";
            return false;
        }
        out.kind = IndexDefenseKind::None;
        return true;
    }
    if (head == "rand") {
        out.kind = IndexDefenseKind::Rand;
    } else if (head == "rand-dynamic") {
        out.kind = IndexDefenseKind::RandDynamic;
    } else {
        err = "unknown index defense '" + head +
            "' (expected none, rand or rand-dynamic)";
        return false;
    }
    // key=N,period=N — decimal values only, every key known.
    std::size_t pos = 0;
    while (pos < params.size()) {
        std::size_t end = params.find(',', pos);
        if (end == std::string::npos)
            end = params.size();
        const std::string pair = params.substr(pos, end - pos);
        pos = end + 1;
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0 ||
            eq + 1 >= pair.size()) {
            err = "malformed defense parameter '" + pair +
                "' (expected key=value)";
            return false;
        }
        const std::string k = pair.substr(0, eq);
        const std::string v = pair.substr(eq + 1);
        std::uint64_t value = 0;
        for (const char c : v) {
            if (c < '0' || c > '9') {
                err = "defense parameter '" + k +
                    "' needs a decimal value, got '" + v + "'";
                return false;
            }
            value = value * 10 + static_cast<std::uint64_t>(c - '0');
        }
        if (k == "key") {
            out.key = value;
        } else if (k == "period") {
            if (out.kind != IndexDefenseKind::RandDynamic) {
                err = "'period' only applies to rand-dynamic";
                return false;
            }
            if (value == 0) {
                err = "defense period must be nonzero";
                return false;
            }
            out.period = value;
        } else {
            err = "unknown defense parameter '" + k + "'";
            return false;
        }
    }
    return true;
}

/** @return the parsed defense; fatal() on a malformed spec. */
inline IndexDefenseConfig
parseIndexDefense(const std::string &spec)
{
    IndexDefenseConfig out;
    std::string err;
    if (!tryParseIndexDefense(spec, out, err))
        fatal("index defense spec '", spec, "': ", err);
    return out;
}

} // namespace nucache

#endif // NUCACHE_MEM_RAND_INDEX_HH
