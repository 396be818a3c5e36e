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
 * Spec grammar (common/spec.hh, parsed non-fatally for the server's
 * never-fatal request validation): `none`, `rand[:key=N]`, or
 * `rand-dynamic[:key=N][,period=N]` with decimal values, period >= 1.
 */

#ifndef NUCACHE_MEM_RAND_INDEX_HH
#define NUCACHE_MEM_RAND_INDEX_HH

#include <cstdint>
#include <string>

#include "common/logging.hh"
#include "common/spec.hh"
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

    /**
     * @return the canonical spec string with every key of the kind
     * spelled out, defaults included (round-trips the parse).
     */
    std::string spec() const;
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

/** The defense families, in IndexDefenseKind order. */
inline constexpr spec::Key kDefenseKeys[] = {{"key"}, {"period", 1}};
inline constexpr spec::Family kDefenseFamilies[] = {
    {"none"},
    {"rand", std::span(kDefenseKeys, 1)},
    {"rand-dynamic", kDefenseKeys},
};

inline std::string
IndexDefenseConfig::spec() const
{
    const spec::Family &family =
        kDefenseFamilies[static_cast<std::size_t>(kind)];
    const std::uint32_t all = (1u << family.keys.size()) - 1;
    return spec::Spec{&family, {key, period}, all}.canonical();
}

/**
 * Parse a defense spec without dying: unknown names and keys,
 * malformed key=value pairs and zero periods all land in @p err; an
 * empty text is `none`.  The server's request validation (never fatal
 * on client bytes) funnels through here.
 * @return true and fill @p out iff @p text is well-formed.
 */
inline bool
tryParseIndexDefense(const std::string &text, IndexDefenseConfig &out,
                     std::string &err)
{
    out = IndexDefenseConfig{};
    if (text.empty())
        return true;
    spec::Spec parsed;
    const spec::Family *row = spec::parse<spec::Family>(
        text, kDefenseFamilies, "index defense", parsed, err);
    if (row == nullptr)
        return false;
    out.kind = static_cast<IndexDefenseKind>(row - kDefenseFamilies);
    out.key = parsed.get("key", out.key);
    out.period = parsed.get("period", out.period);
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
