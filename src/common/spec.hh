/**
 * @file
 * The one spec grammar, `family[:key=value{,key=value}]`, shared by
 * policy specs, index-defense specs and attack workload names.  Each
 * domain declares its families once, in a table whose keys carry
 * their ranges, and parse() checks a spec against it without ever
 * exiting: untrusted client bytes can only produce an error string.
 * Rules that span several keys stay with the domain, after parsing.
 * A parsed spec renders canonically: the family, then the given keys
 * in table order, each value as plain decimal (or its word).
 */

#ifndef NUCACHE_COMMON_SPEC_HH
#define NUCACHE_COMMON_SPEC_HH

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>

namespace nucache::spec
{

/** One key a family accepts, with its inclusive range. */
struct Key
{
    std::string_view name;
    std::uint64_t min = 0;
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    /** If non-empty, the value is one of these words, not a number. */
    std::span<const std::string_view> words = {};
};

/** One family: its name and the keys it accepts, in canonical order. */
struct Family
{
    std::string_view name;
    std::span<const Key> keys = {};
};

/** Most keys one family may declare. */
inline constexpr std::size_t kMaxKeys = 8;

/** A spec parsed against its family's row. */
struct Spec
{
    /** The matched row (static table storage, never the input). */
    const Family *family = nullptr;
    /** Value of keys[i] (a word's index for word keys). */
    std::array<std::uint64_t, kMaxKeys> values{};
    /** Bit i set iff keys[i] was given. */
    std::uint32_t given = 0;

    /** @return whether @p key was given. */
    bool has(std::string_view key) const;
    /** @return @p key's value, or @p def when it was not given. */
    std::uint64_t get(std::string_view key, std::uint64_t def) const;
    /** @return the canonical spelling of this spec. */
    std::string canonical() const;
};

/**
 * Parse the keys of @p text (after its first ':') against @p family,
 * whose name the caller has already matched.
 * @return whether every item is `key=value` with a key the family
 * has, given once, and a value that is decimal, below 2^64 and in the
 * key's range (or one of its words); on failure @p err says why.
 */
bool parseKeys(std::string_view text, const Family &family, Spec &out,
               std::string &err);

/**
 * Parse @p text against a family table.  Each row is a Family (or
 * derives from one, adding what its domain builds from a spec).
 * @param what the noun naming a family in errors ("policy", ...).
 * @return the matched row, or nullptr with @p err set.
 */
template <class Row>
const Row *
parse(std::string_view text, std::span<const Row> rows,
      std::string_view what, Spec &out, std::string &err)
{
    const std::string_view name = text.substr(0, text.find(':'));
    for (const Row &row : rows) {
        if (row.name == name)
            return parseKeys(text, row, out, err) ? &row : nullptr;
    }
    err = "unknown " + std::string(what) + " '" + std::string(name) +
          "' (expected";
    for (const Row &row : rows) {
        err += ' ';
        err += row.name;
    }
    err += ')';
    return nullptr;
}

} // namespace nucache::spec

#endif // NUCACHE_COMMON_SPEC_HH
