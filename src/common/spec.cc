#include "common/spec.hh"

#include <algorithm>
#include <charconv>

namespace nucache::spec
{

namespace
{

/** @return the index of @p key in @p family, or keys.size(). */
std::size_t
indexOf(const Family &family, std::string_view key)
{
    std::size_t i = 0;
    while (i < family.keys.size() && family.keys[i].name != key)
        ++i;
    return i;
}

/** @return the value of @p value for @p key, or false with @p err. */
bool
parseValue(const Key &key, std::string_view value, std::uint64_t &out,
           std::string &err)
{
    const auto fail = [&](const std::string &why) {
        err = "'" + std::string(key.name) + "' " + why;
        return false;
    };
    if (!key.words.empty()) {
        const auto it = std::find(key.words.begin(), key.words.end(), value);
        if (it == key.words.end())
            return fail("does not take '" + std::string(value) + "'");
        out = static_cast<std::uint64_t>(it - key.words.begin());
        return true;
    }
    // Unsigned from_chars takes digits only: no sign, space or prefix.
    const char *end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, out);
    if (ec != std::errc{} || ptr != end) {
        return fail("needs a decimal value below 2^64, got '" +
                    std::string(value) + "'");
    }
    if (out < key.min || out > key.max) {
        return fail("must be in [" + std::to_string(key.min) + ", " +
                    std::to_string(key.max) + "]");
    }
    return true;
}

} // anonymous namespace

bool
Spec::has(std::string_view key) const
{
    const std::size_t i = indexOf(*family, key);
    return i < family->keys.size() && (given >> i & 1u) != 0;
}

std::uint64_t
Spec::get(std::string_view key, std::uint64_t def) const
{
    const std::size_t i = indexOf(*family, key);
    return i < family->keys.size() && (given >> i & 1u) != 0 ? values[i]
                                                            : def;
}

std::string
Spec::canonical() const
{
    std::string out(family->name);
    char sep = ':';
    for (std::size_t i = 0; i < family->keys.size(); ++i) {
        if ((given >> i & 1u) == 0)
            continue;
        const Key &key = family->keys[i];
        out += sep;
        out += key.name;
        out += '=';
        if (key.words.empty())
            out += std::to_string(values[i]);
        else
            out += key.words[values[i]];
        sep = ',';
    }
    return out;
}

bool
parseKeys(std::string_view text, const Family &family, Spec &out,
          std::string &err)
{
    out = Spec{};
    out.family = &family;
    const std::size_t colon = text.find(':');
    if (colon == std::string_view::npos)
        return true;
    const auto fail = [&](const std::string &why) {
        err = "'" + std::string(family.name) + "': " + why;
        return false;
    };
    std::string_view rest = text.substr(colon + 1);
    for (;;) {
        const std::size_t comma = rest.find(',');
        const std::string_view item = rest.substr(0, comma);
        const std::size_t eq = item.find('=');
        if (eq == 0 || eq == std::string_view::npos ||
            eq + 1 == item.size()) {
            return fail("bad option '" + std::string(item) +
                        "' (expected key=value)");
        }
        const std::string_view name = item.substr(0, eq);
        const std::size_t i = indexOf(family, name);
        if (i == family.keys.size())
            return fail("unknown key '" + std::string(name) + "'");
        if ((out.given >> i & 1u) != 0)
            return fail("duplicate key '" + std::string(name) + "'");
        if (!parseValue(family.keys[i], item.substr(eq + 1),
                        out.values[i], err)) {
            return fail(err);
        }
        out.given |= 1u << i;
        if (comma == std::string_view::npos)
            return true;
        rest = rest.substr(comma + 1);
    }
}

} // namespace nucache::spec
