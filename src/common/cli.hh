/**
 * @file
 * Minimal command-line flag parser for the examples and benchmark
 * binaries.  Supports "--key=value", "--key value" and boolean
 * "--flag" forms.
 */

#ifndef NUCACHE_COMMON_CLI_HH
#define NUCACHE_COMMON_CLI_HH

#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace nucache
{

/** Parsed command-line options with typed accessors and defaults. */
class CliArgs
{
  public:
    /**
     * Parse argv; unrecognized positional arguments are kept in order.
     * @param boolean_keys flags that never consume the next token, so
     *        "--flag positional" keeps the positional (values can
     *        still be attached with "--flag=value").
     */
    CliArgs(int argc, const char *const *argv,
            std::initializer_list<const char *> boolean_keys = {});

    /** @return true iff --key was present (with or without a value). */
    bool has(const std::string &key) const;

    /** @return string value of --key, or @p def if absent. */
    std::string get(const std::string &key, const std::string &def) const;

    /** @return integer value of --key, or @p def if absent. */
    std::uint64_t getInt(const std::string &key, std::uint64_t def) const;

    /** @return double value of --key, or @p def if absent. */
    double getDouble(const std::string &key, double def) const;

    /**
     * @return the flags given that are not in @p known, in ascending
     * order: a binary that reads only @p known can refuse the rest
     * before it does any work.
     */
    std::vector<std::string>
    unknownKeys(std::initializer_list<const char *> known) const;

    /** @return positional (non-flag) arguments. */
    const std::vector<std::string> &positional() const { return pos; }

  private:
    std::map<std::string, std::string> values;
    std::vector<std::string> pos;
};

} // namespace nucache

#endif // NUCACHE_COMMON_CLI_HH
