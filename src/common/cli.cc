#include "common/cli.hh"

#include "common/logging.hh"

#include <cstdlib>

namespace nucache
{

CliArgs::CliArgs(int argc, const char *const *argv,
                 std::initializer_list<const char *> boolean_keys)
{
    const std::set<std::string> booleans(boolean_keys.begin(),
                                         boolean_keys.end());
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            pos.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            values[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (booleans.count(arg) == 0 && i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            values[arg] = argv[++i];
        } else {
            values[arg] = "";
        }
    }
}

bool
CliArgs::has(const std::string &key) const
{
    return values.count(key) != 0;
}

std::string
CliArgs::get(const std::string &key, const std::string &def) const
{
    const auto it = values.find(key);
    return it == values.end() ? def : it->second;
}

std::uint64_t
CliArgs::getInt(const std::string &key, std::uint64_t def) const
{
    const auto it = values.find(key);
    if (it == values.end() || it->second.empty())
        return def;
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(it->second.c_str(), &end, 0);
    if (end == nullptr || *end != '\0')
        fatal("flag --", key, " expects an integer, got '", it->second, "'");
    return v;
}

std::vector<std::string>
CliArgs::unknownKeys(std::initializer_list<const char *> known) const
{
    const std::set<std::string> ok(known.begin(), known.end());
    std::vector<std::string> out;
    for (const auto &[key, value] : values) {
        if (ok.count(key) == 0)
            out.push_back(key);
    }
    return out;
}

double
CliArgs::getDouble(const std::string &key, double def) const
{
    const auto it = values.find(key);
    if (it == values.end() || it->second.empty())
        return def;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == nullptr || *end != '\0')
        fatal("flag --", key, " expects a number, got '", it->second, "'");
    return v;
}

} // namespace nucache
