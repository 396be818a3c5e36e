#include "check/checker.hh"

#include <sstream>

#include "common/logging.hh"

namespace nucache
{

CacheChecker::CacheChecker(Cache &cache_ref, Mode check_mode)
    : cache(cache_ref), mode(check_mode)
{
    cache.setAccessObserver(
        [this](std::uint32_t set, const AccessInfo &,
               const Cache::Result &) { checkSet(set); });
}

CacheChecker::~CacheChecker()
{
    cache.setAccessObserver({});
}

std::size_t
CacheChecker::checkSet(std::uint32_t set)
{
    ++checkCount;
    const SetView view = cache.viewSet(set);
    std::size_t found = 0;

    // Structural invariant: the tag array must never hold two valid
    // copies of one block.  (Which core owns a line is the
    // partitioning policy's own column; UCP checks it itself.)
    for (std::uint32_t a = 0; a < view.ways(); ++a) {
        const CacheLine &la = view.line(a);
        if (!la.valid)
            continue;
        for (std::uint32_t b = a + 1; b < view.ways(); ++b) {
            const CacheLine &lb = view.line(b);
            if (lb.valid && lb.tag == la.tag) {
                std::ostringstream os;
                os << "duplicate tag 0x" << std::hex << la.tag
                   << std::dec << " in ways " << a << " and " << b;
                report(set, os.str());
                ++found;
            }
        }
    }

    // Policy invariants: delegated to the algorithm's own metadata
    // verifier (recency coherence, Main/Deli bounds, quotas, ranks).
    std::string why;
    if (!cache.policy().checkInvariants(view, why)) {
        report(set, "policy '" + cache.policy().name() + "': " + why);
        ++found;
    }
    return found;
}

std::size_t
CacheChecker::checkAll()
{
    std::size_t found = 0;
    for (std::uint32_t s = 0; s < cache.numSets(); ++s)
        found += checkSet(s);
    return found;
}

void
CacheChecker::report(std::uint32_t set, const std::string &what)
{
    ++violationTotal;
    if (mode == Mode::Panic) {
        panic("invariant violation in cache '", cache.config().name,
              "' set ", set, ": ", what);
    }
    if (viols.size() < maxStored)
        viols.push_back(CheckViolation{cache.config().name, set, what});
}

} // namespace nucache
