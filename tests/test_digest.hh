/**
 * @file
 * Text digest shared by the golden tests: a change that moves any
 * byte of a pinned document changes its digest.
 */

#ifndef NUCACHE_TESTS_TEST_DIGEST_HH
#define NUCACHE_TESTS_TEST_DIGEST_HH

#include <cstdint>
#include <cstdio>
#include <string>

namespace nucache
{

/** @return FNV-1a 64 of @p text as 16 lowercase hex digits. */
inline std::string
fnv1aHex(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char ch : text) {
        h ^= ch;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace nucache

#endif // NUCACHE_TESTS_TEST_DIGEST_HH
