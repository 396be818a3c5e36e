/**
 * @file
 * Runtime-dispatched SIMD kernels for the simulation hot path.
 *
 * Two scans dominate `Cache::access`: the tag-row equality scan
 * (findWay) and the min-stamp victim scans of the recency-ordered
 * policies (true LRU and DIP/TADIP over the whole set; DIP/TADIP's
 * LRU insertion, UCP and NUcache's MainWays and DeliWays over a way
 * mask).  The equality scan is a packed 64-bit lane operation that
 * GCC cannot auto-vectorize from its scalar form (the bitmask
 * accumulation has no recognized idiom), and baseline x86-64 (SSE2)
 * lacks 64-bit lane compares anyway.  So it is written once per ISA
 * level with intrinsics and selected once at static-initialization
 * time via `__builtin_cpu_supports` — the binary stays portable and
 * non-x86/non-GNU builds keep the scalar fallback.  Both minimum scans
 * have one implementation on every host: the plain loop and a walk of
 * the mask's set bits.  AVX-512 versions of each measured slower than
 * these on the policies' rows and masks.
 *
 * Semantics are bit-exact with the scalar loops: lowest index wins on
 * every tie, so replacing a call site never changes simulated results
 * (enforced end-to-end by test_soa_equivalence.cc).
 */

#ifndef NUCACHE_COMMON_SIMD_HH
#define NUCACHE_COMMON_SIMD_HH

#include <bit>
#include <cstdint>

#if defined(__x86_64__) && defined(__GNUC__)
#define NUCACHE_SIMD_DISPATCH 1
#include <immintrin.h>
#else
#define NUCACHE_SIMD_DISPATCH 0
#endif

namespace nucache
{
namespace simd
{

/** Bit w of the result is set iff row[w] == key (n <= 64 lanes). */
inline std::uint64_t
eqMask64Scalar(const std::uint64_t *row, std::uint32_t n,
               std::uint64_t key)
{
    std::uint64_t eq = 0;
    for (std::uint32_t w = 0; w < n; ++w)
        eq |= static_cast<std::uint64_t>(row[w] == key) << w;
    return eq;
}

/** Index of the first (lowest-index) minimum of row[0..n), n >= 1. */
inline std::uint32_t
minIndex64(const std::uint64_t *row, std::uint32_t n)
{
    std::uint32_t best = 0;
    std::uint64_t lowest = row[0];
    for (std::uint32_t w = 1; w < n; ++w) {
        if (row[w] < lowest) {
            lowest = row[w];
            best = w;
        }
    }
    return best;
}

/**
 * First index of the minimum of row[w] over the lanes w < n whose bit
 * is set in @p mask (n <= 64), or n when no such lane holds a value
 * below ~0 — an empty mask included.  This is the scan
 * `best = n; lowest = ~0; for w in mask: if row[w] < lowest ...`:
 * strict `<`, so the lowest index wins ties and all-ones lanes are
 * never picked.  The walk visits only the set bits and selects without
 * branching on the (unpredictable) stamp comparison.
 */
inline std::uint32_t
minIndexMasked64(const std::uint64_t *row, std::uint32_t n,
                 std::uint64_t mask)
{
    if (n < 64)
        mask &= (std::uint64_t{1} << n) - 1;
    std::uint32_t best = n;
    std::uint64_t lowest = ~std::uint64_t{0};
    for (; mask != 0; mask &= mask - 1) {
        const auto w = static_cast<std::uint32_t>(std::countr_zero(mask));
        const bool lower = row[w] < lowest;
        best = lower ? w : best;
        lowest = lower ? row[w] : lowest;
    }
    return best;
}

#if NUCACHE_SIMD_DISPATCH

__attribute__((target("avx512f"))) inline std::uint64_t
eqMask64Avx512(const std::uint64_t *row, std::uint32_t n,
               std::uint64_t key)
{
    const __m512i k = _mm512_set1_epi64(static_cast<long long>(key));
    std::uint64_t eq = 0;
    std::uint32_t w = 0;
    for (; w + 8 <= n; w += 8) {
        const __m512i v =
            _mm512_loadu_si512(reinterpret_cast<const void *>(row + w));
        eq |= static_cast<std::uint64_t>(_mm512_cmpeq_epi64_mask(v, k))
              << w;
    }
    if (w < n) {
        // Masked load: lanes past the row fault-suppress to zero and
        // are excluded from the compare mask.
        const __mmask8 tail =
            static_cast<__mmask8>((1u << (n - w)) - 1u);
        const __m512i v = _mm512_maskz_loadu_epi64(tail, row + w);
        eq |= static_cast<std::uint64_t>(
                  _mm512_mask_cmpeq_epi64_mask(tail, v, k))
              << w;
    }
    return eq;
}

__attribute__((target("avx2"))) inline std::uint64_t
eqMask64Avx2(const std::uint64_t *row, std::uint32_t n,
             std::uint64_t key)
{
    const __m256i k = _mm256_set1_epi64x(static_cast<long long>(key));
    std::uint64_t eq = 0;
    std::uint32_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(row + w));
        const int m =
            _mm256_movemask_pd(_mm256_castsi256_pd(
                _mm256_cmpeq_epi64(v, k)));
        eq |= static_cast<std::uint64_t>(static_cast<unsigned>(m)) << w;
    }
    for (; w < n; ++w)
        eq |= static_cast<std::uint64_t>(row[w] == key) << w;
    return eq;
}

using EqMask64Fn = std::uint64_t (*)(const std::uint64_t *,
                                     std::uint32_t, std::uint64_t);

inline EqMask64Fn
pickEqMask64()
{
    if (__builtin_cpu_supports("avx512f"))
        return eqMask64Avx512;
    if (__builtin_cpu_supports("avx2"))
        return eqMask64Avx2;
    return eqMask64Scalar;
}

inline const EqMask64Fn eqMask64Impl = pickEqMask64();

/** @return bit w set iff row[w] == key; best ISA for this host. */
inline std::uint64_t
eqMask64(const std::uint64_t *row, std::uint32_t n, std::uint64_t key)
{
    return eqMask64Impl(row, n, key);
}

#else // !NUCACHE_SIMD_DISPATCH

inline std::uint64_t
eqMask64(const std::uint64_t *row, std::uint32_t n, std::uint64_t key)
{
    return eqMask64Scalar(row, n, key);
}

#endif // NUCACHE_SIMD_DISPATCH

} // namespace simd
} // namespace nucache

#endif // NUCACHE_COMMON_SIMD_HH
