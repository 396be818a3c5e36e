/**
 * @file
 * Adversarial trace synthesis: eviction-set and conflict-storm
 * attacks against a target LLC geometry.
 *
 * The generators model an attacker who can issue memory accesses and
 * observe the hit/miss timing of its *own* loads (the prime+probe side
 * channel) and emit the attacker's whole campaign — search traffic
 * included — as ordinary TraceRecords, so everything downstream
 * (arena, run engines, checker, oracle, server) consumes hostile
 * traffic exactly like any other workload.
 *
 * Internally each generator replays its accesses through a real Cache
 * configured like the target (geometry + index defense + LRU), using
 * the model as an idealized side channel: Cache::probe() is the
 * zero-noise stand-in for a timed reload.  Because the model and a
 * bench replay of the emitted trace are the same class fed the same
 * stream, the attacker's knowledge is exact by construction — the
 * measured success rates are an *upper bound* on a real attacker, the
 * conservative direction for a defense gate.
 *
 * Scenarios:
 *  - evset: targeted eviction via a minimal eviction set.  Against an
 *    undefended index the set is pure address arithmetic (stride =
 *    sets * blockSize); against a scrambled index the attacker runs
 *    the classic group-elimination search (grow a random conflict
 *    pool until it evicts the victim, then repeatedly drop one of
 *    W+1 groups while the remainder still evicts) and re-searches
 *    when the found set goes stale (dynamic remap).
 *  - storm: conflict flooding of a few fixed sets with rotating tags
 *    — no side channel, address arithmetic only.  A scrambled index
 *    scatters the storm across the whole cache.
 *
 * Measured rounds are marked by kAttackVictimPc on the victim's
 * touch: a replay counts the touch a *success* when it misses (the
 * attacker evicted the victim line since its last touch).  Search
 * traffic primes the victim under kAttackSearchPc so it never
 * pollutes the measurement.
 *
 * Workload names: `attack:<scenario>[:key=value,...]` in the grammar
 * of common/spec.hh, with scenarios {evset, storm} and keys sets (a
 * power of two in [2, 2^20]), ways (in [1, 64]), def
 * (none|rand|rand-dynamic), key and period (>= 1) of the defense, and
 * seed.  key needs a def, period needs def=rand-dynamic.  Parsed
 * non-fatally for the server's never-fatal request validation.
 */

#ifndef NUCACHE_ATTACK_ATTACK_HH
#define NUCACHE_ATTACK_ATTACK_HH

#include <cstdint>
#include <string>

#include "mem/cache.hh"
#include "mem/rand_index.hh"
#include "trace/trace.hh"

namespace nucache
{

/**
 * PC of measured victim touches.  Below 2^48 so the trace CPU's
 * per-core PC tagging never collides with it.
 */
constexpr PC kAttackVictimPc = 0xA77AC0DE00ull;
/** PC of search-phase victim primes (never counted as a round). */
constexpr PC kAttackSearchPc = 0xA77AC0DE40ull;
/** PC of eviction/pool/storm traffic. */
constexpr PC kAttackProbePc = 0xA77AC0DE80ull;

/** The attack scenario family. */
enum class AttackScenario
{
    /** Minimal-eviction-set prime+probe (with search when defended). */
    EvictionSet,
    /** Conflict storm: flood a few sets with rotating tags. */
    ConflictStorm,
};

/** Parsed attack workload specification. */
struct AttackSpec
{
    /** Canonical full workload name ("attack:...", keys in table
     *  order). */
    std::string name = "attack:evset";
    AttackScenario scenario = AttackScenario::EvictionSet;
    /**
     * Target LLC geometry the attacker tunes against.  The default is
     * deliberately small (256 sets x 8 ways = 128 KiB): it keeps the
     * group-elimination search cost within a trace budget while
     * preserving the search-cost vs remap-period economics that the
     * defense gate measures.
     */
    std::uint32_t sets = 256;
    std::uint32_t ways = 8;
    /** Index defense of the target the attacker adapts to. */
    IndexDefenseConfig defense;
    std::uint64_t seed = 1;
    /** Records in one pass of the trace. */
    std::uint64_t length = 2'000'000;

    /** @return the block-aligned address of the victim line. */
    Addr victimAddr() const { return 0; }
};

/** @return true iff @p name carries the attack workload prefix. */
bool isAttackName(const std::string &name);

/**
 * Parse an attack workload name without dying (server validation).
 * @return true and fill @p out iff @p name is a well-formed attack
 * spec; false with @p err otherwise (also for non-attack names).
 */
bool tryParseAttackSpec(const std::string &name, AttackSpec &out,
                        std::string &err);

/** @return the parsed spec; fatal() on a malformed name. */
AttackSpec parseAttackSpec(const std::string &name);

/**
 * @return the target cache configuration of @p spec (geometry +
 * defense).  A replay through a Cache built from this config with an
 * LRU policy reproduces the attacker's internal model state
 * access-for-access — benches measure against exactly this.
 */
CacheConfig attackTargetConfig(const AttackSpec &spec);

/**
 * Instantiate attack workload @p name as a TraceSource.  The full
 * campaign is synthesized eagerly (deterministic for a given spec);
 * reset() replays the identical stream.
 * @param length_override if non-zero, replaces the default length.
 */
TraceSourcePtr makeAttackTrace(const std::string &name,
                               std::uint64_t length_override = 0);

} // namespace nucache

#endif // NUCACHE_ATTACK_ATTACK_HH
