/**
 * @file
 * Randomized robustness sweep: every policy driven over randomized
 * cache geometries and access streams, checking only the global
 * invariants (no crash, accounting balances, results deterministic) —
 * plus deterministic input fuzzers for the trace parsers and the CLI
 * parser (any byte stream must parse or fail cleanly, never crash,
 * hang, or over-allocate).  This is the net under the whole policy zoo
 * and every parser that touches untrusted bytes.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "attack/attack.hh"
#include "common/cli.hh"
#include "common/rng.hh"
#include "mem/cache.hh"
#include "mem/rand_index.hh"
#include "sim/policies.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"

namespace nucache
{
namespace
{

struct FuzzCase
{
    std::string policy;
    std::uint32_t sets;
    std::uint32_t ways;
    std::uint32_t cores;
};

class PolicyFuzz : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PolicyFuzz, RandomGeometriesAndStreams)
{
    const std::string policy = GetParam();
    Rng shape_rng(0xf022 + std::hash<std::string>{}(policy));

    for (int round = 0; round < 6; ++round) {
        const std::uint32_t sets = 1u
            << shape_rng.between(0, 7);             // 1..128 sets
        const std::uint32_t ways =
            static_cast<std::uint32_t>(shape_rng.between(1, 12));
        const std::uint32_t cores =
            static_cast<std::uint32_t>(shape_rng.between(1, 4));
        if ((policy == "ucp" || policy == "pipp") && ways < cores)
            continue;  // these need a way per core

        CacheConfig cfg{"fuzz", 64ull * sets * ways, ways, 64};
        Cache cache(cfg, makePolicy(policy), cores);

        Rng rng(round * 977 + 5);
        const std::uint64_t span = 64ull * sets * ways * 6;
        for (int i = 0; i < 8000; ++i) {
            AccessInfo info;
            info.addr = rng.below(span / 64) * 64;
            info.pc = 0x400000 + rng.below(24) * 4;
            info.coreId = static_cast<CoreId>(rng.below(cores));
            info.isWrite = rng.chance(0.3);
            cache.access(info);
        }
        const auto s = cache.totalStats();
        ASSERT_EQ(s.hits + s.misses, s.accesses)
            << policy << " sets=" << sets << " ways=" << ways
            << " cores=" << cores;
        ASSERT_LE(s.hits, s.accesses);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyFuzz,
    ::testing::Values("lru", "random", "nru", "srrip", "brrip", "drrip",
                      "dip", "tadip", "ship", "hawkeye", "ucp", "pipp",
                      "nucache", "nucache-adaptive", "nucache-topk",
                      "nucache-all", "nucache-none"));

TEST(PolicyFuzz, IdenticalSeedsGiveIdenticalOutcomes)
{
    // Determinism across the zoo: two identical runs must agree
    // hit-for-hit (reproducibility of every experiment depends on it).
    for (const auto &policy : allPolicyNames()) {
        CacheConfig cfg{"d", 16ull * 8 * 64, 8, 64};
        Cache a(cfg, makePolicy(policy), 2);
        Cache b(cfg, makePolicy(policy), 2);
        Rng ra(42), rb(42);
        for (int i = 0; i < 5000; ++i) {
            AccessInfo ia, ib;
            ia.addr = ra.below(1024) * 64;
            ia.pc = 0x400000 + ra.below(16) * 4;
            ia.coreId = static_cast<CoreId>(ra.below(2));
            ib.addr = rb.below(1024) * 64;
            ib.pc = 0x400000 + rb.below(16) * 4;
            ib.coreId = static_cast<CoreId>(rb.below(2));
            ASSERT_EQ(a.access(ia).hit, b.access(ib).hit)
                << policy << " at " << i;
        }
    }
}

/** @return a serialized valid binary trace to mutate. */
std::string
baseBinaryTrace(Rng &rng, std::size_t n)
{
    std::vector<TraceRecord> recs;
    recs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord r;
        r.pc = 0x400000 + rng.below(64) * 4;
        r.addr = rng.below(1u << 20) * 64;
        r.nonMemGap = static_cast<std::uint32_t>(rng.below(100));
        r.isWrite = rng.chance(0.3);
        recs.push_back(r);
    }
    std::stringstream ss;
    writeBinaryTrace(ss, recs);
    return ss.str();
}

/**
 * Bit-flip fuzzer over the binary reader: every mutation of a valid
 * trace must either parse (flips in payload values are still valid
 * records) or fail with a diagnostic — and must never size a buffer
 * beyond the input it was handed.  >= 10000 seeded iterations.
 */
TEST(TraceFuzz, BinaryBitFlipsParseOrFailCleanly)
{
    Rng rng(0xb17f11b5);
    const std::string base = baseBinaryTrace(rng, 32);
    std::size_t ok_count = 0, fail_count = 0;
    for (int iter = 0; iter < 12000; ++iter) {
        std::string buf = base;
        const int flips = static_cast<int>(rng.between(1, 8));
        for (int f = 0; f < flips; ++f) {
            const std::size_t byte = rng.below(buf.size());
            buf[byte] ^= static_cast<char>(1u << rng.below(8));
        }
        std::stringstream ss(buf);
        const TraceParseResult out = tryReadBinaryTrace(ss);
        if (out.ok) {
            ++ok_count;
            EXPECT_TRUE(out.error.empty());
        } else {
            ++fail_count;
            ASSERT_FALSE(out.error.empty()) << "silent failure";
            EXPECT_TRUE(out.records.empty());
        }
        ASSERT_LE(out.records.capacity() * sizeof(TraceRecord),
                  4 * buf.size())
            << "reader over-allocated against a " << buf.size()
            << "-byte input";
    }
    // Both regimes must actually be exercised: flips that land in the
    // payload parse fine, flips in magic/count are rejected.
    EXPECT_GT(ok_count, 0u);
    EXPECT_GT(fail_count, 0u);
}

/** Random truncation points: never a crash, always a diagnostic. */
TEST(TraceFuzz, BinaryTruncationsFailCleanly)
{
    Rng rng(0x7240ca7e);
    const std::string base = baseBinaryTrace(rng, 48);
    for (int iter = 0; iter < 2000; ++iter) {
        const std::size_t len = rng.below(base.size());
        std::stringstream ss(base.substr(0, len));
        const TraceParseResult out = tryReadBinaryTrace(ss);
        if (!out.ok) {
            ASSERT_FALSE(out.error.empty()) << "cut at " << len;
        }
    }
}

/** Pure garbage bytes through the binary reader. */
TEST(TraceFuzz, BinaryGarbageNeverCrashes)
{
    Rng rng(0x6a4ba6e5);
    for (int iter = 0; iter < 2000; ++iter) {
        std::string buf(rng.below(256), '\0');
        for (auto &c : buf)
            c = static_cast<char>(rng.below(256));
        std::stringstream ss(buf);
        const TraceParseResult out = tryReadBinaryTrace(ss);
        if (!out.ok) {
            ASSERT_FALSE(out.error.empty());
        }
        ASSERT_LE(out.records.size() * 24, buf.size());
    }
}

/** Byte-level mutations of a valid text trace. */
TEST(TraceFuzz, TextMutationsParseOrFailCleanly)
{
    Rng rng(0x7e77f022);
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 24; ++i) {
        TraceRecord r;
        r.pc = 0x400000 + i * 4;
        r.addr = 0x10000u + static_cast<std::uint64_t>(i) * 64;
        r.nonMemGap = static_cast<std::uint32_t>(i);
        r.isWrite = (i % 2) != 0;
        recs.push_back(r);
    }
    std::stringstream base_ss;
    writeTextTrace(base_ss, recs);
    const std::string base = base_ss.str();
    for (int iter = 0; iter < 4000; ++iter) {
        std::string buf = base;
        const int edits = static_cast<int>(rng.between(1, 6));
        for (int e = 0; e < edits; ++e) {
            const std::size_t at = rng.below(buf.size());
            buf[at] = static_cast<char>(rng.below(128));
        }
        std::stringstream ss(buf);
        const TraceParseResult out = tryReadTextTrace(ss);
        if (!out.ok) {
            ASSERT_FALSE(out.error.empty());
        } else {
            ASSERT_LE(out.records.size(), base.size());
        }
    }
}

/**
 * Attack-name fuzzer: random parameter strings after the attack:
 * prefix must parse or be rejected with a reason — never crash or
 * fatal().  The server's workload validation funnels untrusted names
 * through tryParseAttackSpec, so this is a hostile-input surface.
 */
TEST(AttackFuzz, RandomNamesParseOrFailCleanly)
{
    Rng rng(0xa77ac5eed);
    const char charset[] =
        "abcdefghijklmnopqrstuvwxyz0123456789-=_,:. ";
    for (int iter = 0; iter < 8000; ++iter) {
        std::string name = "attack:";
        if (rng.chance(0.5))
            name += rng.chance(0.5) ? "evset" : "storm";
        const std::size_t len = rng.below(24);
        for (std::size_t c = 0; c < len; ++c)
            name += charset[rng.below(sizeof(charset) - 1)];
        AttackSpec spec;
        std::string err;
        if (tryParseAttackSpec(name, spec, err)) {
            // Accepted specs must satisfy the documented ranges and
            // be consistent with the workload-layer dispatch.
            ASSERT_GE(spec.sets, 2u);
            ASSERT_EQ(spec.sets & (spec.sets - 1), 0u);
            ASSERT_GE(spec.ways, 1u);
            ASSERT_LE(spec.ways, 64u);
            ASSERT_TRUE(isWorkloadName(name));
        } else {
            ASSERT_FALSE(err.empty());
            ASSERT_FALSE(isWorkloadName(name));
        }
    }
}

/** Defense-spec fuzzer: same contract for the rand_index grammar. */
TEST(AttackFuzz, RandomDefenseSpecsParseOrFailCleanly)
{
    Rng rng(0xdef5eed);
    const char charset[] =
        "abcdefghijklmnopqrstuvwxyz0123456789-=_,:. ";
    for (int iter = 0; iter < 8000; ++iter) {
        std::string spec;
        if (rng.chance(0.6))
            spec = rng.chance(0.5) ? "rand" : "rand-dynamic";
        if (rng.chance(0.7)) {
            spec += ":";
            const std::size_t len = rng.below(20);
            for (std::size_t c = 0; c < len; ++c)
                spec += charset[rng.below(sizeof(charset) - 1)];
        }
        IndexDefenseConfig cfg;
        std::string err;
        if (tryParseIndexDefense(spec, cfg, err)) {
            if (cfg.kind == IndexDefenseKind::RandDynamic) {
                ASSERT_GT(cfg.period, 0u);
            }
            // The canonical rendering must round-trip.
            IndexDefenseConfig again;
            ASSERT_TRUE(tryParseIndexDefense(cfg.spec(), again, err));
            ASSERT_EQ(again.spec(), cfg.spec());
        } else {
            ASSERT_FALSE(err.empty());
        }
    }
}

/**
 * CLI fuzzer: arbitrary token vectors through CliArgs.  The parser
 * must classify every token (flags vs positionals) without crashing,
 * and no positional may retain a flag prefix.
 */
TEST(CliFuzz, RandomArgvNeverCrashes)
{
    Rng rng(0xc11f0bb5);
    const char charset[] =
        "abcdefghijklmnopqrstuvwxyz0123456789-=_. ";
    for (int iter = 0; iter < 4000; ++iter) {
        std::vector<std::string> tokens = {"fuzz_prog"};
        const int n = static_cast<int>(rng.between(0, 8));
        for (int t = 0; t < n; ++t) {
            std::string tok;
            if (rng.chance(0.5))
                tok = "--";
            const std::size_t len = rng.below(12);
            for (std::size_t c = 0; c < len; ++c)
                tok += charset[rng.below(sizeof(charset) - 1)];
            tokens.push_back(std::move(tok));
        }
        std::vector<const char *> argv;
        argv.reserve(tokens.size());
        for (const auto &t : tokens)
            argv.push_back(t.c_str());
        const CliArgs args(static_cast<int>(argv.size()), argv.data());
        for (const auto &p : args.positional())
            ASSERT_NE(p.rfind("--", 0), 0u)
                << "positional '" << p << "' kept its flag prefix";
        // Typed accessors with defaults must be safe on absent keys.
        EXPECT_EQ(args.get("definitely-not-present", "d"), "d");
        EXPECT_EQ(args.getInt("definitely-not-present", 7u), 7u);
    }
}

} // anonymous namespace
} // namespace nucache
