/**
 * @file
 * Randomized robustness sweep: every policy driven over randomized
 * cache geometries and access streams, checking only the global
 * invariants (no crash, accounting balances, results deterministic) —
 * plus deterministic input fuzzers for the trace parsers, the spec
 * grammar (policies, defenses, attack names) and the CLI parser (any
 * byte stream must parse or fail cleanly, never crash, hang, or
 * over-allocate).  This is the net under the whole policy zoo
 * and every parser that touches untrusted bytes.
 */

#include <gtest/gtest.h>

#include <map>
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

/** Characters the spec fuzzers splice in as noise. */
constexpr char kSpecNoise[] = "abcdefghijklmnopqrstuvwxyz0123456789-=_,:. ";

/** @return a random decimal: small, long, leading zeros or empty. */
std::string
randomValue(Rng &rng)
{
    switch (rng.below(6)) {
      case 0:
        return std::to_string(rng.below(70));
      case 1:
        return "0" + std::to_string(rng.below(40));
      case 2:
        return std::to_string(rng.below(std::uint64_t{1} << 21));
      case 3: {
        // Up to 21 digits: past 2^64 - 1 about half the time.
        std::string v(1 + rng.below(21), '0');
        for (char &c : v)
            c = static_cast<char>('0' + rng.below(10));
        return v;
      }
      case 4:
        return rng.chance(0.5) ? "18446744073709551615"
                               : "18446744073709551617";
      default: {
        static const char *const words[] = {"none", "rand", "rand-dynamic",
                                            "x", ""};
        return words[rng.below(5)];
      }
    }
}

/**
 * @return a random spec over @p families and @p keys: mostly
 * family:key=value,... built from the vocabulary, with duplicate and
 * foreign keys, malformed items and noise bytes mixed in.
 */
std::string
randomSpec(Rng &rng, const std::vector<std::string> &families,
           const std::vector<std::string> &keys)
{
    std::string s = rng.chance(0.9) ? families[rng.below(families.size())]
                                    : std::string();
    const std::size_t items = rng.below(4);
    for (std::size_t i = 0; i < items; ++i) {
        s += i == 0 ? ':' : ',';
        if (rng.chance(0.05))
            continue;  // empty item
        s += keys[rng.below(keys.size())];
        if (rng.chance(0.95))
            s += "=" + randomValue(rng);
    }
    const std::size_t noise = rng.chance(0.25) ? rng.between(1, 3) : 0;
    for (std::size_t n = 0; n < noise; ++n) {
        const char c = kSpecNoise[rng.below(sizeof(kSpecNoise) - 1)];
        if (!s.empty() && rng.chance(0.5))
            s[rng.below(s.size())] = c;
        else
            s += c;
    }
    return s;
}

/** Every key any family declares, plus some no family does. */
const std::vector<std::string> kFuzzKeys = {
    "d",    "epoch", "topk", "pool", "maxsel", "board", "shift", "shct",
    "sets", "ways",  "def",  "key",  "period", "seed",  "foo",   "dlimit"};

/**
 * The keys README.md documents for each policy family, with their
 * ranges; a family missing here takes no keys.
 */
/** Documented [min, max] of each key of one family. */
using KeyRanges =
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>;

const std::map<std::string, KeyRanges> kPolicyKeyRanges = [] {
    const std::uint64_t u32 = 0xffffffffu;
    const std::uint64_t u64 = ~std::uint64_t{0};
    std::map<std::string, KeyRanges> m;
    for (const char *f : {"nucache", "nucache-adaptive", "nucache-topk",
                          "nucache-all", "nucache-none"}) {
        m[f] = {{"d", {0, u32}},      {"epoch", {1, u64}},
                {"topk", {0, u32}},   {"pool", {0, u32}},
                {"maxsel", {0, u32}}, {"board", {1, 1u << 20}},
                {"shift", {0, 31}}};
    }
    m["ucp"] = m["pipp"] = {{"epoch", {1, u64}}};
    m["hawkeye"] = {{"shift", {0, 31}}};
    m["ship"] = {{"shct", {1, 24}}};
    return m;
}();

/**
 * Policy-spec fuzzer: random strings through parsePolicySpec, the
 * never-fatal entry point the server validates untrusted specs with.
 * A rejection must say why.  An accepted spec must keep its canonical
 * spelling through a second parse, build through the fatal
 * makePolicy(), and hold only the keys and ranges its family documents.
 */
TEST(SpecFuzz, RandomPolicySpecsParseOrFailCleanly)
{
    Rng rng(0x5bec5eed);
    std::vector<std::string> families = allPolicyNames();
    families.push_back("nope");
    std::size_t accepted = 0;
    for (int iter = 0; iter < 6000; ++iter) {
        const std::string text = randomSpec(rng, families, kFuzzKeys);
        spec::Spec parsed;
        std::string err;
        if (!parsePolicySpec(text, parsed, err)) {
            ASSERT_FALSE(err.empty()) << text;
            continue;
        }
        ++accepted;
        const std::string canonical = parsed.canonical();
        spec::Spec again;
        ASSERT_TRUE(parsePolicySpec(canonical, again, err)) << err;
        ASSERT_EQ(again.canonical(), canonical) << text;
        ASSERT_NE(makePolicy(text), nullptr) << text;

        const std::string family(parsed.family->name);
        const auto ranges = kPolicyKeyRanges.find(family);
        for (std::size_t i = 0; i < parsed.family->keys.size(); ++i) {
            const std::string key(parsed.family->keys[i].name);
            ASSERT_NE(ranges, kPolicyKeyRanges.end()) << family;
            const auto range = ranges->second.find(key);
            ASSERT_NE(range, ranges->second.end()) << family << ":" << key;
            if (!parsed.has(key))
                continue;
            ASSERT_GE(parsed.values[i], range->second.first) << text;
            ASSERT_LE(parsed.values[i], range->second.second) << text;
        }
    }
    // The vocabulary must reach the accepting side, not just errors.
    EXPECT_GT(accepted, 1000u);
}

/**
 * Defense-spec fuzzer: the same contract for the rand_index grammar.
 * Every accepted spec's canonical rendering round-trips and builds
 * through the fatal parseIndexDefense().
 */
TEST(SpecFuzz, RandomDefenseSpecsParseOrFailCleanly)
{
    Rng rng(0xdef5eed);
    const std::vector<std::string> families = {"none", "rand",
                                               "rand-dynamic", "ceaser"};
    std::size_t accepted = 0;
    for (int iter = 0; iter < 8000; ++iter) {
        const std::string text = randomSpec(rng, families, kFuzzKeys);
        IndexDefenseConfig cfg;
        std::string err;
        if (!tryParseIndexDefense(text, cfg, err)) {
            ASSERT_FALSE(err.empty()) << text;
            continue;
        }
        ++accepted;
        if (cfg.kind == IndexDefenseKind::RandDynamic) {
            ASSERT_GT(cfg.period, 0u);
        }
        // The canonical rendering must round-trip.
        IndexDefenseConfig again;
        ASSERT_TRUE(tryParseIndexDefense(cfg.spec(), again, err)) << err;
        ASSERT_EQ(again.spec(), cfg.spec());
        ASSERT_EQ(parseIndexDefense(text).spec(), cfg.spec());
    }
    EXPECT_GT(accepted, 1000u);
}

/**
 * Attack-name fuzzer: random parameter strings after the attack:
 * prefix must parse or be rejected with a reason — never crash or
 * fatal().  The server's workload validation funnels untrusted names
 * through tryParseAttackSpec, so this is a hostile-input surface.
 */
TEST(SpecFuzz, RandomAttackNamesParseOrFailCleanly)
{
    Rng rng(0xa77ac5eed);
    const std::vector<std::string> families = {"evset", "storm", "bogus"};
    std::size_t accepted = 0;
    for (int iter = 0; iter < 8000; ++iter) {
        const std::string name =
            "attack:" + randomSpec(rng, families, kFuzzKeys);
        AttackSpec spec;
        std::string err;
        if (!tryParseAttackSpec(name, spec, err)) {
            ASSERT_FALSE(err.empty()) << name;
            ASSERT_FALSE(isWorkloadName(name));
            continue;
        }
        ++accepted;
        // Accepted specs must satisfy the documented ranges and be
        // consistent with the workload-layer dispatch.
        ASSERT_GE(spec.sets, 2u);
        ASSERT_LE(spec.sets, 1u << 20);
        ASSERT_EQ(spec.sets & (spec.sets - 1), 0u);
        ASSERT_GE(spec.ways, 1u);
        ASSERT_LE(spec.ways, 64u);
        if (spec.defense.kind == IndexDefenseKind::RandDynamic) {
            ASSERT_GT(spec.defense.period, 0u);
        }
        ASSERT_TRUE(isWorkloadName(name));
        AttackSpec again;
        ASSERT_TRUE(tryParseAttackSpec(spec.name, again, err)) << err;
        ASSERT_EQ(again.name, spec.name);
        ASSERT_EQ(parseAttackSpec(name).name, spec.name);
    }
    EXPECT_GT(accepted, 500u);
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
