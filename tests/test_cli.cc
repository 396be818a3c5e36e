/**
 * @file
 * Tests for the command-line flag parser and the shared bench/tool
 * flag validation built on top of it.
 */

#include <gtest/gtest.h>

#include "bench_common.hh"
#include "common/cli.hh"

namespace nucache
{
namespace
{

CliArgs
parse(std::initializer_list<const char *> args)
{
    std::vector<const char *> argv = {"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, EqualsForm)
{
    const auto a = parse({"--records=500"});
    EXPECT_TRUE(a.has("records"));
    EXPECT_EQ(a.getInt("records", 0), 500u);
}

TEST(CliArgs, SpaceForm)
{
    const auto a = parse({"--workload", "mcf"});
    EXPECT_EQ(a.get("workload", ""), "mcf");
}

TEST(CliArgs, BooleanFlag)
{
    const auto a = parse({"--quick"});
    EXPECT_TRUE(a.has("quick"));
    EXPECT_FALSE(a.has("slow"));
}

TEST(CliArgs, DefaultsWhenAbsent)
{
    const auto a = parse({});
    EXPECT_EQ(a.getInt("n", 42), 42u);
    EXPECT_DOUBLE_EQ(a.getDouble("x", 2.5), 2.5);
    EXPECT_EQ(a.get("s", "dflt"), "dflt");
}

TEST(CliArgs, PositionalArgumentsKeptInOrder)
{
    const auto a = parse({"one", "--k=v", "two"});
    ASSERT_EQ(a.positional().size(), 2u);
    EXPECT_EQ(a.positional()[0], "one");
    EXPECT_EQ(a.positional()[1], "two");
}

TEST(CliArgs, UnknownKeysListsFlagsOutsideTheKnownSet)
{
    const auto a =
        parse({"--records=5", "--help", "--jsn", "out.json", "--quick"});
    EXPECT_EQ(a.unknownKeys({"records", "quick", "json"}),
              (std::vector<std::string>{"help", "jsn"}));
    EXPECT_TRUE(a.unknownKeys({"records", "quick", "help", "jsn"}).empty());
    EXPECT_TRUE(parse({}).unknownKeys({}).empty());
}

TEST(CliArgs, DoubleParsing)
{
    const auto a = parse({"--frac=0.75"});
    EXPECT_DOUBLE_EQ(a.getDouble("frac", 0.0), 0.75);
}

TEST(CliArgsDeathTest, RejectsNonNumeric)
{
    const auto a = parse({"--n=abc"});
    EXPECT_EXIT(a.getInt("n", 0), ::testing::ExitedWithCode(1),
                "expects an integer");
}

TEST(CliArgsDeathTest, RejectsZeroJobs)
{
    const auto a = parse({"--jobs=0"});
    EXPECT_EXIT(bench::parseOptions(a, 1000),
                ::testing::ExitedWithCode(1),
                "--jobs must be at least 1");
}

} // anonymous namespace
} // namespace nucache
