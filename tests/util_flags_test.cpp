#include "util/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "deploy/rng.h"

namespace spr {
namespace {

TEST(Flags, ParsesIntAndDouble) {
  int n = 5;
  double x = 1.0;
  FlagSet flags("test");
  flags.add_int("n", &n, "count");
  flags.add_double("x", &x, "factor");
  const char* argv[] = {"prog", "--n=42", "--x", "2.5"};
  ASSERT_TRUE(flags.parse(4, argv));
  EXPECT_EQ(n, 42);
  EXPECT_DOUBLE_EQ(x, 2.5);
}

TEST(Flags, DefaultsSurviveWhenUnset) {
  int n = 7;
  FlagSet flags("test");
  flags.add_int("n", &n, "count");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv));
  EXPECT_EQ(n, 7);
}

TEST(Flags, BoolForms) {
  bool verbose = false, color = true;
  FlagSet flags("test");
  flags.add_bool("verbose", &verbose, "v");
  flags.add_bool("color", &color, "c");
  const char* argv[] = {"prog", "--verbose", "--no-color"};
  ASSERT_TRUE(flags.parse(3, argv));
  EXPECT_TRUE(verbose);
  EXPECT_FALSE(color);
}

TEST(Flags, BoolExplicitValue) {
  bool flag = false;
  FlagSet flags("test");
  flags.add_bool("flag", &flag, "f");
  const char* argv[] = {"prog", "--flag=true"};
  ASSERT_TRUE(flags.parse(2, argv));
  EXPECT_TRUE(flag);
}

TEST(Flags, NegatedBoolRejectsAValue) {
  // A value on `--no-` must not set the flag it negates.
  for (const char* arg : {"--no-flag=true", "--no-flag=false", "--no-flag="}) {
    bool flag = true;
    FlagSet flags("test");
    flags.add_bool("flag", &flag, "f");
    const char* argv[] = {"prog", arg};
    EXPECT_FALSE(flags.parse(2, argv)) << arg;
    EXPECT_TRUE(flag) << arg;
  }
}

TEST(Flags, StringAndUint64) {
  std::string name = "default";
  unsigned long long seed = 0;
  FlagSet flags("test");
  flags.add_string("name", &name, "n");
  flags.add_uint64("seed", &seed, "s");
  const char* argv[] = {"prog", "--name=hello", "--seed=18446744073709551615"};
  ASSERT_TRUE(flags.parse(3, argv));
  EXPECT_EQ(name, "hello");
  EXPECT_EQ(seed, 18446744073709551615ull);
}

TEST(Flags, UnknownFlagFails) {
  FlagSet flags("test");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(Flags, BadValueFails) {
  int n = 0;
  FlagSet flags("test");
  flags.add_int("n", &n, "count");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(Flags, MissingValueFails) {
  int n = 0;
  FlagSet flags("test");
  flags.add_int("n", &n, "count");
  const char* argv[] = {"prog", "--n"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(Flags, HelpReturnsFalse) {
  FlagSet flags("test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(Flags, PositionalCollected) {
  FlagSet flags("test");
  const char* argv[] = {"prog", "alpha", "beta"};
  ASSERT_TRUE(flags.parse(3, argv));
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "alpha");
  EXPECT_EQ(flags.positional()[1], "beta");
}

TEST(Flags, UsageListsFlagsAndDefaults) {
  int n = 9;
  FlagSet flags("my tool");
  flags.add_int("nodes", &n, "node count");
  std::string usage = flags.usage();
  EXPECT_NE(usage.find("my tool"), std::string::npos);
  EXPECT_NE(usage.find("--nodes"), std::string::npos);
  EXPECT_NE(usage.find("default: 9"), std::string::npos);
  EXPECT_NE(usage.find("node count"), std::string::npos);
}

/// Seeded argv mutants through `parse`, over one flag of each kind. Each
/// token is a flag name (known, unknown or empty; bare, `--no-` or with an
/// `=` value) or a bare value, and the values are hostile: empty, `=`,
/// nan, inf, 1e999, -0, integers past 32 and 64 bits, signs and spaces.
/// Every call must return, accepting or rejecting, with no abort; the
/// sanitizer build runs this too, so an out-of-range read or a bad cast
/// fails it.
TEST(Flags, MutatedArgvNeverAborts) {
  constexpr std::string_view kNames[] = {"n", "x", "flag", "name", "seed",
                                         "bogus", "", "no-", "-"};
  constexpr std::string_view kValues[] = {
      "", "=", "nan", "-nan", "inf", "-inf", "1e999", "-1e999", "1e-400",
      "-0", "0", "1", "-1", "+1", " 1", "1 ", "0x10", "2147483648",
      "-2147483649", "18446744073709551615", "18446744073709551616",
      "-9223372036854775809", "99999999999999999999999999", "true", "false",
      "yes", "off", "--", "-", "--help", "-h", "--no-x=", "--no-flag", "\xff"};
  auto pick = [](Rng& rng, const auto& pool) {
    return std::string(pool[rng.next_below(std::size(pool))]);
  };
  Rng rng(0xf1a65eed);
  int accepted = 0;
  int rejected = 0;
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  for (int i = 0; i < 4000; ++i) {
    int n = 5;
    double x = 1.0;
    bool flag = false;
    std::string name = "default";
    unsigned long long seed = 7;
    FlagSet flags("fuzz");
    flags.add_int("n", &n, "int");
    flags.add_double("x", &x, "double");
    flags.add_bool("flag", &flag, "bool");
    flags.add_string("name", &name, "string");
    flags.add_uint64("seed", &seed, "uint64");

    std::vector<std::string> tokens = {"prog"};
    const auto count = 1 + rng.next_below(5);
    for (std::uint64_t t = 0; t < count; ++t) {
      switch (rng.next_below(4)) {
        case 0: tokens.push_back("--" + pick(rng, kNames)); break;
        case 1: tokens.push_back("--no-" + pick(rng, kNames)); break;
        case 2:
          tokens.push_back("--" + pick(rng, kNames) + "=" + pick(rng, kValues));
          break;
        default: tokens.push_back(pick(rng, kValues));
      }
    }
    std::vector<const char*> argv;
    for (const std::string& token : tokens) argv.push_back(token.c_str());
    if (flags.parse(static_cast<int>(argv.size()), argv.data())) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  testing::internal::GetCapturedStderr();
  testing::internal::GetCapturedStdout();
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace spr
