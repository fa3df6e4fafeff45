#include "util/flags.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace spr
