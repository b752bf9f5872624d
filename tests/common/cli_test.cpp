#include "common/cli.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace vstack {
namespace {

CliArgs make(std::initializer_list<const char*> argv,
             std::vector<std::string> known = {}) {
  std::vector<const char*> v(argv);
  return CliArgs(static_cast<int>(v.size()), v.data(), std::move(known));
}

TEST(CliTest, SubcommandAndPositionals) {
  const auto args = make({"prog", "noise", "extra"});
  EXPECT_EQ(args.program(), "prog");
  EXPECT_EQ(args.subcommand(), "noise");
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positionals()[1], "extra");
}

TEST(CliTest, EmptySubcommand) {
  const auto args = make({"prog"});
  EXPECT_EQ(args.subcommand(), "");
}

TEST(CliTest, TypedGetters) {
  const auto args =
      make({"prog", "x", "--layers=8", "--imbalance=0.65", "--map"});
  EXPECT_EQ(args.get_size("layers", 2), 8u);
  EXPECT_DOUBLE_EQ(args.get_double("imbalance", 0.0), 0.65);
  EXPECT_TRUE(args.get_bool("map"));
  EXPECT_EQ(args.get_string("missing", "dflt"), "dflt");
  EXPECT_EQ(args.get_size("missing", 4), 4u);
}

TEST(CliTest, BooleanSpellings) {
  EXPECT_TRUE(make({"p", "--f=yes"}).get_bool("f"));
  EXPECT_FALSE(make({"p", "--f=0"}).get_bool("f", true));
  EXPECT_THROW(make({"p", "--f=maybe"}).get_bool("f"), Error);
}

TEST(CliTest, RejectsUnknownOptionWhenListed) {
  EXPECT_THROW(make({"p", "--bogus=1"}, {"layers"}), Error);
  EXPECT_NO_THROW(make({"p", "--layers=2"}, {"layers"}));
}

TEST(CliTest, RejectsDuplicatesAndMalformed) {
  EXPECT_THROW(make({"p", "--a=1", "--a=2"}), Error);
  EXPECT_THROW(make({"p", "--"}), Error);
  EXPECT_THROW(make({"p", "--n=abc"}).get_double("n", 0.0), Error);
  EXPECT_THROW(make({"p", "--n=1.5"}).get_size("n", 0), Error);
  EXPECT_THROW(make({"p", "--n=12x"}).get_double("n", 0.0), Error);
}

TEST(CliTest, NumbersFollowTheSharedRule) {
  // Non-finite and out-of-range values are rejected like any malformed one.
  for (const char* arg : {"--n=inf", "--n=nan", "--n=-inf", "--n=1e400",
                          "--n=1e-320"}) {
    EXPECT_THROW(make({"p", arg}).get_double("n", 0.0), Error) << arg;
  }
  for (const char* arg : {"--n=1e30", "--n=18446744073709551616", "--n=-1"}) {
    EXPECT_THROW(make({"p", arg}).get_size("n", 0), Error) << arg;
  }
  EXPECT_EQ(make({"p", "--n=1e3"}).get_size("n", 0), 1000u);
}

}  // namespace
}  // namespace vstack
