// Command-line flag parser used by the example/bench executables.
#include <gtest/gtest.h>

#include "util/args.h"

namespace lrs {
namespace {

Args make(std::initializer_list<const char*> argv) {
  std::vector<const char*> full{"prog"};
  full.insert(full.end(), argv.begin(), argv.end());
  return Args(static_cast<int>(full.size()), full.data());
}

TEST(Args, EqualsForm) {
  auto a = make({"--loss=0.25", "--scheme=seluge"});
  EXPECT_DOUBLE_EQ(a.get_double("loss", 0), 0.25);
  EXPECT_EQ(a.get("scheme", ""), "seluge");
}

TEST(Args, SpaceSeparatedForm) {
  auto a = make({"--receivers", "12", "--topo", "grid"});
  EXPECT_EQ(a.get_int("receivers", 0), 12);
  EXPECT_EQ(a.get("topo", ""), "grid");
}

TEST(Args, BareFlagIsBoolean) {
  auto a = make({"--noise", "--leap"});
  EXPECT_TRUE(a.get_bool("noise", false));
  EXPECT_TRUE(a.get_bool("leap", false));
  EXPECT_FALSE(a.get_bool("absent", false));
}

TEST(Args, BooleanNegations) {
  auto a = make({"--x=false", "--y=0", "--z=no"});
  EXPECT_FALSE(a.get_bool("x", true));
  EXPECT_FALSE(a.get_bool("y", true));
  EXPECT_FALSE(a.get_bool("z", true));
}

TEST(Args, BooleanAffirmatives) {
  auto a = make({"--x=true", "--y=1", "--z=yes"});
  EXPECT_TRUE(a.get_bool("x", false));
  EXPECT_TRUE(a.get_bool("y", false));
  EXPECT_TRUE(a.get_bool("z", false));
  EXPECT_TRUE(a.errors().empty());
}

// "--list file.scn" reads as --list=file.scn: the boolean must reject the
// value instead of reading it as true and losing the positional.
TEST(Args, BooleanRejectsOtherValues) {
  auto a = make({"--list", "scenarios/churn.scn", "--quick=maybe"});
  EXPECT_FALSE(a.get_bool("list", false));
  EXPECT_FALSE(a.get_bool("quick", false));
  ASSERT_EQ(a.errors().size(), 2u);
  EXPECT_NE(a.errors()[0].find("--list"), std::string::npos);
  EXPECT_NE(a.errors()[0].find("scenarios/churn.scn"), std::string::npos);
  EXPECT_NE(a.errors()[1].find("--quick"), std::string::npos);
}

TEST(Args, EmptyNumberRecordsError) {
  auto a = make({"--jobs=", "--loss="});
  EXPECT_EQ(a.get_int("jobs", 3), 3);
  EXPECT_DOUBLE_EQ(a.get_double("loss", 0.5), 0.5);
  ASSERT_EQ(a.errors().size(), 2u);
  EXPECT_NE(a.errors()[0].find("--jobs"), std::string::npos);
  EXPECT_NE(a.errors()[1].find("--loss"), std::string::npos);
}

TEST(Args, DefaultsWhenAbsent) {
  auto a = make({});
  EXPECT_EQ(a.get_int("k", 32), 32);
  EXPECT_DOUBLE_EQ(a.get_double("loss", 0.1), 0.1);
  EXPECT_EQ(a.get("scheme", "lr"), "lr");
}

TEST(Args, PositionalsCollected) {
  auto a = make({"input.bin", "--loss=0.1", "output.bin"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "input.bin");
  EXPECT_EQ(a.positional()[1], "output.bin");
}

TEST(Args, BadIntegerRecordsError) {
  auto a = make({"--receivers=twenty"});
  EXPECT_EQ(a.get_int("receivers", 7), 7);
  ASSERT_EQ(a.errors().size(), 1u);
  EXPECT_NE(a.errors()[0].find("receivers"), std::string::npos);
}

TEST(Args, BadDoubleRecordsError) {
  auto a = make({"--loss=lots"});
  EXPECT_DOUBLE_EQ(a.get_double("loss", 0.5), 0.5);
  EXPECT_EQ(a.errors().size(), 1u);
}

TEST(Args, UnknownFlagsReported) {
  auto a = make({"--known=1", "--typo=2"});
  a.get_int("known", 0);
  const auto unknown = a.unknown();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "--typo");
}

TEST(Args, BareFlagBeforeAnotherFlagStaysBoolean) {
  auto a = make({"--noise", "--loss", "0.3"});
  EXPECT_TRUE(a.get_bool("noise", false));
  EXPECT_DOUBLE_EQ(a.get_double("loss", 0), 0.3);
}

}  // namespace
}  // namespace lrs
