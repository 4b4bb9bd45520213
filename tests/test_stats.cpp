#include "util/stats.h"

#include <gtest/gtest.h>

#include "util/table.h"

namespace sqs {
namespace {

TEST(RunningStat, MeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_NEAR(s.mean(), 5.0, 1e-12);
  // Sample variance of the classic dataset is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStat, SingleValue) {
  RunningStat s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_half_width(), 0.0);
}

TEST(RunningStat, CiShrinksWithSamples) {
  RunningStat small, large;
  for (int i = 0; i < 10; ++i) small.add(i % 2);
  for (int i = 0; i < 1000; ++i) large.add(i % 2);
  EXPECT_GT(small.ci95_half_width(), large.ci95_half_width());
}

TEST(Proportion, EstimateAndWilson) {
  Proportion p;
  for (int i = 0; i < 80; ++i) p.add(true);
  for (int i = 0; i < 20; ++i) p.add(false);
  EXPECT_DOUBLE_EQ(p.estimate(), 0.8);
  EXPECT_LT(p.wilson_low(), 0.8);
  EXPECT_GT(p.wilson_high(), 0.8);
  EXPECT_GT(p.wilson_low(), 0.7);
  EXPECT_LT(p.wilson_high(), 0.9);
}

TEST(Proportion, EmptyAndExtremes) {
  Proportion empty;
  EXPECT_DOUBLE_EQ(empty.estimate(), 0.0);
  EXPECT_DOUBLE_EQ(empty.wilson_low(), 0.0);
  EXPECT_DOUBLE_EQ(empty.wilson_high(), 1.0);

  Proportion all;
  for (int i = 0; i < 50; ++i) all.add(true);
  EXPECT_DOUBLE_EQ(all.estimate(), 1.0);
  EXPECT_LT(all.wilson_low(), 1.0);  // never certain from finite samples
  EXPECT_GT(all.wilson_low(), 0.9);
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2.5"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| longer"), std::string::npos);
  EXPECT_NE(s.find("|------"), std::string::npos);
}

TEST(Table, MissingCellsRenderedEmpty) {
  Table t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_NE(t.to_string().find("| 1"), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt_sci(0.000123, 2), "1.23e-04");
}

}  // namespace
}  // namespace sqs
