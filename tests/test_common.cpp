// Unit tests for the common substrate: ids, time, RNG, statistics,
// tables, CSV.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <type_traits>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "common/stats.hpp"
#include "common/strong_id.hpp"
#include "common/table.hpp"

namespace dagon {
namespace {

TEST(StrongId, DefaultIsInvalid) {
  StageId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, StageId::invalid());
}

// Ids key ordered containers only: there is no std::hash for them, so
// no hash-order walk can reach a decision path.
TEST(StrongId, ComparesAndOrdersWithoutHash) {
  StageId a(1);
  StageId b(2);
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_EQ(StageId(1), a);
  const std::set<StageId> set{b, a, StageId(1)};
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(*set.begin(), a);
  static_assert(!std::is_default_constructible_v<std::hash<StageId>>);
}

TEST(StrongId, DistinctTagTypesDoNotMix) {
  static_assert(!std::is_convertible_v<StageId, TaskId>);
  static_assert(!std::is_assignable_v<StageId&, RddId>);
  SUCCEED();
}

TEST(SimTime, Conversions) {
  EXPECT_EQ(from_seconds(1.5), SimTime{1'500'000});
  EXPECT_DOUBLE_EQ(to_seconds(2 * kSec + 500 * kMsec), 2.5);
  EXPECT_EQ(kMinute, 60 * kSec);
}

TEST(SimTime, FormatDuration) {
  EXPECT_EQ(format_duration(500 * kUsec), "0.5ms");
  EXPECT_EQ(format_duration(2 * kSec), "2.00s");
  EXPECT_EQ(format_duration(3 * kMinute), "3.0min");
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(10);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 10);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(3);
  bool hit_lo = false;
  bool hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_range(5, 7);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 7);
    hit_lo |= v == 5;
    hit_hi |= v == 7;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, ForkIsIndependent) {
  Rng a(42);
  Rng fork = a.fork(1);
  const auto before = a.next();
  Rng b(42);
  (void)b.fork(1);
  EXPECT_EQ(before, b.next());  // forking does not perturb the parent
  EXPECT_NE(fork.next(), before);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, RejectsNonPositiveBound) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(0), InvariantError);
}

TEST(MedianOf, OddAndEvenSampleCounts) {
  EXPECT_EQ(median_of({SimTime{7}}), SimTime{7});
  EXPECT_EQ(median_of({SimTime{3}, SimTime{1}, SimTime{2}}), SimTime{2});
  // Even count: midpoint of the two middle elements, not the upper one.
  EXPECT_EQ(median_of({4 * kSec, 2 * kSec, kSec, 3 * kSec}),
            2 * kSec + kSec / 2);
  EXPECT_EQ(median_of({SimTime{10}, SimTime{20}}), SimTime{15});
  // Duplicates around the middle collapse to the shared value.
  EXPECT_EQ(median_of({SimTime{5}, SimTime{5}, SimTime{1}, SimTime{9}}),
            SimTime{5});
}

TEST(OnlineStats, BasicMoments) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
}

TEST(OnlineStats, MergeEqualsCombined) {
  OnlineStats a;
  OnlineStats b;
  OnlineStats all;
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(0, 10);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(SampleSet, Quantiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.quantile(0.25), 25.75, 1e-9);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(SampleSet, EmptyIsZero) {
  SampleSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.median(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(StepFunction, IntegralAndAverage) {
  StepFunction f(0.0);
  f.set(SimTime{0}, 4.0);
  f.set(SimTime{10}, 8.0);
  f.set(SimTime{20}, 0.0);
  // [0,10): 4, [10,20): 8 -> integral 120, average 6 over [0,20).
  EXPECT_DOUBLE_EQ(f.integral(SimTime{0}, SimTime{20}), 120.0);
  EXPECT_DOUBLE_EQ(f.average(SimTime{0}, SimTime{20}), 6.0);
  EXPECT_DOUBLE_EQ(f.average(SimTime{5}, SimTime{15}), 6.0);
}

TEST(StepFunction, AddDelta) {
  StepFunction f;
  f.add(SimTime{0}, 3.0);
  f.add(SimTime{5}, 2.0);
  f.add(SimTime{10}, -5.0);
  EXPECT_DOUBLE_EQ(f.at(SimTime{0}), 3.0);
  EXPECT_DOUBLE_EQ(f.at(SimTime{7}), 5.0);
  EXPECT_DOUBLE_EQ(f.at(SimTime{10}), 0.0);
  EXPECT_DOUBLE_EQ(f.max_over(SimTime{0}, SimTime{11}), 5.0);
}

TEST(StepFunction, UpdatesAtSameInstantCollapse) {
  StepFunction f;
  f.add(SimTime{5}, 1.0);
  f.add(SimTime{5}, 1.0);
  f.add(SimTime{5}, -2.0);
  EXPECT_DOUBLE_EQ(f.at(SimTime{5}), 0.0);
  EXPECT_DOUBLE_EQ(f.integral(SimTime{0}, SimTime{10}), 0.0);
}

TEST(StepFunction, RejectsTimeTravel) {
  StepFunction f;
  f.set(SimTime{10}, 1.0);
  EXPECT_THROW(f.set(SimTime{5}, 2.0), InvariantError);
}

TEST(StepFunction, AtBeforeFirstPoint) {
  StepFunction f(2.5);
  EXPECT_DOUBLE_EQ(f.at(SimTime{0}), 2.5);
  EXPECT_DOUBLE_EQ(f.at(SimTime{1000}), 2.5);
}

TEST(Sparkline, ProducesExpectedWidth) {
  StepFunction f;
  f.set(SimTime{0}, 1.0);
  f.set(SimTime{50}, 8.0);
  const std::string line =
      sparkline(f, SimTime{0}, SimTime{100}, 10, 8.0);
  // Each glyph is a 3-byte UTF-8 codepoint (or a 1-byte space).
  EXPECT_GE(line.size(), 10u);
}

TEST(TextTable, RendersAlignedTable) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22.5  |"), std::string::npos);
}

TEST(TextTable, RejectsWrongArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvariantError);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::percent(0.423, 1), "42.3%");
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesFile) {
  const std::string path = ::testing::TempDir() + "/dagon_csv_test.csv";
  {
    CsvWriter w(path, {"x", "y"});
    w.add_row({"1", "2"});
    w.add_row({"a,b", "3"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "\"a,b\",3");
  std::remove(path.c_str());
}

TEST(Csv, WrongWidthThrows) {
  const std::string path = ::testing::TempDir() + "/dagon_csv_test2.csv";
  CsvWriter w(path, {"x", "y"});
  EXPECT_THROW(w.add_row({"1"}), InvariantError);
  std::remove(path.c_str());
}

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    DAGON_CHECK_MSG(1 == 2, "custom detail " << 42);
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace dagon
