// Unit tests for util/: Status, Rng, math helpers, BitVector, VisitMarker,
// and the Flags parser.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "util/bit_vector.h"
#include "util/flags.h"
#include "util/math.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"
#include "util/types.h"
#include "util/visit_marker.h"

namespace timpp {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructorsSetCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, EachCodePredicateMatchesOnlyItsCode) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_FALSE(Status::NotFound("x").IsIOError());
  EXPECT_FALSE(Status::OK().IsInvalidArgument());
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status {
    TIMPP_RETURN_NOT_OK(Status::IOError("disk on fire"));
    return Status::OK();
  };
  auto succeeds = []() -> Status {
    TIMPP_RETURN_NOT_OK(Status::OK());
    return Status::NotFound("reached the end");
  };
  EXPECT_TRUE(fails().IsIOError());
  EXPECT_TRUE(succeeds().IsNotFound());
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanIsHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(RngTest, NextBoundedStaysInBounds) {
  Rng rng(13);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBounded(bound), bound);
  }
}

TEST(RngTest, NextBoundedZeroReturnsZero) {
  Rng rng(5);
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(RngTest, NextGeometricMeanMatchesClosedForm) {
  // Failures before the first Bernoulli(p) success have mean (1-p)/p.
  Rng rng(23);
  for (double p : {0.5, 0.1, 0.9}) {
    const int n = 200000;
    double sum = 0;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(rng.NextGeometric(p, 1ULL << 40));
    }
    const double expected = (1.0 - p) / p;
    EXPECT_NEAR(sum / n, expected, 0.05 * std::max(1.0, expected))
        << "p=" << p;
  }
}

TEST(RngTest, NextGeometricEdgeProbabilities) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextGeometric(1.0, 100), 0u) << "p=1 succeeds immediately";
    EXPECT_EQ(rng.NextGeometric(0.0, 7), 7u) << "p=0 never succeeds";
  }
}

TEST(RngTest, NextGeometricHonorsLimit) {
  // Tiny p makes raw skips astronomically large; the cap must absorb them
  // without overflow.
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(rng.NextGeometric(1e-12, 50), 50u);
  }
}

TEST(RngTest, NextSkipMatchesNextGeometric) {
  // NextSkip is NextGeometric with 1/ln(1-p) precomputed: identical
  // streams.
  Rng a(37), b(37);
  const double p = 0.25;
  const double inv_log1mp = 1.0 / std::log1p(-p);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.NextGeometric(p, 1000), b.NextSkip(inv_log1mp, 1000));
  }
}

TEST(RngTest, NextBoundedIsRoughlyUniform) {
  Rng rng(17);
  const uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(bound)];
  for (uint64_t b = 0; b < bound; ++b) {
    EXPECT_NEAR(counts[b], n / static_cast<double>(bound), 500)
        << "bucket " << b;
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(19);
  const int n = 200000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(RngTest, BernoulliEdgeProbabilities) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(29);
  Rng child = parent.Fork();
  // The child must differ from a fresh copy of the parent.
  Rng parent_copy(29);
  parent_copy.Next();  // align with the parent's post-fork state
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (child.Next() == parent_copy.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, SplitMix64KnownSequenceIsDeterministic) {
  uint64_t s1 = 123, s2 = 123;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(SplitMix64(s1), SplitMix64(s2));
}

// ------------------------------------------------------------------ math --

TEST(MathTest, LogBinomialBaseCases) {
  EXPECT_DOUBLE_EQ(LogBinomial(10, 0), 0.0);
  EXPECT_DOUBLE_EQ(LogBinomial(10, 10), 0.0);
  EXPECT_TRUE(std::isinf(LogBinomial(5, 6)));
}

TEST(MathTest, LogBinomialMatchesSmallValues) {
  EXPECT_NEAR(LogBinomial(5, 2), std::log(10.0), 1e-9);
  EXPECT_NEAR(LogBinomial(10, 3), std::log(120.0), 1e-9);
  EXPECT_NEAR(LogBinomial(52, 5), std::log(2598960.0), 1e-6);
}

TEST(MathTest, LogBinomialSymmetry) {
  EXPECT_NEAR(LogBinomial(100, 30), LogBinomial(100, 70), 1e-6);
}

TEST(MathTest, SafeLogNGuardsSmallInputs) {
  EXPECT_DOUBLE_EQ(SafeLogN(0), std::log(2.0));
  EXPECT_DOUBLE_EQ(SafeLogN(1), std::log(2.0));
  EXPECT_DOUBLE_EQ(SafeLogN(1000), std::log(1000.0));
}

TEST(MathTest, FloorLog2) {
  EXPECT_EQ(FloorLog2(1), 0);
  EXPECT_EQ(FloorLog2(2), 1);
  EXPECT_EQ(FloorLog2(3), 1);
  EXPECT_EQ(FloorLog2(4), 2);
  EXPECT_EQ(FloorLog2(1023), 9);
  EXPECT_EQ(FloorLog2(1024), 10);
  EXPECT_EQ(FloorLog2(1ULL << 62), 62);
}

TEST(MathTest, ChernoffBoundsDecreaseWithSampleCount) {
  const double upper_small = ChernoffUpperTail(0.1, 100, 0.5);
  const double upper_large = ChernoffUpperTail(0.1, 10000, 0.5);
  EXPECT_GT(upper_small, upper_large);
  EXPECT_LE(upper_large, 1.0);
  const double lower_small = ChernoffLowerTail(0.1, 100, 0.5);
  const double lower_large = ChernoffLowerTail(0.1, 10000, 0.5);
  EXPECT_GT(lower_small, lower_large);
}

TEST(MathTest, ChernoffSampleSizeSatisfiesItsOwnBound) {
  const double delta = 0.2, mu = 0.1, fail = 1e-6;
  const double c = ChernoffSampleSize(delta, mu, fail);
  EXPECT_LE(ChernoffUpperTail(delta, c, mu), fail * 1.0000001);
}

// ------------------------------------------------------------- BitVector --

TEST(BitVectorTest, StartsAllClear) {
  BitVector bv(130);
  EXPECT_EQ(bv.size(), 130u);
  EXPECT_EQ(bv.Count(), 0u);
  for (size_t i = 0; i < 130; ++i) EXPECT_FALSE(bv.Get(i));
}

TEST(BitVectorTest, SetClearGet) {
  BitVector bv(100);
  bv.Set(0);
  bv.Set(63);
  bv.Set(64);
  bv.Set(99);
  EXPECT_TRUE(bv.Get(0));
  EXPECT_TRUE(bv.Get(63));
  EXPECT_TRUE(bv.Get(64));
  EXPECT_TRUE(bv.Get(99));
  EXPECT_EQ(bv.Count(), 4u);
  bv.Clear(63);
  EXPECT_FALSE(bv.Get(63));
  EXPECT_EQ(bv.Count(), 3u);
}

TEST(BitVectorTest, ConstructFilledCountsExactly) {
  BitVector bv(70, true);
  EXPECT_EQ(bv.Count(), 70u);  // the 58 tail bits of word 2 must not count
}

TEST(BitVectorTest, AssignAndReset) {
  BitVector bv(10);
  bv.Assign(3, true);
  EXPECT_TRUE(bv.Get(3));
  bv.Assign(3, false);
  EXPECT_FALSE(bv.Get(3));
  bv.Set(1);
  bv.Set(2);
  bv.Reset();
  EXPECT_EQ(bv.Count(), 0u);
}

TEST(BitVectorTest, ResizeReinitializes) {
  BitVector bv(10);
  bv.Set(5);
  bv.Resize(200, false);
  EXPECT_EQ(bv.size(), 200u);
  EXPECT_EQ(bv.Count(), 0u);
}

TEST(BitVectorTest, MemoryBytesTracksWords) {
  BitVector bv(128);
  EXPECT_EQ(bv.MemoryBytes(), 2 * sizeof(uint64_t));
}

// ----------------------------------------------------------- VisitMarker --

TEST(VisitMarkerTest, FreshMarkerHasNothingVisited) {
  VisitMarker marker(10);
  for (NodeId v = 0; v < 10; ++v) EXPECT_FALSE(marker.Visited(v));
}

TEST(VisitMarkerTest, VisitAndCheck) {
  VisitMarker marker(10);
  marker.NewEpoch();
  marker.Visit(3);
  EXPECT_TRUE(marker.Visited(3));
  EXPECT_FALSE(marker.Visited(4));
}

TEST(VisitMarkerTest, NewEpochClearsInConstantTime) {
  VisitMarker marker(10);
  marker.NewEpoch();
  marker.Visit(1);
  marker.NewEpoch();
  EXPECT_FALSE(marker.Visited(1));
}

TEST(VisitMarkerTest, VisitIfNewReportsFirstVisitOnly) {
  VisitMarker marker(10);
  marker.NewEpoch();
  EXPECT_TRUE(marker.VisitIfNew(5));
  EXPECT_FALSE(marker.VisitIfNew(5));
  EXPECT_TRUE(marker.Visited(5));
}

TEST(VisitMarkerTest, UnvisitSupportsBacktracking) {
  VisitMarker marker(10);
  marker.NewEpoch();
  marker.Visit(2);
  marker.Unvisit(2);
  EXPECT_FALSE(marker.Visited(2));
  EXPECT_TRUE(marker.VisitIfNew(2));
}

TEST(VisitMarkerTest, ManyEpochsStayConsistent) {
  VisitMarker marker(4);
  for (int e = 0; e < 1000; ++e) {
    marker.NewEpoch();
    marker.Visit(e % 4);
    EXPECT_TRUE(marker.Visited(e % 4));
    EXPECT_FALSE(marker.Visited((e + 1) % 4));
  }
}

// ----------------------------------------------------------------- Flags --

std::vector<char*> MakeArgv(std::vector<std::string>& storage) {
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return argv;
}

TEST(FlagsTest, ParsesEqualsForm) {
  std::vector<std::string> args = {"prog", "--k=25", "--eps=0.3"};
  auto argv = MakeArgv(args);
  Flags flags(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(flags.GetInt("k", 0), 25);
  EXPECT_DOUBLE_EQ(flags.GetDouble("eps", 0.0), 0.3);
}

TEST(FlagsTest, ParsesSpaceForm) {
  std::vector<std::string> args = {"prog", "--k", "7", "--name", "tim"};
  auto argv = MakeArgv(args);
  Flags flags(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(flags.GetInt("k", 0), 7);
  EXPECT_EQ(flags.GetString("name", ""), "tim");
}

TEST(FlagsTest, BooleanSwitch) {
  std::vector<std::string> args = {"prog", "--verbose", "--full=false"};
  auto argv = MakeArgv(args);
  Flags flags(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.GetBool("full", true));
  EXPECT_TRUE(flags.GetBool("absent", true));
}

TEST(FlagsTest, DefaultsWhenMissing) {
  std::vector<std::string> args = {"prog"};
  auto argv = MakeArgv(args);
  Flags flags(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(flags.GetInt("k", 42), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("eps", 0.5), 0.5);
  EXPECT_FALSE(flags.Has("k"));
}

TEST(FlagsTest, PositionalArguments) {
  std::vector<std::string> args = {"prog", "input.txt", "--k=3", "out.txt"};
  auto argv = MakeArgv(args);
  Flags flags(static_cast<int>(argv.size()), argv.data());
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.txt");
  EXPECT_EQ(flags.positional()[1], "out.txt");
}

TEST(FlagsTest, NamesListsEveryFlagGivenSorted) {
  std::vector<std::string> args = {"prog", "in.txt", "--k=3", "--eps", "0.2",
                                   "--verbose"};
  auto argv = MakeArgv(args);
  Flags flags(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(flags.names(), (std::vector<std::string>{"eps", "k", "verbose"}));
}

TEST(FlagsTest, CheckedIntRefusesWhatDoesNotFit) {
  std::vector<std::string> args = {"prog",
                                   "--word=abc",
                                   "--junk=12x",
                                   "--empty=",
                                   "--plus=+5",
                                   "--int_min=-2147483648",
                                   "--int_max=2147483647",
                                   "--int_under=-2147483649",
                                   "--int_over=2147483648",
                                   "--u32_max=4294967295",
                                   "--u32_over=4294967296",
                                   "--zero=0",
                                   "--neg=-1",
                                   "--u64_max=18446744073709551615",
                                   "--u64_over=18446744073709551616"};
  auto argv = MakeArgv(args);
  Flags flags(static_cast<int>(argv.size()), argv.data());

  int i = 7;
  EXPECT_TRUE(flags.GetCheckedInt("absent", 42, &i));
  EXPECT_EQ(i, 42);
  for (const char* bad : {"word", "junk", "empty", "plus", "int_under",
                          "int_over"}) {
    i = 7;
    EXPECT_FALSE(flags.GetCheckedInt(bad, 0, &i)) << bad;
    EXPECT_EQ(i, 7) << bad << ": a refused value leaves *out untouched";
  }
  ASSERT_TRUE(flags.GetCheckedInt("int_min", 0, &i));
  EXPECT_EQ(i, std::numeric_limits<int>::min());
  ASSERT_TRUE(flags.GetCheckedInt("int_max", 0, &i));
  EXPECT_EQ(i, std::numeric_limits<int>::max());

  uint32_t u = 7;
  ASSERT_TRUE(flags.GetCheckedInt("zero", uint32_t{1}, &u));
  EXPECT_EQ(u, 0u);
  ASSERT_TRUE(flags.GetCheckedInt("u32_max", uint32_t{0}, &u));
  EXPECT_EQ(u, std::numeric_limits<uint32_t>::max());
  EXPECT_FALSE(flags.GetCheckedInt("u32_over", uint32_t{0}, &u));
  // Every negative value is refused for an unsigned destination, where
  // strtoll + a cast would turn --threads=-1 into 4294967295.
  EXPECT_FALSE(flags.GetCheckedInt("neg", uint32_t{0}, &u));
  EXPECT_EQ(u, std::numeric_limits<uint32_t>::max());

  uint64_t w = 0;
  EXPECT_FALSE(flags.GetCheckedInt("neg", uint64_t{0}, &w));
  ASSERT_TRUE(flags.GetCheckedInt("u64_max", uint64_t{0}, &w));
  EXPECT_EQ(w, std::numeric_limits<uint64_t>::max());
  EXPECT_FALSE(flags.GetCheckedInt("u64_over", uint64_t{0}, &w));
  int64_t s = 0;
  ASSERT_TRUE(flags.GetCheckedInt("neg", int64_t{0}, &s));
  EXPECT_EQ(s, -1);
}

TEST(FlagsTest, CheckedDoubleRefusesWhatIsNotAFiniteNumber) {
  std::vector<std::string> args = {"prog",          "--junk=0.1x",
                                   "--word=abc",    "--empty=",
                                   "--nan=nan",     "--inf=inf",
                                   "--huge=1e400",  "--plus=+0.5",
                                   "--space= 0.5",  "--neg=-0.5",
                                   "--exp=2.5e-3",  "--whole=3"};
  auto argv = MakeArgv(args);
  Flags flags(static_cast<int>(argv.size()), argv.data());

  double d = 7.0;
  EXPECT_TRUE(flags.GetCheckedDouble("absent", 0.25, &d));
  EXPECT_EQ(d, 0.25);
  for (const char* bad :
       {"junk", "word", "empty", "nan", "inf", "huge", "plus", "space"}) {
    d = 7.0;
    EXPECT_FALSE(flags.GetCheckedDouble(bad, 0.0, &d)) << bad;
    EXPECT_EQ(d, 7.0) << bad << ": a refused value leaves *out untouched";
  }
  // A negative value parses: range checks belong to whoever reads it
  // (a solver refuses epsilon = -0.5 with its own Status).
  ASSERT_TRUE(flags.GetCheckedDouble("neg", 0.0, &d));
  EXPECT_EQ(d, -0.5);
  ASSERT_TRUE(flags.GetCheckedDouble("exp", 0.0, &d));
  EXPECT_EQ(d, 2.5e-3);
  ASSERT_TRUE(flags.GetCheckedDouble("whole", 0.0, &d));
  EXPECT_EQ(d, 3.0);

  EXPECT_FALSE(ParseDouble("uniform:0.5", &d));
  EXPECT_TRUE(ParseDouble("0.05", &d));
  EXPECT_EQ(d, 0.05);
}

// ----------------------------------------------------------------- Timer --

TEST(TimerTest, ElapsedIsNonNegativeAndMonotonic) {
  Timer t;
  double a = t.ElapsedSeconds();
  double b = t.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  EXPECT_NEAR(t.ElapsedMillis(), t.ElapsedSeconds() * 1e3, 1.0);
}

TEST(TimerTest, ResetRestarts) {
  Timer t;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  ASSERT_GE(sink, 0.0);  // keep the loop from being optimized away
  double before = t.ElapsedSeconds();
  t.Reset();
  EXPECT_LE(t.ElapsedSeconds(), before + 1e-3);
}

}  // namespace
}  // namespace timpp
