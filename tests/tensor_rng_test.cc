#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "tensor/rng.h"

namespace edde {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntCoversSupportUniformly) {
  Rng rng(5);
  constexpr int kBuckets = 8;
  std::vector<int> counts(kBuckets, 0);
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<size_t>(rng.UniformInt(kBuckets))];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kDraws;
  const double var = sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(13);
  int hits = 0;
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.02);
}

TEST(RngDeathTest, UniformIntRejectsNonPositive) {
  Rng rng(1);
  EXPECT_DEATH(rng.UniformInt(0), "Check failed");
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(19);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(23);
  Rng child = a.Fork();
  // The fork consumed state; parent and child produce different streams.
  std::set<uint64_t> seen;
  for (int i = 0; i < 32; ++i) {
    seen.insert(a.NextU64());
    seen.insert(child.NextU64());
  }
  EXPECT_EQ(seen.size(), 64u);
}

}  // namespace
}  // namespace edde
