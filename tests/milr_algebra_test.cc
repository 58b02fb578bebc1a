#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "dense_dummy_oracle.h"
#include "linalg/dct.h"
#include "milr/algebra.h"
#include "support/bytes.h"
#include "support/parallel.h"
#include "support/prng.h"

namespace milr::core {
namespace {

Tensor RandomT(Shape shape, std::uint64_t seed) {
  Prng prng(seed);
  return RandomTensor(std::move(shape), prng);
}

// ------------------------------------------------------------ dense f⁻¹

TEST(DenseBackwardTest, ExactWhenWide) {
  // P ≥ N: invertible without augmentation.
  nn::DenseLayer dense(6, 10);
  dense.weights() = RandomT(Shape{6, 10}, 1);
  const Tensor x = RandomT(Shape{6}, 2);
  const Tensor y = dense.Forward(x);
  auto back = DenseBackward(dense, y, 0, 0, {});
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_LT(MaxAbsDiff(back.value(), x), 1e-5f);
}

TEST(DenseBackwardTest, AugmentedWhenNarrow) {
  // P < N: needs α = N − P dummy columns (paper Section IV-A a).
  nn::DenseLayer dense(8, 3);
  dense.weights() = RandomT(Shape{8, 3}, 3);
  const Tensor x = RandomT(Shape{8}, 4);
  const Tensor y = dense.Forward(x);

  const std::size_t alpha = 5;
  const std::uint64_t seed = 77;
  const Tensor dummy = MakeDenseDummyColumns(8, alpha, seed);
  // Golden outputs of the dummy columns for this x.
  std::vector<float> dummy_outputs(alpha, 0.0f);
  for (std::size_t c = 0; c < alpha; ++c) {
    double acc = 0.0;
    for (std::size_t r = 0; r < 8; ++r) {
      acc += static_cast<double>(x[r]) * static_cast<double>(dummy.at(r, c));
    }
    dummy_outputs[c] = static_cast<float>(acc);
  }
  auto back = DenseBackward(dense, y, alpha, seed, dummy_outputs);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_LT(MaxAbsDiff(back.value(), x), 1e-4f);
}

TEST(DenseBackwardTest, InsufficientEquationsRejected) {
  nn::DenseLayer dense(8, 3);
  const Tensor y(Shape{3});
  auto back = DenseBackward(dense, y, 2, 0, std::vector<float>(2));
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kUnsolvable);
}

// ------------------------------------------------------------- dense R

TEST(DenseSolveTest, RecoversExactWeights) {
  nn::DenseLayer dense(12, 7);
  dense.weights() = RandomT(Shape{12, 7}, 5);
  const Tensor golden = dense.weights();

  const Tensor x = RandomT(Shape{12}, 6);
  const Tensor y = dense.Forward(x);
  const std::size_t dummy_rows = 11;
  const std::uint64_t seed = 88;
  const Tensor rows = MakeDenseDummyRows(dummy_rows, 12, seed);
  const Tensor dummy_outputs = dense.Forward(rows);

  // Corrupt, then solve back.
  dense.weights().Fill(0.0f);
  auto solved = DenseSolveParams(dense, x, y, dummy_rows, seed, dummy_outputs);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_LT(MaxAbsDiff(solved.value(), golden), 1e-4f);
}

TEST(DenseSolveTest, RecoveryErrorIsFloatRoundingOnly) {
  // The stored golden outputs are float32, so recovered weights carry a
  // small rounding residue (the paper's acknowledged limitation, §V-A) —
  // but it must stay at rounding scale, orders below any accuracy impact.
  nn::DenseLayer dense(16, 4);
  dense.weights() = RandomT(Shape{16, 4}, 7);
  const Tensor golden = dense.weights();
  const Tensor x = RandomT(Shape{16}, 8);
  const Tensor y = dense.Forward(x);
  const Tensor rows = MakeDenseDummyRows(15, 16, 9);
  const Tensor dummy_outputs = dense.Forward(rows);
  auto solved = DenseSolveParams(dense, x, y, 15, 9, dummy_outputs);
  ASSERT_TRUE(solved.ok());
  EXPECT_LT(MaxAbsDiff(solved.value(), golden), 1e-5f);
}

TEST(DenseSolveTest, SelfContainedModeIgnoresRealPair) {
  // Extension: with N dummy rows the propagated pair is not used, so a
  // corrupted real pair cannot poison the solution.
  nn::DenseLayer dense(12, 5);
  dense.weights() = RandomT(Shape{12, 5}, 70);
  const Tensor golden = dense.weights();
  const Tensor rows = MakeDenseDummyRows(12, 12, 71);
  const Tensor dummy_outputs = dense.Forward(rows);
  // Garbage real pair — must not matter.
  const Tensor x = Tensor::Full(Shape{12}, 1e9f);
  const Tensor y = Tensor::Full(Shape{5}, -1e9f);
  auto solved = DenseSolveParams(dense, x, y, 12, 71, dummy_outputs);
  ASSERT_TRUE(solved.ok());
  EXPECT_LT(MaxAbsDiff(solved.value(), golden), 1e-5f);
}

TEST(DenseSolveTest, TooFewRowsRejected) {
  nn::DenseLayer dense(10, 3);
  auto solved = DenseSolveParams(dense, Tensor(Shape{10}), Tensor(Shape{3}),
                                 3, 0, Tensor(Shape{3, 3}));
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kUnsolvable);
}

// ------------------------------------------------------------- fast DCT

// Explicit O(n²) orthonormal DCT-II (inverse = false) or DCT-III (inverse =
// true). The angles π·m/2n come from an exact table indexed by
// (2c+1)·k mod 4n, so the oracle's own error stays at rounding level.
std::vector<double> ExplicitDct(const std::vector<double>& in, bool inverse) {
  const std::size_t n = in.size();
  constexpr double kPi = 3.14159265358979323846;
  std::vector<double> cosines(4 * n);
  for (std::size_t m = 0; m < 4 * n; ++m) {
    cosines[m] = std::cos(kPi * static_cast<double>(m) /
                          (2.0 * static_cast<double>(n)));
  }
  const auto scale = [n](std::size_t k) {
    return std::sqrt((k == 0 ? 1.0 : 2.0) / static_cast<double>(n));
  };
  std::vector<double> out(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t c = 0; c < n; ++c) {
      const double basis = scale(k) * cosines[((2 * c + 1) * k) % (4 * n)];
      if (inverse) {
        out[c] += basis * in[k];
      } else {
        out[k] += basis * in[c];
      }
    }
  }
  return out;
}

double Norm(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x * x;
  return std::sqrt(sum);
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

class DctTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DctTest, MatchesExplicitTransformsAndRoundTrips) {
  // 7, 49 = 7², 97, 126 = 2·3²·7 and 131 have a prime factor above 5 and
  // go through Bluestein; 6400 = 4⁴·5² is the mnist dense layer. Three
  // vectors per call check that each is transformed on its own.
  const std::size_t n = GetParam();
  constexpr std::size_t kVectors = 3;
  Prng prng(1000 + n);
  std::vector<double> x(kVectors * n);
  for (auto& v : x) v = prng.NextDouble() * 2.0 - 1.0;
  const auto slice = [n](const std::vector<double>& all, std::size_t i) {
    return std::vector<double>(all.begin() + i * n, all.begin() + (i + 1) * n);
  };
  const DctPlan plan(n);
  std::vector<double> forward = x;
  plan.Dct2(forward);
  std::vector<double> inverse = x;
  plan.Dct3(inverse);
  std::vector<double> round_trip = forward;
  plan.Dct3(round_trip);
  for (std::size_t i = 0; i < kVectors; ++i) {
    const std::vector<double> xi = slice(x, i);
    const double bound = 1e-12 * Norm(xi);
    EXPECT_LE(MaxAbsDiff(slice(forward, i), ExplicitDct(xi, false)), bound)
        << "DCT-II n=" << n << " vector " << i;
    EXPECT_LE(MaxAbsDiff(slice(inverse, i), ExplicitDct(xi, true)), bound)
        << "DCT-III n=" << n << " vector " << i;
    EXPECT_LE(MaxAbsDiff(slice(round_trip, i), xi), bound)
        << "round trip n=" << n << " vector " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, DctTest,
                         ::testing::Values(1, 2, 3, 5, 7, 12, 16, 49, 97,
                                           126, 131, 320, 2048, 6400));

TEST(DctTest, RejectsMismatchedBuffer) {
  const DctPlan plan(8);
  std::vector<double> x(12);
  EXPECT_THROW(plan.Dct2(x), std::invalid_argument);
  EXPECT_THROW(plan.Dct3(x), std::invalid_argument);
  EXPECT_THROW(DctPlan(0), std::invalid_argument);
}

// ----------------------------------------- dense R against explicit A

float MaxAbs(const Tensor& t) {
  float worst = 0.0f;
  for (const float v : t.flat()) worst = std::max(worst, std::abs(v));
  return worst;
}

struct DenseCase {
  std::size_t n, p;
};

class DenseTransformTest : public ::testing::TestWithParam<DenseCase> {};

TEST_P(DenseTransformTest, InitOutputsMatchExplicitRows) {
  // Golden outputs A·W from the transform equal the exact forward pass over
  // the materialized rows, up to that pass's float32 accumulation of N
  // terms (bounded here by 2·ε·√N of the largest output).
  const auto [n, p] = GetParam();
  nn::DenseLayer dense(n, p);
  dense.weights() = RandomT(Shape{n, p}, 300 + n);
  const float tolerance =
      2.0f * std::numeric_limits<float>::epsilon() *
      std::sqrt(static_cast<float>(n));
  for (const std::size_t rows : {n, n - 1}) {
    const Tensor fast = DenseDummyRowOutputs(dense, rows, 301 + n);
    const Tensor oracle = dense.Forward(MakeDenseDummyRows(rows, n, 301 + n));
    ASSERT_EQ(fast.shape(), oracle.shape());
    EXPECT_LE(MaxAbsDiff(fast, oracle), tolerance * MaxAbs(oracle))
        << "N=" << n << " rows=" << rows;
  }
}

TEST_P(DenseTransformTest, SolveMatchesExplicitPathInBothModes) {
  const auto [n, p] = GetParam();
  nn::DenseLayer dense(n, p);
  dense.weights() = RandomT(Shape{n, p}, 400 + n);
  const Tensor golden = dense.weights();
  const float tolerance = 2e-6f * std::max(1.0f, MaxAbs(golden));
  const Tensor x = RandomT(Shape{n}, 401 + n);
  const Tensor y = dense.Forward(x);
  const std::uint64_t seed = 402 + n;
  // Self-contained (N rows) and paper (N − 1 rows plus the real pair).
  for (const std::size_t rows : {n, n - 1}) {
    if (rows == n - 1 && n > 512) continue;  // the LU oracle is O(N³)
    const Tensor outputs = DenseDummyRowOutputs(dense, rows, seed);
    auto fast = DenseSolveParams(dense, x, y, rows, seed, outputs);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    auto oracle =
        DenseSolveParamsExplicit(n, p, x, y, rows, seed, outputs);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    EXPECT_LT(MaxAbsDiff(fast.value(), oracle.value()), tolerance)
        << "N=" << n << " rows=" << rows;
    EXPECT_LT(MaxAbsDiff(fast.value(), golden), tolerance)
        << "N=" << n << " rows=" << rows;
  }
}

TEST_P(DenseTransformTest, ThreadCountDoesNotChangeResults) {
  // Each column's transform is independent of how columns are split over
  // threads, so a serial run reproduces the parallel one bit for bit.
  const auto [n, p] = GetParam();
  nn::DenseLayer dense(n, p);
  dense.weights() = RandomT(Shape{n, p}, 500 + n);
  const Tensor x = RandomT(Shape{n}, 501 + n);
  const Tensor y = dense.Forward(x);
  const auto run = [&] {
    std::vector<Tensor> results;
    for (const std::size_t rows : {n, n - 1}) {
      const Tensor outputs = DenseDummyRowOutputs(dense, rows, 502 + n);
      results.push_back(outputs);
      auto solved = DenseSolveParams(dense, x, y, rows, 502 + n, outputs);
      EXPECT_TRUE(solved.ok()) << solved.status().ToString();
      if (solved.ok()) results.push_back(std::move(solved).value());
    }
    return results;
  };
  const std::vector<Tensor> parallel = run();
  std::vector<Tensor> serial;
  {
    const SerialRegionGuard guard;
    serial = run();
  }
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    ASSERT_EQ(parallel[i].size(), serial[i].size());
    for (std::size_t k = 0; k < parallel[i].size(); ++k) {
      ASSERT_EQ(FloatBits(parallel[i][k]), FloatBits(serial[i][k]))
          << "result " << i << " entry " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, DenseTransformTest,
                         ::testing::Values(DenseCase{1, 3}, DenseCase{12, 7},
                                           DenseCase{97, 5},
                                           DenseCase{320, 33},
                                           DenseCase{2048, 3}));

TEST(DenseSolveTest, PaperModeRejectsRealPairInDummySpan) {
  // x = 0 has no component along the missing basis row a_{N−1}, so the
  // rank-one correction has nothing to divide by: the system is singular.
  nn::DenseLayer dense(16, 4);
  dense.weights() = RandomT(Shape{16, 4}, 600);
  const Tensor outputs = DenseDummyRowOutputs(dense, 15, 601);
  auto solved = DenseSolveParams(dense, Tensor(Shape{16}), Tensor(Shape{4}),
                                 15, 601, outputs);
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kUnsolvable);
}

TEST(DenseSolveTest, MoreRowsThanInputsRejected) {
  nn::DenseLayer dense(4, 2);
  auto solved = DenseSolveParams(dense, Tensor(Shape{4}), Tensor(Shape{2}),
                                 5, 0, Tensor(Shape{5, 2}));
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------- conv f⁻¹

TEST(ConvBackwardTest, ExactWhenManyFilters) {
  // Y = 12 ≥ F²Z = 9: invertible without augmentation.
  nn::Conv2DLayer conv(3, 1, 12, nn::Padding::kValid);
  conv.filters() = RandomT(Shape{3, 3, 1, 12}, 10);
  const Tensor x = RandomT(Shape{6, 6, 1}, 11);
  const Tensor y = conv.Forward(x);
  auto back = ConvBackward(conv, y, 6, 0, 0, Tensor{});
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_LT(MaxAbsDiff(back.value(), x), 1e-4f);
}

TEST(ConvBackwardTest, AugmentedWithDummyFilters) {
  // Y = 4 < F²Z = 9: α = 5 PRNG dummy filters complete the system
  // (paper Section IV-B a).
  nn::Conv2DLayer conv(3, 1, 4, nn::Padding::kValid);
  conv.filters() = RandomT(Shape{3, 3, 1, 4}, 12);
  const Tensor x = RandomT(Shape{6, 6, 1}, 13);
  const Tensor y = conv.Forward(x);

  const std::size_t alpha = 5;
  const std::uint64_t seed = 99;
  const Tensor dummy = MakeConvDummyFilters(conv, alpha, seed);
  // Golden dummy outputs: patches(x) × dummy filters.
  const Tensor patches = conv.BuildPatchMatrix(x);
  const std::size_t g2 = patches.shape()[0];
  Tensor dummy_outputs(Shape{g2, alpha});
  for (std::size_t p = 0; p < g2; ++p) {
    for (std::size_t c = 0; c < alpha; ++c) {
      double acc = 0.0;
      for (std::size_t u = 0; u < 9; ++u) {
        acc += static_cast<double>(patches.at(p, u)) *
               static_cast<double>(dummy[u * alpha + c]);
      }
      dummy_outputs.at(p, c) = static_cast<float>(acc);
    }
  }
  auto back = ConvBackward(conv, y, 6, alpha, seed, dummy_outputs);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_LT(MaxAbsDiff(back.value(), x), 1e-3f);
}

TEST(ConvBackwardTest, SamePaddingRoundTrip) {
  nn::Conv2DLayer conv(3, 2, 32, nn::Padding::kSame);
  conv.filters() = RandomT(Shape{3, 3, 2, 32}, 14);
  const Tensor x = RandomT(Shape{5, 5, 2}, 15);
  const Tensor y = conv.Forward(x);
  auto back = ConvBackward(conv, y, 5, 0, 0, Tensor{});
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_LT(MaxAbsDiff(back.value(), x), 1e-3f);
}

TEST(ConvBackwardTest, InsufficientEquationsRejected) {
  nn::Conv2DLayer conv(3, 2, 4, nn::Padding::kValid);  // F²Z = 18 > Y = 4
  const Tensor y(Shape{4, 4, 4});
  auto back = ConvBackward(conv, y, 6, 0, 0, Tensor{});
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kUnsolvable);
}

// --------------------------------------------------------------- conv R

TEST(ConvSolveFullTest, RecoversFilters) {
  // G² = 36 ≥ F²Z = 9.
  nn::Conv2DLayer conv(3, 1, 5, nn::Padding::kValid);
  conv.filters() = RandomT(Shape{3, 3, 1, 5}, 16);
  const Tensor golden = conv.filters();
  const Tensor x = RandomT(Shape{8, 8, 1}, 17);
  const Tensor y = conv.Forward(x);

  conv.filters().Fill(7.0f);  // corrupt everything
  auto solved = ConvSolveParamsFull(conv, x, y);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_LT(MaxAbsDiff(solved.value(), golden), 1e-4f);
}

TEST(ConvSolveFullTest, RejectsUnderdetermined) {
  // G² = 4 < F²Z = 27.
  nn::Conv2DLayer conv(3, 3, 8, nn::Padding::kValid);
  const Tensor x = RandomT(Shape{4, 4, 3}, 18);
  const Tensor y(Shape{2, 2, 8});
  auto solved = ConvSolveParamsFull(conv, x, y);
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kUnsolvable);
}

class ConvPartialSolve : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ConvPartialSolve, RepairsListedWeights) {
  // G² = 16 < F²Z = 18: partial recoverability regime.
  nn::Conv2DLayer conv(3, 2, 6, nn::Padding::kValid);
  conv.filters() = RandomT(Shape{3, 3, 2, 6}, 19);
  const Tensor golden = conv.filters();
  const Tensor x = RandomT(Shape{6, 6, 2}, 20);
  const Tensor y = conv.Forward(x);

  // Corrupt `count` random weights (all bits).
  const std::size_t count = GetParam();
  Prng prng(21 + count);
  std::vector<std::size_t> victims;
  while (victims.size() < count) {
    const std::size_t v = prng.NextBelow(golden.size());
    if (std::find(victims.begin(), victims.end(), v) == victims.end()) {
      victims.push_back(v);
    }
  }
  for (const auto v : victims) {
    conv.filters()[v] = FloatFromBits(FloatBits(conv.filters()[v]) ^ 0xffffffffu);
  }

  PartialSolveStats stats;
  auto solved = ConvSolveParamsPartial(conv, x, y, victims, &stats);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_EQ(stats.suspected_weights, count);
  EXPECT_LT(MaxAbsDiff(solved.value(), golden), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Counts, ConvPartialSolve,
                         ::testing::Values(1, 3, 8, 16, 40));

TEST(ConvPartialSolveTest, FalsePositivesAreHarmless) {
  // Suspecting clean weights must still recover them to their true values.
  nn::Conv2DLayer conv(3, 2, 4, nn::Padding::kValid);
  conv.filters() = RandomT(Shape{3, 3, 2, 4}, 22);
  const Tensor golden = conv.filters();
  const Tensor x = RandomT(Shape{7, 7, 2}, 23);
  const Tensor y = conv.Forward(x);

  conv.filters()[5] += 10.0f;  // the only real error
  const std::vector<std::size_t> suspects = {1, 5, 9, 13};  // 3 false alarms
  PartialSolveStats stats;
  auto solved = ConvSolveParamsPartial(conv, x, y, suspects, &stats);
  ASSERT_TRUE(solved.ok());
  EXPECT_LT(MaxAbsDiff(solved.value(), golden), 1e-3f);
}

TEST(ConvPartialSolveTest, WholeFilterBankIsUnderdetermined) {
  // All weights of every filter suspected with G² < F²Z: least-squares
  // fallback runs but cannot restore the exact weights (Tables IV/VI/VIII
  // "N/A*" rows).
  nn::Conv2DLayer conv(3, 4, 6, nn::Padding::kValid);  // F²Z = 36 > G² = 16
  conv.filters() = RandomT(Shape{3, 3, 4, 6}, 24);
  const Tensor golden = conv.filters();
  const Tensor x = RandomT(Shape{6, 6, 4}, 25);
  const Tensor y = conv.Forward(x);

  std::vector<std::size_t> all(golden.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  conv.filters().Fill(3.0f);
  PartialSolveStats stats;
  auto solved = ConvSolveParamsPartial(conv, x, y, all, &stats);
  ASSERT_TRUE(solved.ok());
  EXPECT_EQ(stats.least_squares_filters, 6u);
  // The least-squares filters still reproduce the observed output.
  nn::Conv2DLayer check(3, 4, 6, nn::Padding::kValid);
  check.filters() = solved.value();
  EXPECT_LT(MaxAbsDiff(check.Forward(x), y), 1e-3f);
}

// ----------------------------------------------------------------- bias

TEST(BiasAlgebraTest, BackwardAndSolve) {
  nn::BiasLayer bias(4);
  bias.bias() = RandomT(Shape{4}, 26);
  const Tensor x = RandomT(Shape{3, 3, 4}, 27);
  const Tensor y = bias.Forward(x);

  EXPECT_LT(MaxAbsDiff(BiasBackward(bias, y), x), 1e-6f);
  const Tensor solved = BiasSolveParams(x, y, 4);
  EXPECT_LT(MaxAbsDiff(solved, bias.bias()), 1e-6f);
}

TEST(BiasAlgebraTest, SolveIsBitExact) {
  // y − x in float is exact when computed at the same positions.
  nn::BiasLayer bias(8);
  bias.bias() = RandomT(Shape{8}, 28);
  const Tensor x = RandomT(Shape{2, 2, 8}, 29);
  const Tensor y = bias.Forward(x);
  const Tensor solved = BiasSolveParams(x, y, 8);
  for (std::size_t c = 0; c < 8; ++c) {
    EXPECT_EQ(FloatBits(solved[c]),
              FloatBits(y[c] - x[c]));
  }
}

}  // namespace
}  // namespace milr::core
