#include "gp/gp_regressor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gp/kernel.hpp"

namespace stormtune::gp {
namespace {

TEST(Kernel, VarianceAtZeroDistance) {
  for (auto family : {KernelFamily::kSquaredExponential,
                      KernelFamily::kMatern32, KernelFamily::kMatern52}) {
    Kernel k(family, 3, /*ard=*/false);
    k.set_amplitude(2.0);
    const std::vector<double> x{0.5, -1.0, 2.0};
    EXPECT_NEAR(k(x, x), 4.0, 1e-12);
    EXPECT_NEAR(k.variance(), 4.0, 1e-12);
  }
}

TEST(Kernel, DecaysWithDistance) {
  for (auto family : {KernelFamily::kSquaredExponential,
                      KernelFamily::kMatern32, KernelFamily::kMatern52}) {
    Kernel k(family, 1, false);
    const std::vector<double> origin{0.0};
    double prev = k(origin, origin);
    for (double d : {0.5, 1.0, 2.0, 4.0}) {
      const std::vector<double> x{d};
      const double v = k(origin, x);
      EXPECT_LT(v, prev);
      EXPECT_GT(v, 0.0);
      prev = v;
    }
  }
}

TEST(Kernel, Symmetry) {
  Kernel k(KernelFamily::kMatern52, 2, true);
  k.set_lengthscales({0.5, 2.0});
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{-0.5, 3.0};
  EXPECT_DOUBLE_EQ(k(a, b), k(b, a));
}

TEST(Kernel, ArdLengthscalesWeightDimensions) {
  Kernel k(KernelFamily::kSquaredExponential, 2, true);
  k.set_lengthscales({0.1, 10.0});
  const std::vector<double> origin{0.0, 0.0};
  const std::vector<double> dx{1.0, 0.0};  // short lengthscale: decays fast
  const std::vector<double> dy{0.0, 1.0};  // long lengthscale: decays slowly
  EXPECT_LT(k(origin, dx), k(origin, dy));
}

TEST(Kernel, HyperparamRoundTrip) {
  Kernel k(KernelFamily::kMatern32, 3, true);
  const std::vector<double> logs{std::log(2.0), std::log(0.5), std::log(1.5),
                                 std::log(3.0)};
  k.set_hyperparams(logs);
  EXPECT_NEAR(k.amplitude(), 2.0, 1e-12);
  EXPECT_NEAR(k.lengthscales()[0], 0.5, 1e-12);
  const auto back = k.hyperparams();
  ASSERT_EQ(back.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(back[i], logs[i], 1e-12);
}

TEST(Kernel, IsotropicHasSingleLengthscale) {
  Kernel k(KernelFamily::kMatern52, 5, false);
  EXPECT_EQ(k.num_hyperparams(), 2u);
  Kernel ka(KernelFamily::kMatern52, 5, true);
  EXPECT_EQ(ka.num_hyperparams(), 6u);
}

TEST(Kernel, Matern52MatchesClosedForm) {
  Kernel k(KernelFamily::kMatern52, 1, false);
  const std::vector<double> a{0.0}, b{1.0};
  const double r = 1.0;
  const double sr = std::sqrt(5.0) * r;
  const double expected = (1.0 + sr + sr * sr / 3.0) * std::exp(-sr);
  EXPECT_NEAR(k(a, b), expected, 1e-14);
}

TEST(Kernel, RejectsInvalidSettings) {
  Kernel k(KernelFamily::kSquaredExponential, 2, false);
  EXPECT_THROW(k.set_amplitude(0.0), Error);
  EXPECT_THROW(k.set_lengthscales({1.0, 2.0}), Error);  // iso wants 1
  EXPECT_THROW(k.set_lengthscales({-1.0}), Error);
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW(k(a, b), Error);
}

class GpFit : public ::testing::Test {
 protected:
  static Matrix make_x(const std::vector<double>& xs) {
    Matrix x(xs.size(), 1);
    for (std::size_t i = 0; i < xs.size(); ++i) x(i, 0) = xs[i];
    return x;
  }
};

TEST_F(GpFit, InterpolatesNoiseFreeData) {
  Kernel k(KernelFamily::kSquaredExponential, 1, false);
  k.set_lengthscales({1.0});
  GpRegressor gp(k, /*noise_variance=*/0.0);
  const std::vector<double> xs{-2.0, -1.0, 0.0, 1.0, 2.0};
  Vector y(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) y[i] = std::sin(xs[i]);
  gp.fit(make_x(xs), y);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const Prediction p = gp.predict(std::vector<double>{xs[i]});
    EXPECT_NEAR(p.mean, y[i], 1e-5);
    EXPECT_NEAR(p.variance, 0.0, 1e-5);
  }
}

TEST_F(GpFit, VarianceGrowsAwayFromData) {
  Kernel k(KernelFamily::kMatern52, 1, false);
  GpRegressor gp(k, 1e-6);
  gp.fit(make_x({0.0, 1.0}), Vector{0.0, 1.0});
  const double v_near = gp.predict(std::vector<double>{0.5}).variance;
  const double v_far = gp.predict(std::vector<double>{10.0}).variance;
  EXPECT_LT(v_near, v_far);
  // Far from data the variance approaches the prior amplitude^2.
  EXPECT_NEAR(v_far, 1.0, 1e-3);
}

TEST_F(GpFit, MeanRevertsToPriorFarAway) {
  Kernel k(KernelFamily::kSquaredExponential, 1, false);
  GpRegressor gp(k, 1e-6, /*mean_value=*/5.0);
  gp.fit(make_x({0.0}), Vector{7.0});
  EXPECT_NEAR(gp.predict(std::vector<double>{100.0}).mean, 5.0, 1e-6);
  EXPECT_NEAR(gp.predict(std::vector<double>{0.0}).mean, 7.0, 1e-3);
}

TEST_F(GpFit, NoiseSmoothsInterpolation) {
  Kernel k(KernelFamily::kSquaredExponential, 1, false);
  GpRegressor noisy(k, 1.0);
  GpRegressor exact(k, 1e-8);
  const Matrix x = make_x({0.0});
  const Vector y{2.0};
  noisy.fit(x, y);
  exact.fit(x, y);
  // With large noise the posterior mean shrinks toward the prior mean 0.
  EXPECT_LT(noisy.predict(std::vector<double>{0.0}).mean,
            exact.predict(std::vector<double>{0.0}).mean);
}

TEST_F(GpFit, LogMarginalLikelihoodPrefersTruthfulNoise) {
  // Data from a noisy sine; LML should prefer a plausible noise level over
  // an absurd one.
  Rng rng(6);
  std::vector<double> xs;
  Vector y;
  for (int i = 0; i < 20; ++i) {
    const double x = -3.0 + 0.3 * i;
    xs.push_back(x);
    y.push_back(std::sin(x) + rng.normal(0.0, 0.1));
  }
  Kernel k(KernelFamily::kSquaredExponential, 1, false);
  GpRegressor good(k, 0.01);   // sd 0.1 — the truth
  GpRegressor bad(k, 100.0);   // sd 10 — absurd
  good.fit(make_x(xs), y);
  bad.fit(make_x(xs), y);
  EXPECT_GT(good.log_marginal_likelihood(), bad.log_marginal_likelihood());
}

TEST_F(GpFit, PredictBeforeFitThrows) {
  Kernel k(KernelFamily::kSquaredExponential, 1, false);
  GpRegressor gp(k, 0.1);
  EXPECT_THROW(gp.predict(std::vector<double>{0.0}), Error);
  EXPECT_THROW(gp.log_marginal_likelihood(), Error);
}

TEST_F(GpFit, DimensionMismatchThrows) {
  Kernel k(KernelFamily::kSquaredExponential, 2, false);
  GpRegressor gp(k, 0.1);
  EXPECT_THROW(gp.fit(Matrix(3, 1), Vector(3, 0.0)), Error);
  EXPECT_THROW(gp.fit(Matrix(3, 2), Vector(2, 0.0)), Error);
}

TEST_F(GpFit, DuplicatedInputsHandledViaJitter) {
  // Identical rows make the noise-free kernel matrix singular; the jitter
  // escalation must still produce a usable fit.
  Kernel k(KernelFamily::kSquaredExponential, 1, false);
  GpRegressor gp(k, 0.0);
  Matrix x(3, 1);
  x(0, 0) = 1.0;
  x(1, 0) = 1.0;
  x(2, 0) = 2.0;
  gp.fit(x, Vector{3.0, 3.0, 5.0});
  const Prediction p = gp.predict(std::vector<double>{1.0});
  EXPECT_NEAR(p.mean, 3.0, 0.1);
}

TEST_F(GpFit, MutatorsInvalidateFit) {
  Kernel k(KernelFamily::kSquaredExponential, 1, false);
  GpRegressor gp(k, 0.1);
  gp.fit(make_x({0.0, 1.0}), Vector{0.0, 1.0});
  EXPECT_TRUE(gp.fitted());
  gp.set_noise_variance(0.2);
  EXPECT_FALSE(gp.fitted());
}

// Property sweep: posterior variance is non-negative for every kernel
// family, ARD setting, and dataset size.
class GpVarianceSweep
    : public ::testing::TestWithParam<std::tuple<KernelFamily, bool, int>> {};

TEST_P(GpVarianceSweep, PosteriorVarianceNonNegative) {
  const auto [family, ard, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 31 + (ard ? 7 : 0));
  Kernel k(family, 3, ard);
  GpRegressor gp(k, 1e-4);
  Matrix x(n, 3);
  Vector y(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < 3; ++j) x(i, j) = rng.uniform();
    y[i] = rng.normal();
  }
  gp.fit(x, y);
  for (int t = 0; t < 50; ++t) {
    std::vector<double> q{rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0),
                          rng.uniform(-1.0, 2.0)};
    const Prediction p = gp.predict(q);
    EXPECT_GE(p.variance, 0.0);
    EXPECT_TRUE(std::isfinite(p.mean));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, GpVarianceSweep,
    ::testing::Combine(::testing::Values(KernelFamily::kSquaredExponential,
                                         KernelFamily::kMatern32,
                                         KernelFamily::kMatern52),
                       ::testing::Bool(), ::testing::Values(2, 10, 40)));

// The layered distance/correlation/Cholesky caches must be invisible: a
// regressor refit through the warm path (mutate hyperparameters, fit again
// on the same X) has to agree with a cold regressor constructed directly
// with the final hyperparameters, for every kernel family and ARD setting.
class GpCacheSweep
    : public ::testing::TestWithParam<std::tuple<KernelFamily, bool>> {};

TEST_P(GpCacheSweep, WarmRefitMatchesColdFit) {
  const auto [family, ard] = GetParam();
  constexpr std::size_t kN = 25;
  constexpr std::size_t kD = 4;
  Rng rng(static_cast<std::uint64_t>(ard ? 11 : 5));
  Matrix x(kN, kD);
  Vector y(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kD; ++j) x(i, j) = rng.uniform();
    y[i] = rng.normal();
  }

  Kernel k(family, kD, ard);
  GpRegressor warm(k, 1e-3);
  warm.fit(x, y);  // builds the caches with the default hyperparameters

  // Walk through several hyperparameter settings, as the slice sampler's
  // coordinate sweeps do, ending at a final one.
  std::vector<double> log_params(k.num_hyperparams());
  for (int round = 0; round < 3; ++round) {
    for (std::size_t p = 0; p < log_params.size(); ++p) {
      log_params[p] = 0.2 * rng.normal();
      warm.set_kernel_hyperparams(log_params);
      warm.fit(x, y);
    }
    warm.set_noise_variance(1e-3 * (1 + round));
    warm.set_mean_value(0.1 * round);
    warm.fit(x, y);
  }

  Kernel cold_kernel(family, kD, ard);
  cold_kernel.set_hyperparams(log_params);
  GpRegressor cold(cold_kernel, warm.noise_variance(), warm.mean_value());
  cold.fit(x, y);

  EXPECT_NEAR(warm.log_marginal_likelihood(), cold.log_marginal_likelihood(),
              1e-12);
  for (int t = 0; t < 20; ++t) {
    std::vector<double> q(kD);
    for (auto& v : q) v = rng.uniform(-0.5, 1.5);
    const Prediction pw = warm.predict(q);
    const Prediction pc = cold.predict(q);
    EXPECT_NEAR(pw.mean, pc.mean, 1e-12);
    EXPECT_NEAR(pw.variance, pc.variance, 1e-12);
  }
}

TEST_P(GpCacheSweep, AppendObservationMatchesFreshFit) {
  const auto [family, ard] = GetParam();
  constexpr std::size_t kD = 3;
  Rng rng(static_cast<std::uint64_t>(ard ? 21 : 17));
  Matrix x(12, kD);
  Vector y(12);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < kD; ++j) x(i, j) = rng.uniform();
    y[i] = rng.normal();
  }
  Kernel k(family, kD, ard);
  GpRegressor incremental(k, 1e-3);
  incremental.fit(x, y);

  // Grow by three points, one append at a time.
  Matrix grown = x;
  Vector grown_y = y;
  for (int add = 0; add < 3; ++add) {
    std::vector<double> x_new(kD);
    for (auto& v : x_new) v = rng.uniform();
    grown_y.push_back(rng.normal());
    Matrix next(grown.rows() + 1, kD);
    for (std::size_t i = 0; i < grown.rows(); ++i) {
      for (std::size_t j = 0; j < kD; ++j) next(i, j) = grown(i, j);
    }
    for (std::size_t j = 0; j < kD; ++j) next(grown.rows(), j) = x_new[j];
    grown = std::move(next);
    incremental.append_observation(x_new, grown_y);
  }
  ASSERT_EQ(incremental.num_observations(), 15u);

  GpRegressor fresh(k, 1e-3);
  fresh.fit(grown, grown_y);
  EXPECT_NEAR(incremental.log_marginal_likelihood(),
              fresh.log_marginal_likelihood(), 1e-9);
  for (int t = 0; t < 20; ++t) {
    std::vector<double> q(kD);
    for (auto& v : q) v = rng.uniform(-0.5, 1.5);
    const Prediction pi = incremental.predict(q);
    const Prediction pf = fresh.predict(q);
    EXPECT_NEAR(pi.mean, pf.mean, 1e-9);
    EXPECT_NEAR(pi.variance, pf.variance, 1e-9);
  }
}

TEST_P(GpCacheSweep, RemoveObservationMatchesFreshFit) {
  // The eviction dual of the append test: removing rows (middle, first,
  // last) through the O(n²) downdate path must agree with a cold fit on the
  // reduced data, for every kernel family and ARD setting (the ARD case
  // exercises the pair-major distance repack).
  const auto [family, ard] = GetParam();
  constexpr std::size_t kD = 3;
  Rng rng(static_cast<std::uint64_t>(ard ? 43 : 41));
  Matrix x(14, kD);
  Vector y(14);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < kD; ++j) x(i, j) = rng.uniform();
    y[i] = rng.normal();
  }
  Kernel k(family, kD, ard);
  GpRegressor incremental(k, 1e-3);
  incremental.fit(x, y);

  Matrix cur = x;
  Vector cur_y = y;
  for (const std::size_t idx : {5u, 0u, 11u}) {
    const std::size_t n = cur.rows();
    Matrix next(n - 1, kD);
    Vector next_y(n - 1);
    for (std::size_t i = 0; i < n - 1; ++i) {
      const std::size_t src = i < idx ? i : i + 1;
      for (std::size_t j = 0; j < kD; ++j) next(i, j) = cur(src, j);
      next_y[i] = cur_y[src];
    }
    incremental.remove_observation(idx, next_y);
    cur = std::move(next);
    cur_y = std::move(next_y);
  }
  ASSERT_EQ(incremental.num_observations(), 11u);

  GpRegressor fresh(k, 1e-3);
  fresh.fit(cur, cur_y);
  EXPECT_NEAR(incremental.log_marginal_likelihood(),
              fresh.log_marginal_likelihood(), 1e-9);
  for (int t = 0; t < 20; ++t) {
    std::vector<double> q(kD);
    for (auto& v : q) v = rng.uniform(-0.5, 1.5);
    const Prediction pi = incremental.predict(q);
    const Prediction pf = fresh.predict(q);
    EXPECT_NEAR(pi.mean, pf.mean, 1e-9);
    EXPECT_NEAR(pi.variance, pf.variance, 1e-9);
  }
}

TEST_P(GpCacheSweep, WindowSlidesMatchFreshFitWithNoiseDiag) {
  // Sliding-window shape with per-observation noise: repeated
  // remove-oldest + append-newest cycles over a heteroscedastic fit must
  // track a cold heteroscedastic fit on the surviving window.
  const auto [family, ard] = GetParam();
  constexpr std::size_t kD = 2;
  constexpr std::size_t kWindow = 10;
  Rng rng(static_cast<std::uint64_t>(ard ? 53 : 47));
  Matrix x(kWindow, kD);
  Vector y(kWindow);
  std::vector<double> noises(kWindow);
  for (std::size_t i = 0; i < kWindow; ++i) {
    for (std::size_t j = 0; j < kD; ++j) x(i, j) = rng.uniform();
    y[i] = rng.normal();
    noises[i] = 1e-3 * static_cast<double>(i % 3 + 1);
  }
  Kernel k(family, kD, ard);
  GpRegressor incremental(k, 1e-3);
  incremental.set_noise_diag(noises);
  incremental.fit(x, y);

  for (int slide = 0; slide < 6; ++slide) {
    // Evict the oldest row...
    Vector shrunk_y(kWindow - 1);
    for (std::size_t i = 0; i + 1 < kWindow; ++i) shrunk_y[i] = y[i + 1];
    incremental.remove_observation(0, shrunk_y);
    // ...then append a fresh observation with its own noise.
    std::vector<double> x_new(kD);
    for (auto& v : x_new) v = rng.uniform();
    const double y_new = rng.normal();
    const double noise_new = 1e-3 * static_cast<double>(slide % 4 + 1);
    Matrix next(kWindow, kD);
    for (std::size_t i = 0; i + 1 < kWindow; ++i)
      for (std::size_t j = 0; j < kD; ++j) next(i, j) = x(i + 1, j);
    for (std::size_t j = 0; j < kD; ++j) next(kWindow - 1, j) = x_new[j];
    shrunk_y.push_back(y_new);
    noises.erase(noises.begin());
    noises.push_back(noise_new);
    incremental.append_observation(x_new, shrunk_y, noise_new);
    x = std::move(next);
    y = shrunk_y;
  }
  ASSERT_EQ(incremental.num_observations(), kWindow);

  GpRegressor fresh(k, 1e-3);
  fresh.set_noise_diag(noises);
  fresh.fit(x, y);
  EXPECT_NEAR(incremental.log_marginal_likelihood(),
              fresh.log_marginal_likelihood(), 1e-8);
  for (int t = 0; t < 20; ++t) {
    std::vector<double> q(kD);
    for (auto& v : q) v = rng.uniform(-0.5, 1.5);
    const Prediction pi = incremental.predict(q);
    const Prediction pf = fresh.predict(q);
    EXPECT_NEAR(pi.mean, pf.mean, 1e-8);
    EXPECT_NEAR(pi.variance, pf.variance, 1e-8);
  }
}

TEST_F(GpFit, RemoveObservationRequiresFitAndValidIndex) {
  Kernel k(KernelFamily::kSquaredExponential, 1, false);
  GpRegressor gp(k, 1e-2);
  EXPECT_THROW(gp.remove_observation(0, Vector{}), Error);
  gp.fit(make_x({0.0, 1.0, 2.0}), Vector{0.0, 1.0, 2.0});
  EXPECT_THROW(gp.remove_observation(3, Vector(2, 0.0)), Error);
  EXPECT_THROW(gp.remove_observation(0, Vector(3, 0.0)), Error);  // wrong size
  gp.remove_observation(1, Vector{0.0, 2.0});
  EXPECT_EQ(gp.num_observations(), 2u);
  gp.remove_observation(0, Vector{2.0});
  // A single observation cannot be evicted away.
  EXPECT_THROW(gp.remove_observation(0, Vector{}), Error);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, GpCacheSweep,
    ::testing::Combine(::testing::Values(KernelFamily::kSquaredExponential,
                                         KernelFamily::kMatern32,
                                         KernelFamily::kMatern52),
                       ::testing::Bool()));

TEST_F(GpFit, BatchPredictionMatchesPointPrediction) {
  Rng rng(9);
  Kernel k(KernelFamily::kMatern52, 2, false);
  GpRegressor gp(k, 1e-3);
  Matrix x(20, 2);
  Vector y(20);
  for (std::size_t i = 0; i < 20; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
    y[i] = rng.normal();
  }
  gp.fit(x, y);
  // More queries than one internal chunk, to cross the chunk boundary.
  Matrix q(150, 2);
  for (std::size_t i = 0; i < q.rows(); ++i) {
    q(i, 0) = rng.uniform(-0.5, 1.5);
    q(i, 1) = rng.uniform(-0.5, 1.5);
  }
  const auto batch = gp.predict_batch(q);
  ASSERT_EQ(batch.size(), q.rows());
  for (std::size_t i = 0; i < q.rows(); ++i) {
    const Prediction p = gp.predict(std::vector<double>{q(i, 0), q(i, 1)});
    EXPECT_DOUBLE_EQ(batch[i].mean, p.mean);
    EXPECT_DOUBLE_EQ(batch[i].variance, p.variance);
  }
}

TEST_F(GpFit, SharedDistanceBlockMatchesDirectPrediction) {
  // Two GPs with different hyperparameters but the same X must produce,
  // from one shared unscaled-distance block, exactly what their own
  // predict_batch produces — this is the surrogate's cross-GP fast path.
  Rng rng(13);
  Matrix x(15, 3);
  Vector y(15);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < 3; ++j) x(i, j) = rng.uniform();
    y[i] = rng.normal();
  }
  Kernel k1(KernelFamily::kMatern52, 3, false);
  k1.set_lengthscales({0.3});
  Kernel k2(KernelFamily::kMatern52, 3, false);
  k2.set_lengthscales({0.9});
  k2.set_amplitude(2.0);
  GpRegressor g1(k1, 1e-3), g2(k2, 1e-2);
  g1.fit(x, y);
  g2.fit(x, y);

  Matrix q(40, 3);
  for (std::size_t i = 0; i < q.rows(); ++i) {
    for (std::size_t j = 0; j < 3; ++j) q(i, j) = rng.uniform(-0.5, 1.5);
  }
  Matrix d2;
  g1.unscaled_sq_dists(q.transposed(), d2);
  ASSERT_EQ(d2.rows(), x.rows());
  ASSERT_EQ(d2.cols(), q.rows());
  for (const GpRegressor* g : {&g1, &g2}) {
    Matrix vws;
    std::vector<double> means(q.rows()), vars(q.rows());
    g->predict_mv_from_sq_dists(d2, vws, means, vars);
    const auto direct = g->predict_batch(q);
    ASSERT_EQ(means.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(means[i], direct[i].mean);
      EXPECT_EQ(vars[i], direct[i].variance);
    }
  }
}

TEST_F(GpFit, UniformNoiseDiagBitIdenticalToScalarPath) {
  // A per-observation noise diagonal whose entries all equal the scalar
  // noise variance must reproduce the homoscedastic path BITWISE: the
  // heteroscedastic Cholesky computes scale*k + (0.0 + sigma2), and
  // 0.0 + sigma2 == sigma2 exactly in IEEE arithmetic. The fidelity
  // ladder relies on this — rung tagging with equal variances cannot
  // perturb single-fidelity goldens.
  Rng rng(31);
  Kernel k(KernelFamily::kMatern52, 2, false);
  constexpr double kNoise = 1e-3;
  Matrix x(10, 2);
  Vector y(10);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
    y[i] = rng.normal();
  }
  GpRegressor scalar(k, kNoise);
  scalar.fit(x, y);
  GpRegressor het(k, kNoise);
  het.set_noise_diag(std::vector<double>(x.rows(), kNoise));
  het.fit(x, y);
  EXPECT_EQ(het.log_marginal_likelihood(), scalar.log_marginal_likelihood());
  for (int t = 0; t < 20; ++t) {
    const std::vector<double> q = {rng.uniform(-0.5, 1.5),
                                   rng.uniform(-0.5, 1.5)};
    const Prediction ph = het.predict(q);
    const Prediction ps = scalar.predict(q);
    EXPECT_EQ(ph.mean, ps.mean);
    EXPECT_EQ(ph.variance, ps.variance);
  }
}

TEST_F(GpFit, DistinctNoiseDiagTrustsPreciseObservations) {
  // Two observations at the same input with conflicting targets: the
  // posterior mean must side with the low-noise one.
  Kernel k(KernelFamily::kSquaredExponential, 1, false);
  GpRegressor gp(k, 1e-2);
  Matrix x(2, 1);
  x(0, 0) = 0.5;
  x(1, 0) = 0.5;
  gp.set_noise_diag(std::vector<double>{1e-6, 1.0});
  gp.fit(x, Vector{1.0, -1.0});
  const std::vector<double> q{0.5};
  const Prediction p = gp.predict(q);
  EXPECT_GT(p.mean, 0.9);
}

TEST_F(GpFit, HeteroscedasticAppendMatchesFreshFit) {
  // Scalar-fitted history extended with differently-noised appends (the
  // ladder's mixed-rung stream) must match a fresh heteroscedastic fit of
  // the full history.
  Rng rng(37);
  constexpr std::size_t kD = 2;
  Kernel k(KernelFamily::kMatern52, kD, false);
  constexpr double kBase = 1e-3;
  Matrix x(8, kD);
  Vector y(8);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < kD; ++j) x(i, j) = rng.uniform();
    y[i] = rng.normal();
  }
  GpRegressor incremental(k, kBase);
  incremental.fit(x, y);

  Matrix grown = x;
  Vector grown_y = y;
  std::vector<double> noises(x.rows(), kBase);
  for (int add = 0; add < 3; ++add) {
    std::vector<double> x_new(kD);
    for (auto& v : x_new) v = rng.uniform();
    grown_y.push_back(rng.normal());
    Matrix next(grown.rows() + 1, kD);
    for (std::size_t i = 0; i < grown.rows(); ++i) {
      for (std::size_t j = 0; j < kD; ++j) next(i, j) = grown(i, j);
    }
    for (std::size_t j = 0; j < kD; ++j) next(grown.rows(), j) = x_new[j];
    grown = std::move(next);
    const double noise_new = add % 2 == 0 ? 4.0 * kBase : kBase;
    noises.push_back(noise_new);
    incremental.append_observation(x_new, grown_y, noise_new);
  }
  ASSERT_EQ(incremental.num_observations(), 11u);
  ASSERT_EQ(incremental.noise_diag().size(), 11u);

  GpRegressor fresh(k, kBase);
  fresh.set_noise_diag(noises);
  fresh.fit(grown, grown_y);
  EXPECT_NEAR(incremental.log_marginal_likelihood(),
              fresh.log_marginal_likelihood(), 1e-9);
  for (int t = 0; t < 20; ++t) {
    std::vector<double> q(kD);
    for (auto& v : q) v = rng.uniform(-0.5, 1.5);
    const Prediction pi = incremental.predict(q);
    const Prediction pf = fresh.predict(q);
    EXPECT_NEAR(pi.mean, pf.mean, 1e-9);
    EXPECT_NEAR(pi.variance, pf.variance, 1e-9);
  }
}

TEST_F(GpFit, NoiseDiagValidation) {
  Kernel k(KernelFamily::kSquaredExponential, 1, false);
  GpRegressor gp(k, 1e-3);
  EXPECT_THROW(gp.set_noise_diag(std::vector<double>{1e-3, -1.0}), Error);
  gp.set_noise_diag(std::vector<double>{1e-3});
  Matrix x(2, 1);
  x(1, 0) = 1.0;
  // Diagonal size must match the observation count at fit time.
  EXPECT_THROW(gp.fit(x, Vector{0.0, 1.0}), Error);
}

TEST_F(GpFit, SharedDistanceBlockRejectsArd) {
  Kernel k(KernelFamily::kSquaredExponential, 2, /*ard=*/true);
  GpRegressor gp(k, 1e-3);
  Matrix x(3, 2);
  x(1, 0) = 1.0;
  x(2, 1) = 1.0;
  gp.fit(x, Vector{0.0, 1.0, 2.0});
  Matrix d2;
  gp.unscaled_sq_dists(x.transposed(), d2);
  Matrix vws;
  std::vector<double> means(3), vars(3);
  EXPECT_THROW(gp.predict_mv_from_sq_dists(d2, vws, means, vars), Error);
}

}  // namespace
}  // namespace stormtune::gp
