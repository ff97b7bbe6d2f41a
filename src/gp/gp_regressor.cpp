#include "gp/gp_regressor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>

#include "common/error.hpp"
#include "gp/kernel_batch.hpp"
#include "common/check.hpp"

namespace stormtune::gp {

GpRegressor::GpRegressor(Kernel kernel, double noise_variance,
                         double mean_value)
    : kernel_(std::move(kernel)),
      noise_variance_(noise_variance),
      mean_value_(mean_value) {
  STORMTUNE_REQUIRE(noise_variance >= 0.0,
                    "GpRegressor: noise variance must be >= 0");
}

std::vector<double> GpRegressor::inverse_squared_lengthscales() const {
  const auto ls = kernel_.lengthscales();
  std::vector<double> inv(ls.size());
  for (std::size_t i = 0; i < ls.size(); ++i) inv[i] = 1.0 / (ls[i] * ls[i]);
  return inv;
}

bool GpRegressor::x_matches(const Matrix& x) const {
  if (!dist_ || x_.rows() != x.rows() || x_.cols() != x.cols()) return false;
  // Bitwise comparison: hyperparameter search refits with the same X
  // hundreds of times per suggestion, so this runs hot. Representation
  // equality is stricter than value equality for every distance-relevant
  // case (-0.0 vs 0.0 merely rebuilds the cache needlessly), so a mismatch
  // only ever costs a redundant rebuild, never a stale cache.
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto a = x_.row(i);
    const auto b = x.row(i);
    if (std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void GpRegressor::rebuild_distance_cache() {
  const std::size_t n = x_.rows();
  const std::size_t d = x_.cols();
  auto cache = std::make_shared<DistanceCache>();
  cache->n = n;
  if (!kernel_.ard()) {
    // X against itself, the query side laid out coordinate-major. The
    // kernel fills both triangles, and (a − b)² is the same double as
    // (b − a)², so the block is symmetric bit for bit; the diagonal is 0
    // and never read.
    const Matrix xt = x_.transposed();
    cache->sq = Matrix(n, n);
    sq_dist_block(x_.data(), d, n, xt.data(), n, n, d, cache->sq.data(), n);
  } else {
    cache->sq_dims.resize(n * (n - 1) / 2 * d);
    double* out = cache->sq_dims.data();
    for (std::size_t j = 0; j < n; ++j) {
      const auto xj = x_.row(j);
      for (std::size_t i = 0; i < j; ++i) {
        const auto xi = x_.row(i);
        for (std::size_t k = 0; k < d; ++k) {
          const double diff = xi[k] - xj[k];
          *out++ = diff * diff;
        }
      }
    }
  }
  dist_ = std::move(cache);
}

std::shared_ptr<GpRegressor::DistanceCache>
GpRegressor::extended_distance_cache(std::span<const double> x_new) const {
  const std::size_t n = x_.rows();
  const std::size_t d = x_.cols();
  auto cache = std::make_shared<DistanceCache>();
  cache->n = n + 1;
  if (!kernel_.ard()) {
    cache->sq = Matrix(n + 1, n + 1);
    for (std::size_t i = 0; i < n; ++i) {
      const auto src = dist_->sq.row(i);
      const auto dst = cache->sq.row(i);
      for (std::size_t j = 0; j < n; ++j) dst[j] = src[j];
    }
    // Column n: every training row against the new point (a one-column,
    // coordinate-major query block), then mirrored into row n.
    sq_dist_block(x_.data(), d, n, x_new.data(), 1, 1, d, &cache->sq(0, n),
                  n + 1);
    for (std::size_t i = 0; i < n; ++i) cache->sq(n, i) = cache->sq(i, n);
  } else {
    // The pair order (all (i, j) with i < j, grouped by ascending j) makes
    // appending a point a pure append: existing offsets are untouched.
    cache->sq_dims = dist_->sq_dims;
    cache->sq_dims.reserve(cache->sq_dims.size() + n * d);
    for (std::size_t i = 0; i < n; ++i) {
      const auto xi = x_.row(i);
      for (std::size_t k = 0; k < d; ++k) {
        const double diff = xi[k] - x_new[k];
        cache->sq_dims.push_back(diff * diff);
      }
    }
  }
  return cache;
}

void GpRegressor::ensure_correlation() {
  const auto ls = kernel_.lengthscales();
  if (corr_valid_ && corr_ls_.size() == ls.size() &&
      std::equal(corr_ls_.begin(), corr_ls_.end(), ls.begin())) {
    return;
  }
  corr_valid_ = false;
  const std::size_t n = x_.rows();
  const std::vector<double> inv = inverse_squared_lengthscales();
  if (corr_.rows() != n || corr_.cols() != n) corr_ = Matrix(n, n);
  // Pack the strict upper triangle's scaled squared distances (pairs grouped
  // by ascending j, matching the ARD cache layout), push the whole thing
  // through the batched correlation transform, then scatter symmetrically.
  const std::size_t num_pairs = n * (n - 1) / 2;
  corr_r2_.resize(num_pairs);
  if (!kernel_.ard()) {
    const double inv0 = inv[0];
    std::size_t off = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const auto srow = dist_->sq.row(j);
      for (std::size_t i = 0; i < j; ++i) corr_r2_[off + i] = srow[i] * inv0;
      off += j;
    }
  } else {
    const std::size_t d = x_.cols();
    const double* p = dist_->sq_dims.data();
    for (std::size_t pair = 0; pair < num_pairs; ++pair, p += d) {
      double r2 = 0.0;
      for (std::size_t k = 0; k < d; ++k) r2 += p[k] * inv[k];
      corr_r2_[pair] = r2;
    }
  }
  correlation_from_scaled_sq_batch(kernel_.family(), 1.0, corr_r2_.data(),
                                   num_pairs);
  std::size_t off = 0;
  for (std::size_t j = 0; j < n; ++j) {
    corr_(j, j) = 1.0;
    for (std::size_t i = 0; i < j; ++i) {
      const double g = corr_r2_[off + i];
      corr_(i, j) = g;
      corr_(j, i) = g;
    }
    off += j;
  }
  corr_ls_.assign(ls.begin(), ls.end());
  corr_valid_ = true;
}

void GpRegressor::ensure_cholesky() {
  const auto ls = kernel_.lengthscales();
  if (chol_valid_ && chol_.has_value() &&
      chol_amp_ == kernel_.amplitude() && chol_noise_ == noise_variance_ &&
      chol_noise_diag_ == noise_diag_ && chol_ls_.size() == ls.size() &&
      std::equal(chol_ls_.begin(), chol_ls_.end(), ls.begin())) {
    return;
  }
  chol_valid_ = false;
  const double a2 = kernel_.variance();
  // The factor is built straight from the cached correlation matrix:
  // Cholesky scales and shifts the diagonal during its own copy, so the
  // refit loop never materializes a²·C + σ_n²·I, and refactor() reuses the
  // factor's buffers — a warm refit performs no allocation at all. With a
  // noise diagonal set, the scalar noise moves into the per-row shift and
  // diag_add carries only the accumulated jitter.
  constexpr double kMaxJitter = 1e-2;
  double jitter = 1e-10;
  applied_jitter_ = 0.0;
  const bool het = !noise_diag_.empty();
  double diag_add = het ? 0.0 : noise_variance_;
  while (true) {
    try {
      if (chol_.has_value()) {
        if (het) {
          chol_->refactor(corr_, a2, diag_add, noise_diag_);
        } else {
          chol_->refactor(corr_, a2, diag_add);
        }
      } else if (het) {
        chol_.emplace(corr_, a2, diag_add,
                      std::span<const double>(noise_diag_));
      } else {
        chol_.emplace(corr_, a2, diag_add);
      }
      break;
    } catch (const Error&) {
      STORMTUNE_REQUIRE(jitter <= kMaxJitter,
                        "GpRegressor::fit: kernel matrix not SPD even with "
                        "maximum jitter");
      // Scale jitter with the signal variance so it is meaningful for
      // kernels with large amplitudes.
      const double add = jitter * std::max(1.0, kernel_.variance());
      diag_add += add;
      applied_jitter_ += add;
      jitter *= 100.0;
    }
  }
  chol_amp_ = kernel_.amplitude();
  chol_noise_ = noise_variance_;
  chol_noise_diag_ = noise_diag_;
  chol_ls_.assign(ls.begin(), ls.end());
  chol_valid_ = true;
}

void GpRegressor::fit(const Matrix& x, const Vector& y) {
  STORMTUNE_REQUIRE(x.rows() == y.size(), "GpRegressor::fit: X/y mismatch");
  STORMTUNE_REQUIRE(x.rows() > 0, "GpRegressor::fit: no observations");
  STORMTUNE_REQUIRE(x.cols() == kernel_.input_dim(),
                    "GpRegressor::fit: dimension mismatch with kernel");
  STORMTUNE_REQUIRE(noise_diag_.empty() || noise_diag_.size() == x.rows(),
                    "GpRegressor::fit: noise diagonal size mismatch");
  fit_current_ = false;
  if (!x_matches(x)) {
    x_ = x;
    rebuild_distance_cache();
    corr_valid_ = false;
    chol_valid_ = false;
  }
  y_centered_.resize(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) y_centered_[i] = y[i] - mean_value_;

  ensure_correlation();
  ensure_cholesky();
  alpha_ = chol_->solve(y_centered_);
  fit_current_ = true;
}

STORMTUNE_HOT void GpRegressor::append_observation(
    std::span<const double> x_new, const Vector& y_all) {
  STORMTUNE_REQUIRE(noise_diag_.empty(),
                    "GpRegressor::append_observation: a noise diagonal is "
                    "set; use the noise_new overload");
  append_impl(x_new, y_all, noise_variance_);
}

STORMTUNE_HOT void GpRegressor::append_observation(
    std::span<const double> x_new, const Vector& y_all,
    double noise_new) {
  STORMTUNE_REQUIRE(noise_new >= 0.0,
                    "GpRegressor::append_observation: noise must be >= 0");
  // A homoscedastic fit transitions to a per-observation diagonal here:
  // existing rows keep the scalar variance, the new row carries its own.
  // The existing factor stays valid — its rows depend only on the old
  // diagonal entries, which are unchanged.
  if (noise_diag_.empty()) noise_diag_.assign(x_.rows(), noise_variance_);
  STORMTUNE_REQUIRE(noise_diag_.size() == x_.rows(),
                    "GpRegressor::append_observation: noise diagonal out of "
                    "sync with observations");
  noise_diag_.push_back(noise_new);
  append_impl(x_new, y_all, noise_new);
}

void GpRegressor::append_impl(std::span<const double> x_new,
                              const Vector& y_all, double noise_new) {
  STORMTUNE_REQUIRE(fitted(),
                    "GpRegressor::append_observation: call fit() first");
  const std::size_t n = x_.rows();
  const std::size_t d = x_.cols();
  STORMTUNE_REQUIRE(x_new.size() == d,
                    "GpRegressor::append_observation: dimension mismatch");
  STORMTUNE_REQUIRE(y_all.size() == n + 1,
                    "GpRegressor::append_observation: y must have n+1 entries");
  fit_current_ = false;

  auto new_dist = extended_distance_cache(x_new);
  Matrix grown_x(n + 1, d);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = x_.row(i);
    const auto dst = grown_x.row(i);
    for (std::size_t k = 0; k < d; ++k) dst[k] = src[k];
  }
  {
    const auto dst = grown_x.row(n);
    for (std::size_t k = 0; k < d; ++k) dst[k] = x_new[k];
  }
  x_ = std::move(grown_x);
  dist_ = new_dist;

  // Extend the correlation matrix (valid because fitted() held on entry).
  const std::vector<double> inv = inverse_squared_lengthscales();
  Matrix grown_corr(n + 1, n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = corr_.row(i);
    const auto dst = grown_corr.row(i);
    for (std::size_t j = 0; j < n; ++j) dst[j] = src[j];
  }
  corr_r2_.resize(n);
  if (!kernel_.ard()) {
    const double inv0 = inv[0];
    const auto srow = dist_->sq.row(n);
    for (std::size_t i = 0; i < n; ++i) corr_r2_[i] = srow[i] * inv0;
  } else {
    const double* p = dist_->sq_dims.data() + (n * (n - 1) / 2) * d;
    for (std::size_t i = 0; i < n; ++i, p += d) {
      double r2 = 0.0;
      for (std::size_t k = 0; k < d; ++k) r2 += p[k] * inv[k];
      corr_r2_[i] = r2;
    }
  }
  correlation_from_scaled_sq_batch(kernel_.family(), 1.0, corr_r2_.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    grown_corr(i, n) = corr_r2_[i];
    grown_corr(n, i) = corr_r2_[i];
  }
  grown_corr(n, n) = 1.0;
  corr_ = std::move(grown_corr);

  const double a2 = kernel_.variance();
  Vector k_col(n);
  for (std::size_t i = 0; i < n; ++i) k_col[i] = a2 * corr_(i, n);
  const double diag = a2 + noise_new + applied_jitter_;
  try {
    chol_->append_row(k_col, diag);
    // Keep the factor cache key in sync so a later ensure_cholesky with
    // unchanged hyperparameters does not refactor the appended diagonal.
    chol_noise_diag_ = noise_diag_;
  } catch (const Error&) {
    // The rank-grow extension is not numerically SPD (e.g. a near-duplicate
    // point with tiny noise); fall back to the jitter-escalating full
    // refactorization over the already-extended correlation cache.
    chol_valid_ = false;
    ensure_cholesky();
  }
  y_centered_.resize(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    y_centered_[i] = y_all[i] - mean_value_;
  }
  alpha_ = chol_->solve(y_centered_);
  fit_current_ = true;
}

STORMTUNE_HOT void GpRegressor::remove_observation(std::size_t idx,
                                                   const Vector& y_all) {
  STORMTUNE_REQUIRE(fitted(),
                    "GpRegressor::remove_observation: call fit() first");
  const std::size_t n = x_.rows();
  const std::size_t d = x_.cols();
  STORMTUNE_REQUIRE(idx < n,
                    "GpRegressor::remove_observation: index out of range");
  STORMTUNE_REQUIRE(n >= 2,
                    "GpRegressor::remove_observation: cannot empty the fit");
  STORMTUNE_REQUIRE(
      y_all.size() == n - 1,
      "GpRegressor::remove_observation: y must have n-1 entries");
  fit_current_ = false;
  const std::size_t m = n - 1;
  // Skip-copy helper: source row r of an n-sized structure for reduced row i.
  const auto src_of = [idx](std::size_t i) { return i < idx ? i : i + 1; };

  Matrix reduced_x(m, d);
  for (std::size_t i = 0; i < m; ++i) {
    const auto src = x_.row(src_of(i));
    const auto dst = reduced_x.row(i);
    for (std::size_t k = 0; k < d; ++k) dst[k] = src[k];
  }
  x_ = std::move(reduced_x);

  // Evict the row from the distance cache in O(n²) copies — the O(n²·d)
  // distance loop never reruns for a remove.
  auto cache = std::make_shared<DistanceCache>();
  cache->n = m;
  if (!kernel_.ard()) {
    cache->sq = Matrix(m, m);
    for (std::size_t i = 0; i < m; ++i) {
      const auto src = dist_->sq.row(src_of(i));
      const auto dst = cache->sq.row(i);
      for (std::size_t j = 0; j < m; ++j) dst[j] = src[src_of(j)];
    }
  } else {
    // Pairs (i, j), i < j, grouped by ascending j at offset
    // (j·(j−1)/2 + i)·d: the surviving pairs keep their relative order
    // under index remapping, so the repack is one forward write.
    cache->sq_dims.resize(m * (m - 1) / 2 * d);
    double* out = cache->sq_dims.data();
    const double* src = dist_->sq_dims.data();
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t sj = src_of(j);
      for (std::size_t i = 0; i < j; ++i) {
        const std::size_t si = src_of(i);
        const double* p = src + (sj * (sj - 1) / 2 + si) * d;
        for (std::size_t k = 0; k < d; ++k) *out++ = p[k];
      }
    }
  }
  dist_ = std::move(cache);

  // Correlation cache: same skip-copy (valid because fitted() held on entry
  // and the hyperparameters are unchanged).
  Matrix reduced_corr(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    const auto src = corr_.row(src_of(i));
    const auto dst = reduced_corr.row(i);
    for (std::size_t j = 0; j < m; ++j) dst[j] = src[src_of(j)];
  }
  corr_ = std::move(reduced_corr);

  if (!noise_diag_.empty()) {
    noise_diag_.erase(noise_diag_.begin() +
                      static_cast<std::ptrdiff_t>(idx));
    // Keep the factor cache key in sync, as append_impl does.
    chol_noise_diag_ = noise_diag_;
  }

  // O(n²) Givens downdate of the factor; cannot fail on a valid factor, so
  // there is no refactorization fallback to take.
  chol_->remove_row(idx);

  y_centered_.resize(m);
  for (std::size_t i = 0; i < m; ++i) y_centered_[i] = y_all[i] - mean_value_;
  alpha_ = chol_->solve(y_centered_);
  fit_current_ = true;
}

Prediction GpRegressor::predict(std::span<const double> x) const {
  Matrix q(1, x.size());
  const auto dst = q.row(0);
  for (std::size_t k = 0; k < x.size(); ++k) dst[k] = x[k];
  std::vector<Prediction> out;
  predict_batch(q, out);
  return out[0];
}

std::vector<Prediction> GpRegressor::predict_batch(const Matrix& q) const {
  std::vector<Prediction> out;
  predict_batch(q, out);
  return out;
}

STORMTUNE_HOT void GpRegressor::predict_batch(
    const Matrix& q, std::vector<Prediction>& out) const {
  predict_rows(q, 0, q.rows(), out);
}

namespace {
// Rows of K* processed per multi-RHS forward substitution; bounds the V
// workspace at kPredictChunk * n doubles.
constexpr std::size_t kPredictChunk = 64;
}  // namespace

// Finish a chunk given its cross-covariance block K* (one row per query):
// means against alpha, then one blocked multi-RHS forward substitution
// L V = K*ᵀ carrying all rows of the chunk at once
// (Cholesky::solve_lower_multi_in_place). The single-RHS solve has a
// loop-carried dependency; the multi-RHS sweep's inner updates run across
// queries, so they vectorize. Per query the operations and their order
// match the scalar solve_lower_in_place/dot path exactly, so results are
// bitwise identical to per-candidate solves.
void GpRegressor::predict_chunk(const Matrix& kstar,
                                std::span<Prediction> out) const {
  const std::size_t m = kstar.rows();
  const std::size_t n = x_.rows();
  const double a2 = kernel_.variance();
  for (std::size_t r = 0; r < m; ++r) {
    const auto b = kstar.row(r);
    double mean = 0.0;
    for (std::size_t i = 0; i < n; ++i) mean += b[i] * alpha_[i];
    out[r].mean = mean_value_ + mean;
  }
  Matrix v = kstar.transposed();
  chol_->solve_lower_multi_in_place(v);
  std::vector<double> ss(m, 0.0);  // Σ v_i² per query, i ascending
  for (std::size_t i = 0; i < n; ++i) {
    const auto vi = v.row(i);
    for (std::size_t r = 0; r < m; ++r) ss[r] += vi[r] * vi[r];
  }
  for (std::size_t r = 0; r < m; ++r) {
    const double var = a2 - ss[r];
    out[r].variance = var < 0.0 ? 0.0 : var;  // numerical floor
  }
}

STORMTUNE_HOT void GpRegressor::predict_rows(const Matrix& q,
                                             std::size_t row_begin,
                               std::size_t row_end,
                               std::vector<Prediction>& out) const {
  STORMTUNE_REQUIRE(fitted(), "GpRegressor::predict: call fit() first");
  STORMTUNE_REQUIRE(q.cols() == kernel_.input_dim(),
                    "GpRegressor::predict: dimension mismatch with kernel");
  STORMTUNE_REQUIRE(row_begin <= row_end && row_end <= q.rows(),
                    "GpRegressor::predict_rows: bad row range");
  const std::size_t n = x_.rows();
  const std::size_t d = q.cols();
  const std::size_t total = row_end - row_begin;
  out.resize(total);
  const double a2 = kernel_.variance();
  const bool ard = kernel_.ard();
  const std::vector<double> inv = inverse_squared_lengthscales();
  Matrix kstar;
  for (std::size_t base = 0; base < total; base += kPredictChunk) {
    const std::size_t m = std::min(kPredictChunk, total - base);
    if (kstar.rows() != m) kstar = Matrix(m, n);
    for (std::size_t r = 0; r < m; ++r) {
      const auto u = q.row(row_begin + base + r);
      const auto krow = kstar.row(r);
      if (ard) {
        for (std::size_t i = 0; i < n; ++i) {
          const auto xi = x_.row(i);
          double r2 = 0.0;
          for (std::size_t k = 0; k < d; ++k) {
            const double diff = xi[k] - u[k];
            r2 += diff * diff * inv[k];
          }
          krow[i] = r2;
        }
      } else {
        // The query as a one-column block: krow[i] = ‖x_i − u‖².
        sq_dist_block(x_.data(), d, n, u.data(), 1, 1, d, krow.data(), 1);
        for (std::size_t i = 0; i < n; ++i) krow[i] *= inv[0];
      }
      correlation_from_scaled_sq_batch(kernel_.family(), a2, krow.data(), n);
    }
    predict_chunk(kstar, std::span(out).subspan(base, m));
  }
}

STORMTUNE_HOT void GpRegressor::unscaled_sq_dists(const Matrix& qt,
                                                  Matrix& d2) const {
  STORMTUNE_REQUIRE(fitted(),
                    "GpRegressor::unscaled_sq_dists: call fit() first");
  STORMTUNE_REQUIRE(qt.rows() == x_.cols(),
                    "GpRegressor::unscaled_sq_dists: dimension mismatch");
  const std::size_t n = x_.rows();
  const std::size_t d = x_.cols();
  const std::size_t m = qt.cols();
  if (d2.rows() != n || d2.cols() != m) d2 = Matrix(n, m);
  sq_dist_block(x_.data(), d, n, qt.data(), m, m, d, d2.data(), m);
}

STORMTUNE_HOT void GpRegressor::neighbor_sq_dists(
    std::span<const double> center, std::span<const double> moved,
    Matrix& d2) const {
  const std::size_t n = x_.rows();
  const std::size_t d = x_.cols();
  const std::size_t m = moved.size();
  STORMTUNE_REQUIRE(center.size() == d && m == 2 * d,
                    "GpRegressor::neighbor_sq_dists: size mismatch");
  if (d2.rows() != n || d2.cols() != m) d2 = Matrix(n, m);
  // The centre's own distances ‖x_i − center‖² land in column 0 (a
  // one-column block) and are read back before row i is overwritten.
  sq_dist_block(x_.data(), d, n, center.data(), 1, 1, d, d2.data(), m);
  for (std::size_t i = 0; i < n; ++i) {
    const auto xi = x_.row(i);
    const auto di = d2.row(i);
    const double base = di[0];
    // Both neighbours of coordinate j written side by side: the compiler
    // pairs them into one vector (a loop over the two measured 3× slower).
    for (std::size_t j = 0; j < d; ++j) {
      const double xij = xi[j];
      const double old_diff = center[j] - xij;
      const double rest = base - old_diff * old_diff;
      const double up = moved[2 * j] - xij;
      const double down = moved[2 * j + 1] - xij;
      const double s_up = rest + up * up;
      const double s_down = rest + down * down;
      // The floor guards rounding from the subtraction.
      di[2 * j] = s_up < 0.0 ? 0.0 : s_up;
      di[2 * j + 1] = s_down < 0.0 ? 0.0 : s_down;
    }
  }
}

STORMTUNE_HOT void GpRegressor::predict_mv_from_sq_dists(
    const Matrix& d2, Matrix& vws, std::span<double> means,
    std::span<double> vars) const {
  STORMTUNE_REQUIRE(
      fitted(), "GpRegressor::predict_mv_from_sq_dists: call fit() first");
  STORMTUNE_REQUIRE(!kernel_.ard(),
                    "GpRegressor::predict_mv_from_sq_dists: non-ARD only");
  STORMTUNE_REQUIRE(d2.rows() == x_.rows(),
                    "GpRegressor::predict_mv_from_sq_dists: block/X mismatch");
  const std::size_t n = x_.rows();
  const std::size_t m = d2.cols();
  STORMTUNE_REQUIRE(
      means.size() == m && vars.size() == m,
      "GpRegressor::predict_mv_from_sq_dists: output size mismatch");
  const double a2 = kernel_.variance();
  const double inv0 = inverse_squared_lengthscales()[0];
  // V = K*ᵀ (row i = candidate values of training point i) is the block's
  // own layout, so building it is one stride-1 scaling pass, and the
  // transform is an element-wise map over the whole buffer.
  if (vws.rows() != n || vws.cols() != m) vws = Matrix(n, m);
  const double* src = d2.data();
  double* dst = vws.data();
  for (std::size_t e = 0; e < n * m; ++e) dst[e] = src[e] * inv0;
  correlation_from_scaled_sq_batch(kernel_.family(), a2, vws.data(), n * m);
  // Means before the solve overwrites V. Per candidate the additions run in
  // ascending training-point order — predict_chunk's dot-product order.
  for (std::size_t r = 0; r < m; ++r) means[r] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto vi = vws.row(i);
    const double ai = alpha_[i];
    for (std::size_t r = 0; r < m; ++r) means[r] += vi[r] * ai;
  }
  for (std::size_t r = 0; r < m; ++r) means[r] = mean_value_ + means[r];
  // One forward substitution over all m candidates; a column's result is
  // independent of which other columns share the block (see
  // solve_lower_multi_in_place), so this matches the chunked solves bit for
  // bit.
  chol_->solve_lower_multi_in_place(vws);
  for (std::size_t r = 0; r < m; ++r) vars[r] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto vi = vws.row(i);
    for (std::size_t r = 0; r < m; ++r) vars[r] += vi[r] * vi[r];
  }
  for (std::size_t r = 0; r < m; ++r) {
    const double var = a2 - vars[r];
    vars[r] = var < 0.0 ? 0.0 : var;  // numerical floor
  }
}

double GpRegressor::log_marginal_likelihood() const {
  STORMTUNE_REQUIRE(fitted(), "GpRegressor: call fit() first");
  const double n = static_cast<double>(x_.rows());
  return -0.5 * dot(y_centered_, alpha_) - 0.5 * chol_->log_determinant() -
         0.5 * n * std::log(2.0 * std::numbers::pi);
}

void GpRegressor::set_kernel_hyperparams(std::span<const double> log_params) {
  kernel_.set_hyperparams(log_params);
  fit_current_ = false;
}

void GpRegressor::set_noise_variance(double nv) {
  STORMTUNE_REQUIRE(nv >= 0.0, "GpRegressor: noise variance must be >= 0");
  noise_variance_ = nv;
  fit_current_ = false;
}

void GpRegressor::set_mean_value(double m) {
  mean_value_ = m;
  fit_current_ = false;
}

void GpRegressor::set_noise_diag(std::span<const double> nv) {
  for (const double v : nv) {
    STORMTUNE_REQUIRE(v >= 0.0, "GpRegressor: noise variance must be >= 0");
  }
  noise_diag_.assign(nv.begin(), nv.end());
  fit_current_ = false;
}

}  // namespace stormtune::gp
