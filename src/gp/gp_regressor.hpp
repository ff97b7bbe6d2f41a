// Exact Gaussian-process regression with Gaussian observation noise.
//
// This is the probabilistic surrogate at the heart of the paper's method
// (Section III-C): given configuration/throughput observations D_{1:t}, the
// posterior GP supplies the predictive mean and variance from which the
// Expected Improvement acquisition function is computed.
//
// Hyperparameter inference (slice sampling, MLE coordinate search) refits the
// same regressor hundreds of times per suggestion while X never changes, so
// fit() maintains a layered cache keyed on what each layer actually depends
// on (see DESIGN.md "Performance architecture"):
//   L0  pairwise distance structure            — depends on X only
//   L1  unit-amplitude correlation matrix g(r) — depends on X + lengthscales
//   L2  Cholesky factor of a²·C + σ_n²·I       — depends on X + all kernel
//       hyperparameters + noise
// A refit that changes only the constant mean costs O(n²) (one solve); one
// that changes amplitude or noise costs O(n²) + O(n³/3) but never touches
// the O(n²·d) distance loop; only a lengthscale change rebuilds g(r), and
// even that reads cached distances instead of X.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "gp/kernel.hpp"
#include "linalg/matrix.hpp"

namespace stormtune::gp {

/// Predictive distribution at a single query point.
struct Prediction {
  double mean = 0.0;
  double variance = 0.0;  ///< includes neither observation noise nor jitter
};

class GpRegressor {
 public:
  /// `noise_variance` is the Gaussian observation-noise variance sigma_n^2;
  /// `mean_value` is a constant prior mean subtracted from targets.
  GpRegressor(Kernel kernel, double noise_variance, double mean_value = 0.0);

  /// Fit to inputs X (one row per observation, dim columns) and targets y.
  /// Escalates diagonal jitter on Cholesky failure up to `max_jitter`.
  /// Re-fitting with the same X reuses the cached distance structure (and,
  /// where the hyperparameters allow, the correlation matrix and factor).
  void fit(const Matrix& x, const Vector& y);

  /// Incremental refit: add one observation `x_new` together with the full
  /// (possibly re-standardized) target vector `y_all` of length n+1. Grows
  /// the Cholesky factor by one row — O(n²) instead of the O(n³) full
  /// refactorization — and extends the distance/correlation caches. Requires
  /// fitted() and unchanged hyperparameters; falls back to a full
  /// refactorization if the rank-grow update is not numerically SPD.
  /// Requires a homoscedastic fit (no noise diagonal set) — heteroscedastic
  /// appends must state the new row's noise via the overload below.
  void append_observation(std::span<const double> x_new, const Vector& y_all);

  /// Heteroscedastic append: like append_observation, with `noise_new` the
  /// new observation's noise variance. A homoscedastic fit transitions to a
  /// per-observation diagonal here — existing rows keep the scalar variance,
  /// the new row carries its own — so mixed-fidelity observers can start
  /// from a single-rung initial design.
  void append_observation(std::span<const double> x_new, const Vector& y_all,
                          double noise_new);

  /// Incremental evict: remove observation row `idx` together with the full
  /// (possibly re-standardized) remaining target vector `y_all` of length
  /// n−1. The dual of append_observation — every fit cache evicts the row
  /// instead of invalidating wholesale: the distance and correlation caches
  /// are copy-reduced in O(n²) (never the O(n²·d) distance recompute), a
  /// heteroscedastic noise diagonal drops its entry, and the Cholesky factor
  /// is downdated in place via Cholesky::remove_row — O(n²) Givens
  /// rotations, never the O(n³) refactorization, and unlike append it
  /// cannot fail on a valid factor. Requires fitted(), unchanged
  /// hyperparameters, and at least two observations. This is the
  /// sliding-window surrogate's eviction path: a window slide costs one
  /// remove + one append, both O(n²).
  void remove_observation(std::size_t idx, const Vector& y_all);

  bool fitted() const { return chol_.has_value() && fit_current_; }
  std::size_t num_observations() const { return x_.rows(); }
  /// Training inputs of the current fit, one row per observation.
  const Matrix& inputs() const { return x_; }

  Prediction predict(std::span<const double> x) const;

  /// Predict at every row of `q` in one cache-friendly pass over the factor.
  /// Thread-safe for concurrent calls on a fitted regressor (read-only).
  std::vector<Prediction> predict_batch(const Matrix& q) const;
  /// Buffer-reusing variant; resizes `out` to q.rows().
  void predict_batch(const Matrix& q, std::vector<Prediction>& out) const;
  /// Predict rows [row_begin, row_end) of `q`; resizes `out` to the range
  /// length (read-only, like predict_batch).
  void predict_rows(const Matrix& q, std::size_t row_begin,
                    std::size_t row_end, std::vector<Prediction>& out) const;

  /// Unscaled squared distances between the training inputs and the
  /// queries held one per COLUMN of `qt` (d × m, coordinate-major):
  /// d2(i, r) = ‖x_i − q_r‖², resized to n × m. The block is training-major
  /// — already the V = K*ᵀ layout predict_mv_from_sq_dists consumes — and
  /// kernel-independent, so a surrogate marginalizing over several
  /// hyper-sample GPs (which share X) computes it once and scores every GP
  /// from it. Computed by gp::sq_dist_block, bit-identical to the scalar
  /// loop.
  void unscaled_sq_dists(const Matrix& qt, Matrix& d2) const;

  /// Distance block of the 2d coordinate neighbours of `center`: neighbour
  /// r equals `center` except coordinate r/2, which is moved[r]. Each entry
  /// is an O(1) update of the centre's own distance b_i = ‖x_i − center‖²:
  /// d2(i, r) = max(0, b_i − (c_j − x_ij)² + (moved[r] − x_ij)²), the floor
  /// guarding the subtraction's rounding. Training-major (n × 2d), like
  /// unscaled_sq_dists.
  void neighbor_sq_dists(std::span<const double> center,
                         std::span<const double> moved, Matrix& d2) const;

  /// Predict from a precomputed unscaled squared-distance block (training-
  /// major, n × m, as unscaled_sq_dists writes it) straight into contiguous
  /// mean/variance arrays, one entry per query: scales the block into the
  /// caller-owned workspace `vws` (resized to n × m as needed), runs one
  /// batched correlation transform over the whole n·m buffer and one
  /// multi-RHS forward substitution carrying every query. Per query each
  /// reduction runs in the same ascending order and each element-wise
  /// transform is the same single-value map as predict_rows, so results are
  /// bitwise identical to it. Non-ARD kernels only (ARD scales per dimension
  /// before summing, so no shared block exists for it). `means`/`vars` must
  /// have d2.cols() entries.
  void predict_mv_from_sq_dists(const Matrix& d2, Matrix& vws,
                                std::span<double> means,
                                std::span<double> vars) const;

  /// log p(y | X, theta); requires fit() to have been called.
  double log_marginal_likelihood() const;

  const Kernel& kernel() const { return kernel_; }
  double noise_variance() const { return noise_variance_; }
  double mean_value() const { return mean_value_; }
  /// Per-observation noise variances; empty when homoscedastic.
  const std::vector<double>& noise_diag() const { return noise_diag_; }

  /// Mutators invalidate the current fit; call fit() again afterwards.
  /// Caches survive mutation and are reused where their keys still match.
  void set_kernel_hyperparams(std::span<const double> log_params);
  void set_noise_variance(double nv);
  void set_mean_value(double m);

  /// Per-observation noise variances (heteroscedastic observations — e.g.
  /// mixed-fidelity measurements where each rung carries its own σ_n²).
  /// Must have one entry per row of the next fit()'s X; an empty span
  /// restores the homoscedastic scalar. When every entry equals
  /// noise_variance(), fits are bit-identical to the scalar path: the
  /// Cholesky applies the same two-operand diagonal additions in the same
  /// order (see Cholesky::refactor's heteroscedastic overload).
  void set_noise_diag(std::span<const double> nv);

 private:
  /// Pairwise distance structure over X: for non-ARD kernels the unscaled
  /// squared distances ‖x_i − x_j‖², for ARD the per-dimension squared
  /// differences (packed pair-major, pairs ordered so that appending an
  /// observation appends entries without disturbing existing offsets).
  /// Immutable once built and shared across copies of the regressor, so the
  /// per-hyper-sample refit fan-out pays for it exactly once.
  struct DistanceCache {
    std::size_t n = 0;
    Matrix sq;                    // non-ARD: n×n unscaled squared distances
    std::vector<double> sq_dims;  // ARD: (j·(j−1)/2 + i)·d + k, for i < j
  };

  bool x_matches(const Matrix& x) const;
  void rebuild_distance_cache();
  std::shared_ptr<DistanceCache> extended_distance_cache(
      std::span<const double> x_new) const;
  void ensure_correlation();
  void ensure_cholesky();
  void append_impl(std::span<const double> x_new, const Vector& y_all,
                   double noise_new);
  std::vector<double> inverse_squared_lengthscales() const;
  void predict_chunk(const Matrix& kstar, std::span<Prediction> out) const;

  Kernel kernel_;
  double noise_variance_;
  double mean_value_;
  std::vector<double> noise_diag_;  // empty = homoscedastic scalar path

  Matrix x_;
  Vector y_centered_;
  std::optional<Cholesky> chol_;
  Vector alpha_;  // K^{-1} (y - m)
  double applied_jitter_ = 0.0;

  // --- layered fit caches ---
  std::shared_ptr<const DistanceCache> dist_;
  Matrix corr_;                  // unit-amplitude correlation, unit diagonal
  std::vector<double> corr_r2_;  // packed-r² scratch for the batch transform
  std::vector<double> corr_ls_;  // lengthscales corr_ was built with
  bool corr_valid_ = false;
  double chol_amp_ = 0.0;        // hyperparameters chol_ was built with
  double chol_noise_ = -1.0;
  std::vector<double> chol_noise_diag_;
  std::vector<double> chol_ls_;
  bool chol_valid_ = false;
  bool fit_current_ = false;     // alpha_ matches the current parameters
};

}  // namespace stormtune::gp
