#include "bayesopt/bayesopt.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/check.hpp"

namespace stormtune::bo {

std::string to_string(HyperMode mode) {
  switch (mode) {
    case HyperMode::kSliceSample: return "slice";
    case HyperMode::kMle: return "mle";
    case HyperMode::kFixed: return "fixed";
  }
  return "unknown";
}

namespace {

gp::KernelFamily kernel_from_string(const std::string& s) {
  if (s == "se") return gp::KernelFamily::kSquaredExponential;
  if (s == "matern32") return gp::KernelFamily::kMatern32;
  if (s == "matern52") return gp::KernelFamily::kMatern52;
  STORMTUNE_REQUIRE(false, "unknown kernel family '" + s + "'");
  return gp::KernelFamily::kMatern52;
}

AcquisitionKind acquisition_from_string(const std::string& s) {
  if (s == "ei") return AcquisitionKind::kExpectedImprovement;
  if (s == "pi") return AcquisitionKind::kProbabilityOfImprovement;
  if (s == "ucb") return AcquisitionKind::kUpperConfidenceBound;
  STORMTUNE_REQUIRE(false, "unknown acquisition '" + s + "'");
  return AcquisitionKind::kExpectedImprovement;
}

HyperMode hyper_mode_from_string(const std::string& s) {
  if (s == "slice") return HyperMode::kSliceSample;
  if (s == "mle") return HyperMode::kMle;
  if (s == "fixed") return HyperMode::kFixed;
  STORMTUNE_REQUIRE(false, "unknown hyper mode '" + s + "'");
  return HyperMode::kSliceSample;
}

}  // namespace

Json BayesOptOptions::to_json() const {
  JsonObject o;
  o["kernel"] = gp::to_string(kernel);
  o["ard"] = ard;
  o["acquisition"] = bo::to_string(acquisition);
  o["hyper_mode"] = bo::to_string(hyper_mode);
  o["hyper_samples"] = hyper_samples;
  o["hyper_burn_in"] = hyper_burn_in;
  o["initial_design"] = initial_design;
  o["num_candidates"] = num_candidates;
  o["local_search_iters"] = local_search_iters;
  o["xi"] = xi;
  o["ucb_beta"] = ucb_beta;
  o["fixed_noise_variance"] = fixed_noise_variance;
  if (!rung_noise_variance.empty()) {
    JsonArray rn;
    for (double v : rung_noise_variance) rn.emplace_back(v);
    o["rung_noise_variance"] = Json(std::move(rn));
  }
  // Emitted only when windowing is on, so unwindowed states stay byte-
  // identical to those written before the option existed.
  if (max_observations != 0) {
    o["max_observations"] = max_observations;
    o["hyper_refit_interval"] = hyper_refit_interval;
    o["hyper_burn_in_warm"] = hyper_burn_in_warm;
  }
  o["seed"] = Json::from_uint64(seed);
  return Json(std::move(o));
}

BayesOptOptions BayesOptOptions::from_json(const Json& j) {
  BayesOptOptions o;
  o.kernel = kernel_from_string(j.at("kernel").as_string());
  o.ard = j.at("ard").as_bool();
  o.acquisition = acquisition_from_string(j.at("acquisition").as_string());
  o.hyper_mode = hyper_mode_from_string(j.at("hyper_mode").as_string());
  o.hyper_samples = static_cast<std::size_t>(j.at("hyper_samples").as_int());
  o.hyper_burn_in = static_cast<std::size_t>(j.at("hyper_burn_in").as_int());
  o.initial_design = static_cast<std::size_t>(j.at("initial_design").as_int());
  o.num_candidates = static_cast<std::size_t>(j.at("num_candidates").as_int());
  o.local_search_iters =
      static_cast<std::size_t>(j.at("local_search_iters").as_int());
  o.xi = j.at("xi").as_number();
  o.ucb_beta = j.at("ucb_beta").as_number();
  o.fixed_noise_variance = j.at("fixed_noise_variance").as_number();
  o.seed = j.at("seed").as_uint64();
  // Absent in states saved before the multi-fidelity ladder existed.
  if (j.contains("rung_noise_variance")) {
    for (const auto& v : j.at("rung_noise_variance").as_array()) {
      o.rung_noise_variance.push_back(v.as_number());
    }
  }
  // Absent in states saved before the sliding window existed (and in
  // unwindowed states since).
  if (j.contains("max_observations")) {
    o.max_observations =
        static_cast<std::size_t>(j.at("max_observations").as_int());
    o.hyper_refit_interval =
        static_cast<std::size_t>(j.at("hyper_refit_interval").as_int());
    o.hyper_burn_in_warm =
        static_cast<std::size_t>(j.at("hyper_burn_in_warm").as_int());
  }
  return o;
}

BayesOpt::BayesOpt(ParamSpace space, BayesOptOptions options)
    : space_(std::move(space)),
      options_(options),
      rng_(options.seed) {
  STORMTUNE_REQUIRE(options_.hyper_samples > 0,
                    "BayesOpt: hyper_samples must be > 0");
  STORMTUNE_REQUIRE(options_.num_candidates > 0,
                    "BayesOpt: num_candidates must be > 0");
  STORMTUNE_REQUIRE(
      options_.max_observations == 0 || options_.max_observations >= 2,
      "BayesOpt: max_observations must be 0 (unbounded) or >= 2 "
      "(pinned incumbent plus at least one evictable observation)");
  STORMTUNE_REQUIRE(options_.hyper_refit_interval > 0,
                    "BayesOpt: hyper_refit_interval must be > 0");
}

/// GP surrogate over standardized targets with a set of hyperparameter
/// samples to marginalize over.
struct BayesOpt::Surrogate {
  std::vector<gp::GpRegressor> gps;  // one per hyperparameter sample
  double y_mean = 0.0;
  double y_scale = 1.0;
  double best_standardized = 0.0;
  // Cost-aware acquisition (BayesOpt::set_acquisition_costs); cost1 <= 0 =
  // plain acquisition. threshold_standardized is the rung-2 promotion
  // threshold in standardized-target units.
  double cost1_ms = 0.0;
  double cost2_ms = 0.0;
  double threshold_standardized = 0.0;

  /// All GPs are refits of one regressor on the same X, differing only in
  /// hyperparameters, so for non-ARD kernels a candidate's unscaled squared
  /// distances to the training inputs are identical across GPs: the scoring
  /// paths below compute that block once and let each GP finish it with its
  /// own lengthscale/amplitude instead of redoing the O(n·d) diff loop
  /// per GP.
  bool shares_distances() const {
    return !gps.empty() && !gps.front().kernel().ard();
  }

  /// Reusable scoring workspace, carried across calls (in particular across
  /// local-search iterations), so the distance block, the solve workspace
  /// and the mean/variance arrays are allocated once per suggest() instead
  /// of once per batch.
  struct ScoreScratch {
    Matrix d2;  // n × candidates squared distances (training-major)
    Matrix v;   // n × candidates fused-solve workspace
    std::vector<double> means, vars;  // contiguous per-candidate moments
    Matrix rows;                        // ARD fallback: one query per row
    std::vector<gp::Prediction> preds;  // ARD fallback
    // Across-GP moment sums for the cost divisor (cost-aware scoring only).
    std::vector<double> mean_acc, var_acc;
  };

  /// Divide the averaged acquisition values by each candidate's expected
  /// evaluation cost c1 + Φ((μ−t)/σ)·c2 (expected improvement per simulated
  /// second). ws.mean_acc / ws.var_acc hold across-GP sums on entry. Pure
  /// per-candidate arithmetic — no shared state, no RNG.
  void apply_cost_divisor(ScoreScratch& ws, std::span<double> out) const {
    const double inv = 1.0 / static_cast<double>(gps.size());
    for (std::size_t r = 0; r < out.size(); ++r) {
      const double mu = ws.mean_acc[r] * inv;
      const double sd = std::sqrt(ws.var_acc[r] * inv);
      const double promote =
          sd > 0.0 ? normal_cdf((mu - threshold_standardized) / sd)
                   : (mu > threshold_standardized ? 1.0 : 0.0);
      const double cost_s = (cost1_ms + promote * cost2_ms) * 1e-3;
      out[r] /= cost_s;
    }
  }

  /// Average the acquisition over the GPs given the candidates' shared
  /// unscaled squared-distance block (training-major, one column per
  /// candidate). Each GP scores the whole batch fused: one batched
  /// correlation transform and one multi-RHS solve over all candidates
  /// (predict_mv_from_sq_dists), then one batch acquisition accumulation.
  void score_from_sq_dists(const BayesOptOptions& opts, const Matrix& d2,
                           ScoreScratch& ws, std::span<double> out) const {
    std::fill(out.begin(), out.end(), 0.0);
    const std::size_t m = d2.cols();
    ws.means.resize(m);
    ws.vars.resize(m);
    const bool costed = cost1_ms > 0.0;
    if (costed) {
      ws.mean_acc.assign(m, 0.0);
      ws.var_acc.assign(m, 0.0);
    }
    for (const auto& g : gps) {
      g.predict_mv_from_sq_dists(d2, ws.v, ws.means, ws.vars);
      acquisition_accumulate(opts.acquisition, ws.means, ws.vars,
                             best_standardized, opts.xi, opts.ucb_beta, out);
      if (costed) {
        for (std::size_t r = 0; r < m; ++r) {
          ws.mean_acc[r] += ws.means[r];
          ws.var_acc[r] += ws.vars[r];
        }
      }
    }
    const double inv = 1.0 / static_cast<double>(gps.size());
    for (auto& v : out) v *= inv;
    if (costed) apply_cost_divisor(ws, out);
  }

  /// ARD: no shared distance block exists, so every GP predicts the queries
  /// (one per row of `rows`) through its own chunked path; the batch
  /// acquisition accumulation still hoists the kind dispatch out of the
  /// candidate loop.
  void score_rows_ard(const BayesOptOptions& opts, const Matrix& rows,
                      ScoreScratch& ws, std::span<double> out) const {
    const std::size_t m = rows.rows();
    std::fill(out.begin(), out.end(), 0.0);
    const bool costed = cost1_ms > 0.0;
    if (costed) {
      ws.mean_acc.assign(m, 0.0);
      ws.var_acc.assign(m, 0.0);
    }
    for (const auto& g : gps) {
      g.predict_rows(rows, 0, m, ws.preds);
      ws.means.resize(m);
      ws.vars.resize(m);
      for (std::size_t i = 0; i < m; ++i) {
        ws.means[i] = ws.preds[i].mean;
        ws.vars[i] = ws.preds[i].variance;
      }
      acquisition_accumulate(opts.acquisition, ws.means, ws.vars,
                             best_standardized, opts.xi, opts.ucb_beta, out);
      if (costed) {
        for (std::size_t i = 0; i < m; ++i) {
          ws.mean_acc[i] += ws.means[i];
          ws.var_acc[i] += ws.vars[i];
        }
      }
    }
    const double inv = 1.0 / static_cast<double>(gps.size());
    for (auto& v : out) v *= inv;
    if (costed) apply_cost_divisor(ws, out);
  }

  /// Acquisition averaged over the hyperparameter samples for every
  /// candidate, held one per COLUMN of `cands` (d × m), written to `out`.
  /// Scores each GP against all candidates in one pass, so the Cholesky
  /// factor and training inputs of one GP stay hot.
  void acquisition(const BayesOptOptions& opts, const Matrix& cands,
                   ScoreScratch& ws, std::span<double> out) const {
    if (shares_distances()) {
      gps.front().unscaled_sq_dists(cands, ws.d2);
      score_from_sq_dists(opts, ws.d2, ws, out);
      return;
    }
    ws.rows = cands.transposed();
    score_rows_ard(opts, ws.rows, ws, out);
  }

  /// Variant for the local-search neighbourhood of `cur`: neighbour r
  /// equals `cur` except coordinate r/2, which is moved[r]. Each
  /// neighbour's squared distances are an O(n) update of the centre's
  /// (GpRegressor::neighbor_sq_dists) instead of an O(n·d) recomputation.
  /// ARD kernels materialize the neighbours as rows and take the generic
  /// path.
  void acquisition_neighbors(const BayesOptOptions& opts,
                             std::span<const double> cur,
                             std::span<const double> moved, ScoreScratch& ws,
                             std::span<double> out) const {
    const std::size_t d = cur.size();
    if (!shares_distances()) {
      if (ws.rows.rows() != moved.size() || ws.rows.cols() != d) {
        ws.rows = Matrix(moved.size(), d);
      }
      for (std::size_t r = 0; r < moved.size(); ++r) {
        const auto row = ws.rows.row(r);
        std::copy(cur.begin(), cur.end(), row.begin());
        row[r / 2] = moved[r];
      }
      score_rows_ard(opts, ws.rows, ws, out);
      return;
    }
    gps.front().neighbor_sq_dists(cur, moved, ws.d2);
    score_from_sq_dists(opts, ws.d2, ws, out);
  }
};

bool BayesOpt::window_step(const std::vector<std::size_t>& from,
                           std::vector<std::size_t>& removals,
                           std::size_t& num_appends) const {
  // Both id lists are ascending (rows are appended in observation order and
  // evictions erase without reordering), so the step is incremental exactly
  // when window_ = (from minus some entries) ++ (ids newer than all of
  // from). A window id older than a kept row that is NOT in `from` would
  // need a mid-factor insertion — no such Cholesky path exists; refit.
  removals.clear();
  num_appends = 0;
  std::size_t ti = 0;
  for (std::size_t fi = 0; fi < from.size(); ++fi) {
    if (ti < window_.size() && window_[ti] < from[fi]) return false;
    if (ti < window_.size() && window_[ti] == from[fi]) {
      ++ti;
    } else {
      removals.push_back(fi);
    }
  }
  num_appends = window_.size() - ti;
  return from.size() > removals.size();  // at least one kept row
}

void BayesOpt::slide_gp(gp::GpRegressor& g,
                        const std::vector<std::size_t>& from,
                        const std::vector<std::size_t>& removals,
                        std::size_t num_appends, double y_mean, double y_scale,
                        bool het, bool sampled_noise) const {
  std::vector<std::size_t> rows = from;
  Vector ya;
  const auto restandardize = [&] {
    ya.resize(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ya[i] = (observations_[rows[i]].y - y_mean) / y_scale;
    }
  };
  // Descending positions so earlier removal indices stay valid.
  for (auto it = removals.rbegin(); it != removals.rend(); ++it) {
    rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(*it));
    restandardize();
    g.remove_observation(*it, ya);
  }
  for (std::size_t k = window_.size() - num_appends; k < window_.size(); ++k) {
    const std::size_t id = window_[k];
    rows.push_back(id);
    restandardize();
    if (het || !g.noise_diag().empty()) {
      const double noise_new =
          sampled_noise
              ? g.noise_variance() *
                    (rung_noise(observations_[id].rung) / rung_noise(2))
              : rung_noise(observations_[id].rung);
      g.append_observation(unit_x_[id], ya, noise_new);
    } else {
      g.append_observation(unit_x_[id], ya);
    }
  }
}

BayesOpt::Surrogate BayesOpt::fit_surrogate() {
  // The surrogate conditions on the windowed observations only. With an
  // unbounded window window_ is exactly [0, n), so every loop below walks
  // the same rows in the same order as the pre-window code — bit-identical.
  const std::size_t n = window_.size();
  const std::size_t d = space_.dim();

  Surrogate s;
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) ys[i] = observations_[window_[i]].y;
  const Summary sum = summarize(ys);
  s.y_mean = sum.mean;
  s.y_scale = sum.stddev > 1e-12 ? sum.stddev : 1.0;

  Matrix x(n, d);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) x(i, j) = unit_x_[window_[i]][j];
    y[i] = (observations_[window_[i]].y - s.y_mean) / s.y_scale;
  }
  s.best_standardized = *std::max_element(y.begin(), y.end());
  s.cost1_ms = acq_cost1_ms_;
  s.cost2_ms = acq_cost2_ms_;
  s.threshold_standardized = (acq_threshold_y_ - s.y_mean) / s.y_scale;

  // Per-observation noise variances from the fidelity tags. The diagonal is
  // only engaged when the effective rung variances actually differ — a
  // history whose rungs all share one variance takes the homoscedastic
  // scalar path, bit-identical to pre-ladder fits. Slice/MLE modes infer
  // the overall noise scale and carry the rung structure as fixed ratios
  // against the full-fidelity rung (see apply_hyperparams).
  std::vector<double> noises(n);
  bool het = false;
  for (std::size_t i = 0; i < n; ++i) {
    noises[i] = rung_noise(observations_[window_[i]].rung);
    het = het || noises[i] != noises[0];
  }
  std::vector<double> noise_ratios;
  if (het && options_.hyper_mode != HyperMode::kFixed) {
    const double base = rung_noise(2);
    noise_ratios.resize(n);
    for (std::size_t i = 0; i < n; ++i) noise_ratios[i] = noises[i] / base;
  }

  gp::Kernel kernel(options_.kernel, d, options_.ard);
  // Reasonable starting lengthscale for a unit cube.
  std::vector<double> ls(options_.ard ? d : 1, 0.3);
  kernel.set_lengthscales(ls);
  gp::GpRegressor gp(std::move(kernel), options_.fixed_noise_variance, 0.0);

  switch (options_.hyper_mode) {
    case HyperMode::kFixed: {
      // Hyperparameters never change in this mode, so the surrogate is kept
      // across calls: an unchanged window is reused outright, a single new
      // observation is an O(n²) Cholesky rank-grow instead of the O(n³)
      // refactorization, and a window slide additionally absorbs each
      // eviction through the O(n²) row downdate.
      std::vector<std::size_t> removals;
      std::size_t num_appends = 0;
      if (fixed_gp_ && fixed_gp_->fitted() && fixed_rows_ == window_) {
        // Same window as the previous call (e.g. repeated suggest() without
        // observe()): the standardized targets are identical, reuse as-is.
      } else if (fixed_gp_ && fixed_gp_->fitted() &&
                 window_step(fixed_rows_, removals, num_appends) &&
                 (!removals.empty() || num_appends == 1)) {
        // A multi-append with no eviction refits from scratch instead (the
        // pre-window behaviour, which windowed-but-not-yet-full histories
        // must reproduce bit for bit).
        slide_gp(*fixed_gp_, fixed_rows_, removals, num_appends, s.y_mean,
                 s.y_scale, het, /*sampled_noise=*/false);
        fixed_rows_ = window_;
      } else {
        if (het) gp.set_noise_diag(noises);
        gp.fit(x, y);
        fixed_gp_ = std::move(gp);
        fixed_rows_ = window_;
      }
      s.gps.push_back(*fixed_gp_);
      break;
    }
    case HyperMode::kMle: {
      gp::MleOptions mle;
      gp::fit_hyperparams_mle(gp, x, y, mle, rng_, noise_ratios);
      s.gps.push_back(std::move(gp));
      break;
    }
    case HyperMode::kSliceSample: {
      const bool windowed = options_.max_observations > 0;
      std::vector<std::size_t> removals;
      std::size_t num_appends = 0;
      // The warm path only engages once an eviction has actually happened:
      // until then the windowed optimizer must stay bit-identical to the
      // unwindowed one, which re-samples the chain on every suggest().
      const bool can_slide = windowed && evictions_ > 0 && warm_.valid &&
                             !warm_.gps.empty() &&
                             window_step(warm_.rows, removals, num_appends);
      if (can_slide && removals.empty() && num_appends == 0) {
        // Unchanged window (repeated suggest() without observe()): the
        // standardized targets are identical, reuse the warm GPs as-is.
        s.gps = warm_.gps;
        break;
      }
      if (can_slide && !removals.empty() &&
          warm_.slides_since_refresh + 1 < options_.hyper_refit_interval) {
        // Incremental slide: each per-sample GP evicts and appends through
        // the O(n²) downdate / rank-grow paths with its hyperparameters
        // held fixed; no MCMC this call.
        for (auto& wg : warm_.gps) {
          slide_gp(wg, warm_.rows, removals, num_appends, s.y_mean,
                   s.y_scale, het, /*sampled_noise=*/true);
        }
        warm_.rows = window_;
        ++warm_.slides_since_refresh;
        s.gps = warm_.gps;
        break;
      }
      gp::HyperSamplerOptions hs;
      hs.num_samples = options_.hyper_samples;
      hs.burn_in = options_.hyper_burn_in;
      hs.thin = 1;
      if (windowed && evictions_ > 0 && warm_.valid &&
          !warm_.chain_theta.empty()) {
        // Warm refresh: resume the chain where the last refresh left it —
        // the posterior moved only as far as the window slid, so a short
        // burn-in re-equilibrates it.
        hs.initial_theta = warm_.chain_theta;
        hs.burn_in = options_.hyper_burn_in_warm;
      }
      const auto samples =
          gp::sample_hyperparams(gp, x, y, hs, rng_, noise_ratios);
      // One refit per retained sample, each an independent O(n³) Cholesky.
      // The copies share the sampler GP's distance cache, so the refits skip
      // the O(n²·d) pairwise loop.
      s.gps.assign(samples.size(), gp);
      for (std::size_t i = 0; i < samples.size(); ++i) {
        gp::apply_hyperparams(s.gps[i], samples[i].theta, x, y, noise_ratios);
      }
      if (windowed) {
        warm_.valid = true;
        warm_.rows = window_;
        warm_.gps = s.gps;
        warm_.chain_theta = samples.back().theta;
        warm_.slides_since_refresh = 0;
      }
      break;
    }
  }
  return s;
}

namespace {

/// Argmax with a lowest-index tie-break.
std::size_t argmax_index(const std::vector<double>& v) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[best]) best = i;
  }
  return best;
}

}  // namespace

std::vector<double> BayesOpt::maximize_acquisition(Surrogate& surrogate) {
  const std::size_t d = space_.dim();
  const std::size_t num_cands = options_.num_candidates;

  // Random multistart with three candidate families:
  //  * global uniform draws (exploration);
  //  * dense Gaussian perturbations of the incumbent (exploitation);
  //  * sparse mutations of the incumbent — resample a few coordinates and
  //    keep the rest. In the 50-100-dimensional hint spaces dense
  //    perturbations barely move and uniform draws never land near the
  //    incumbent, so sparse moves are what make local progress possible.
  //
  // Generation walks a FIXED 16 blocks of rows, block s drawing from its
  // own Rng::stream(base_seed, s): those streams define the candidate set
  // (and the suggest goldens), so they stay even though the blocks run one
  // after another.
  //
  // Scoring is one batch over every candidate: the multi-RHS solve's row
  // length IS the batch size, and short rows starve the rank-update kernels
  // of vector width. A candidate's score does not depend on which batch
  // scored it — the correlation transform is element-wise and a multi-RHS
  // solve column is independent of the other columns in its block (see
  // solve_lower_multi_in_place).
  const BestResult incumbent = best();
  const std::vector<double> inc_u = space_.to_unit(incumbent.x);
  const std::uint64_t base_seed = rng_();
  constexpr std::size_t kGenBlocks = 16;
  const std::size_t gen_blocks = std::min(kGenBlocks, num_cands);
  // Coordinate-major: column c is candidate c, so the distance kernel's
  // lanes load consecutive candidates and the block comes out in the
  // solve's layout.
  Matrix cands(d, num_cands);
  std::vector<double> scores(num_cands);
  for (std::size_t s = 0; s < gen_blocks; ++s) {
    const std::size_t lo = s * num_cands / gen_blocks;
    const std::size_t hi = (s + 1) * num_cands / gen_blocks;
    Rng rng = Rng::stream(base_seed, s);
    for (std::size_t c = lo; c < hi; ++c) {
      switch (c % 4) {
        case 0:
        case 1:
          for (std::size_t j = 0; j < d; ++j) cands(j, c) = rng.uniform();
          break;
        case 2:
          for (std::size_t j = 0; j < d; ++j) {
            cands(j, c) =
                std::clamp(inc_u[j] + rng.normal(0.0, 0.1), 0.0, 1.0);
          }
          break;
        case 3: {
          for (std::size_t j = 0; j < d; ++j) cands(j, c) = inc_u[j];
          const std::size_t mutations = 1 + static_cast<std::size_t>(
              rng.uniform_int(0, std::max<std::int64_t>(
                                     1, static_cast<std::int64_t>(d) / 8)));
          for (std::size_t m = 0; m < mutations; ++m) {
            const auto j = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(d) - 1));
            cands(j, c) = rng.uniform();
          }
          break;
        }
      }
    }
  }
  // One scoring workspace, shared by the multistart pass and every local-
  // search iteration below — scratch buffers warm up once per suggest() and
  // stay warm.
  Surrogate::ScoreScratch scratch;
  surrogate.acquisition(options_, cands, scratch, scores);
  const std::size_t best_idx = argmax_index(scores);
  double best_val = scores[best_idx];
  std::vector<double> best_u(d);
  for (std::size_t j = 0; j < d; ++j) best_u[j] = cands(j, best_idx);

  // Local coordinate refinement around the best candidate: batch-score the
  // 2d-point coordinate neighborhood of the current point each iteration
  // (one batch instead of 2d single-point surrogate calls) and move to its
  // best strict improvement. Neighbour 2j + s moves coordinate j to
  // moved[2j + s] (s = 0 up, s = 1 down); the winner is rebuilt from it.
  double step = 0.1;
  std::vector<double> cur = best_u;
  std::vector<double> moved(2 * d);
  std::vector<double> nb_scores(2 * d);
  for (std::size_t it = 0; it < options_.local_search_iters; ++it) {
    for (std::size_t j = 0; j < d; ++j) {
      moved[2 * j] = std::clamp(cur[j] + step, 0.0, 1.0);
      moved[2 * j + 1] = std::clamp(cur[j] - step, 0.0, 1.0);
    }
    surrogate.acquisition_neighbors(options_, cur, moved, scratch, nb_scores);
    const std::size_t idx = argmax_index(nb_scores);
    if (nb_scores[idx] > best_val) {
      best_val = nb_scores[idx];
      cur[idx / 2] = moved[idx];
      best_u = cur;
    } else {
      step *= 0.5;
      if (step < 1e-3) break;
    }
  }
  return best_u;
}

ParamValues BayesOpt::suggest() {
  if (observations_.empty() ||
      observations_.size() < options_.initial_design) {
    return space_.sample(rng_);
  }
  Surrogate surrogate = fit_surrogate();
  const std::vector<double> u = maximize_acquisition(surrogate);
  return space_.from_unit(u);
}

void BayesOpt::observe(ParamValues x, double y) {
  observe(std::move(x), y, 2);
}

void BayesOpt::observe(ParamValues x, double y, int rung) {
  STORMTUNE_REQUIRE(std::isfinite(y), "BayesOpt::observe: non-finite target");
  STORMTUNE_REQUIRE(rung == 1 || rung == 2,
                    "BayesOpt::observe: rung must be 1 (adaptive DES) or 2 "
                    "(full DES); rung-0 fluid screens stay out of the GP");
  x = space_.canonicalize(std::move(x));
  unit_x_.push_back(space_.to_unit(x));
  // Strict > keeps the earliest of equal maxima, matching the previous
  // full-rescan behaviour.
  if (observations_.empty() || y > observations_[best_index_].y) {
    best_index_ = observations_.size();
  }
  observations_.push_back(Observation{std::move(x), y, rung});
  window_.push_back(observations_.size() - 1);
  if (options_.max_observations > 0 &&
      window_.size() > options_.max_observations) {
    // FIFO with incumbent pinning: evict the oldest windowed observation
    // that is not the incumbent (the incumbent was updated above, so a just-
    // observed new best is already protected). max_observations >= 2
    // guarantees an evictable entry exists.
    std::size_t evict = 0;
    while (evict < window_.size() && window_[evict] == best_index_) ++evict;
    window_.erase(window_.begin() + static_cast<std::ptrdiff_t>(evict));
    ++evictions_;
  }
}

void BayesOpt::set_acquisition_costs(double cost_rung1_ms, double cost_rung2_ms,
                                     double threshold_y) {
  STORMTUNE_REQUIRE(
      cost_rung1_ms <= 0.0 ||
          (std::isfinite(cost_rung1_ms) && std::isfinite(cost_rung2_ms) &&
           cost_rung2_ms >= 0.0 && std::isfinite(threshold_y)),
      "BayesOpt::set_acquisition_costs: non-finite or negative costs");
  acq_cost1_ms_ = cost_rung1_ms;
  acq_cost2_ms_ = cost_rung2_ms;
  acq_threshold_y_ = threshold_y;
}

double BayesOpt::rung_noise(int rung) const {
  if (rung >= 0 &&
      static_cast<std::size_t>(rung) < options_.rung_noise_variance.size()) {
    const double v =
        options_.rung_noise_variance[static_cast<std::size_t>(rung)];
    if (v > 0.0) return v;
  }
  return options_.fixed_noise_variance;
}

BayesOpt::BestResult BayesOpt::best() const {
  STORMTUNE_REQUIRE(!observations_.empty(), "BayesOpt::best: no observations");
  const Observation& ob = observations_[best_index_];
  return BestResult{ob.x, ob.y, best_index_};
}

Json BayesOpt::save_state() const {
  JsonObject o;
  o["space"] = space_.to_json();
  o["options"] = options_.to_json();
  JsonArray obs;
  for (const auto& ob : observations_) {
    JsonObject e;
    JsonArray xs;
    for (double v : ob.x) xs.emplace_back(v);
    e["x"] = Json(std::move(xs));
    e["y"] = ob.y;
    if (ob.rung != 2) e["rung"] = ob.rung;
    obs.emplace_back(std::move(e));
  }
  o["observations"] = Json(std::move(obs));
  return Json(std::move(o));
}

BayesOpt BayesOpt::load_state(const Json& j) {
  ParamSpace space = ParamSpace::from_json(j.at("space"));
  BayesOptOptions options = BayesOptOptions::from_json(j.at("options"));
  BayesOpt opt(std::move(space), options);
  for (const auto& e : j.at("observations").as_array()) {
    ParamValues x;
    for (const auto& v : e.at("x").as_array()) x.push_back(v.as_number());
    // Rung tag absent in states saved before the multi-fidelity ladder
    // existed (and omitted for the default full-fidelity rung 2).
    const int rung =
        e.contains("rung") ? static_cast<int>(e.at("rung").as_int()) : 2;
    opt.observe(std::move(x), e.at("y").as_number(), rung);
  }
  return opt;
}

}  // namespace stormtune::bo
