// Micro-benchmarks (google-benchmark) of the performance-critical kernels:
// the discrete-event engine, Cholesky factorization, GP fitting/prediction,
// acquisition evaluation, and a full optimizer suggestion step. These back
// Figure 7's scalability claims with component-level numbers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "bayesopt/bayesopt.hpp"
#include "common/isa.hpp"
#include "detlint/analyze.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gp/gp_regressor.hpp"
#include "stormsim/engine.hpp"
#include "stormsim/fluid.hpp"
#include "topology/literature.hpp"
#include "topology/sundog.hpp"
#include "topology/synthetic.hpp"
#include "tuning/campaign_scheduler.hpp"
#include "tuning/experiment.hpp"
#include "tuning/fidelity.hpp"
#include "tuning/objective.hpp"
#include "tuning/tuner.hpp"

namespace {

using namespace stormtune;

Matrix random_spd(std::size_t n, Rng& rng) {
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  }
  Matrix a = b.multiply(b.transposed());
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

void BM_Cholesky(benchmark::State& state) {
  // refactor() in the loop, the way the hyperparameter refit path uses it:
  // buffers are allocated once, so this measures the blocked factorization
  // kernel itself, not allocation + first-touch (which the old
  // construct-per-iteration variant was dominated by).
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = random_spd(n, rng);
  Cholesky chol(a);
  double scale = 1.0;
  for (auto _ : state) {
    scale = scale == 1.0 ? 1.5 : 1.0;  // force a genuine refactor each time
    chol.refactor(a, scale, 0.0);
    benchmark::DoNotOptimize(chol.lower_at(n - 1, n - 1));
  }
}
BENCHMARK(BM_Cholesky)->Arg(32)->Arg(64)->Arg(128);

void BM_CholeskyDowndate(benchmark::State& state) {
  // One sliding-window step at constant size n: rotate the oldest row out
  // of the factor (remove_row, the O(n^2) Givens downdate) and rank-grow a
  // fresh row back in (append_row). Window rows are drawn from one large
  // SPD master matrix, so every window is a principal submatrix and always
  // factorizable. Compare against BM_Cholesky at the same n: the pair must
  // stay well under a full refactor, with the downdate itself within ~2x
  // of the append.
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = n + 256;  // master pool; windows wrap around it
  Rng rng(2);
  const Matrix master = random_spd(m, rng);
  std::vector<std::size_t> active(n);
  for (std::size_t i = 0; i < n; ++i) active[i] = i;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = master(i, j);
  }
  Cholesky chol(a);
  chol.reserve(n + 1);
  std::vector<double> b(n);
  for (auto _ : state) {
    chol.remove_row(0);
    active.erase(active.begin());
    const std::size_t next = (active.back() + 1) % m;
    b.resize(n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i) b[i] = master(active[i], next);
    chol.append_row(b, master(next, next));
    active.push_back(next);
    benchmark::DoNotOptimize(chol.lower_at(n - 1, n - 1));
  }
}
BENCHMARK(BM_CholeskyDowndate)->Arg(32)->Arg(64)->Arg(128);

void BM_TriSolveMultiRhs(benchmark::State& state) {
  // Forward + backward multi-RHS substitution over a 120-point factor with
  // range(0) right-hand sides — GpRegressor's chunked prediction kernel.
  const std::size_t n = 120;
  const auto m = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  const Matrix a = random_spd(n, rng);
  const Cholesky chol(a);
  Matrix v(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < m; ++r) v(i, r) = rng.normal();
  }
  Matrix work(n, m);
  for (auto _ : state) {
    work = v;
    chol.solve_lower_multi_in_place(work);
    chol.solve_lower_transpose_multi_in_place(work);
    benchmark::DoNotOptimize(work(n - 1, m - 1));
  }
}
BENCHMARK(BM_TriSolveMultiRhs)->Arg(1)->Arg(16)->Arg(256);

void BM_GpFitAndPredict(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = 10;
  Rng rng(2);
  Matrix x(n, d);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.uniform();
    y[i] = rng.normal();
  }
  gp::Kernel kernel(gp::KernelFamily::kMatern52, d, false);
  gp::GpRegressor gp(kernel, 1e-3);
  std::vector<double> q(d, 0.5);
  for (auto _ : state) {
    gp.fit(x, y);
    benchmark::DoNotOptimize(gp.predict(q));
  }
}
BENCHMARK(BM_GpFitAndPredict)->Arg(30)->Arg(60)->Arg(120);

void BM_GpPredictBatch(benchmark::State& state) {
  // Batched prediction over `range(0)` query points against a 60-point fit:
  // the acquisition search's inner workload. Chunked multi-RHS forward
  // substitution is what makes this faster than per-point predict() calls.
  const std::size_t n = 60;
  const std::size_t d = 51;
  const auto m = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  Matrix x(n, d);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.uniform();
    y[i] = rng.normal();
  }
  gp::Kernel kernel(gp::KernelFamily::kMatern52, d, false);
  gp::GpRegressor gp(kernel, 1e-3);
  gp.fit(x, y);
  Matrix q(m, d);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < d; ++j) q(i, j) = rng.uniform();
  }
  std::vector<gp::Prediction> out;
  for (auto _ : state) {
    gp.predict_batch(q, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GpPredictBatch)->Arg(16)->Arg(256)->Arg(1024);

void BM_GpHyperRefitLoop(benchmark::State& state) {
  // The slice sampler's inner loop: refit the same X/y under a sweep of
  // hyperparameter settings. The layered distance/correlation caches are
  // what this measures — every iteration is a warm refit.
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = 51;
  Rng rng(6);
  Matrix x(n, d);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.uniform();
    y[i] = rng.normal();
  }
  gp::Kernel kernel(gp::KernelFamily::kMatern52, d, false);
  gp::GpRegressor gp(kernel, 1e-3);
  gp.fit(x, y);
  std::vector<double> log_params(kernel.num_hyperparams(), 0.0);
  std::size_t coord = 0;
  for (auto _ : state) {
    // Perturb one coordinate at a time, like a slice-sampling sweep.
    log_params[coord % log_params.size()] = 0.1 * rng.normal();
    ++coord;
    gp.set_kernel_hyperparams(log_params);
    gp.fit(x, y);
    benchmark::DoNotOptimize(gp.log_marginal_likelihood());
  }
}
BENCHMARK(BM_GpHyperRefitLoop)->Arg(30)->Arg(60)->Arg(120);

/// maximize_acquisition in isolation: candidate generation, batched
/// per-GP scoring, and local refinement, with the surrogate held fixed.
/// Measured through suggest() on a kFixed surrogate so no MCMC time is
/// included; the kept-surrogate reuse path makes every suggest after the
/// first skip the fit entirely. 51 dimensions (the medium topology),
/// `observations` random points.
bo::BayesOpt acquisition_search_optimizer(std::size_t observations) {
  const std::size_t dims = 51;
  std::vector<bo::ParamSpec> specs;
  for (std::size_t i = 0; i < dims; ++i) {
    specs.push_back(bo::ParamSpec::integer("h" + std::to_string(i), 1, 20));
  }
  bo::BayesOptOptions opts;
  opts.hyper_mode = bo::HyperMode::kFixed;
  opts.num_candidates = 256;
  opts.seed = 7;
  bo::BayesOpt opt(bo::ParamSpace(specs), opts);
  Rng rng(8);
  for (std::size_t i = 0; i < observations; ++i) {
    auto x = opt.space().sample(rng);
    opt.observe(std::move(x), rng.normal());
  }
  return opt;
}

void BM_AcquisitionSearch(benchmark::State& state) {
  bo::BayesOpt opt =
      acquisition_search_optimizer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.suggest());
  }
}
BENCHMARK(BM_AcquisitionSearch)->Arg(60)->Unit(benchmark::kMillisecond);

/// A GP over `n` random points in the 51-dimensional unit cube and a
/// coordinate-major block of `m` random candidates (one per column) — the
/// acquisition's distance-block inputs.
struct CandidateBlock {
  gp::GpRegressor gp;
  Matrix cands;
};

CandidateBlock candidate_block(std::size_t n, std::size_t m) {
  const std::size_t d = 51;
  Rng rng(12);
  Matrix x(n, d);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.uniform();
    y[i] = rng.normal();
  }
  gp::GpRegressor gp(gp::Kernel(gp::KernelFamily::kMatern52, d, false), 1e-3);
  gp.fit(x, y);
  Matrix cands(d, m);
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t c = 0; c < m; ++c) cands(j, c) = rng.uniform();
  }
  return {std::move(gp), std::move(cands)};
}

void BM_CandidateSqDist(benchmark::State& state) {
  // The acquisition's candidate distance block alone: range(0) training
  // points against 512 candidates in 51 dimensions, through the selected
  // sq_dist_block path.
  const CandidateBlock b =
      candidate_block(static_cast<std::size_t>(state.range(0)), 512);
  Matrix d2;
  for (auto _ : state) {
    b.gp.unscaled_sq_dists(b.cands, d2);
    benchmark::DoNotOptimize(d2.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CandidateSqDist)->Arg(30)->Arg(60);

void BM_AcquisitionBatch(benchmark::State& state) {
  // The per-batch acquisition accumulation in isolation: one
  // acquisition_accumulate call over a 256-candidate mean/variance batch
  // (the surrogate's per-GP scoring step), for each acquisition kind via
  // range(0). This is the loop the batched-scoring rework hoisted the
  // per-candidate kind dispatch out of.
  const auto kind = static_cast<bo::AcquisitionKind>(state.range(0));
  const std::size_t m = 256;
  Rng rng(11);
  std::vector<double> means(m), vars(m), acc(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    means[i] = rng.normal();
    vars[i] = 0.5 + rng.uniform();
  }
  for (auto _ : state) {
    bo::acquisition_accumulate(kind, means, vars, 0.8, 0.0, 2.0, acc);
    benchmark::DoNotOptimize(acc.data());
  }
}
BENCHMARK(BM_AcquisitionBatch)->Arg(0)->Arg(1)->Arg(2);

topo::TopologySize size_for_vertices(std::int64_t vertices) {
  switch (vertices) {
    case 10: return topo::TopologySize::kSmall;
    case 50: return topo::TopologySize::kMedium;
    default: return topo::TopologySize::kLarge;
  }
}

void BM_Simulate(benchmark::State& state) {
  // One 15 s objective evaluation on the paper's 10/50/100-vertex
  // synthetic topologies — the unit of work every campaign repeats
  // passes x steps x repetitions times.
  topo::SyntheticSpec spec;
  spec.size = size_for_vertices(state.range(0));
  const sim::Topology topology = topo::build_synthetic(spec);
  sim::SimParams params = topo::synthetic_sim_params();
  params.duration_s = 15.0;
  const sim::TopologyConfig config = sim::uniform_hint_config(topology, 8);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto r = sim::simulate(topology, config, topo::paper_cluster(),
                                 params, seed++);
    benchmark::DoNotOptimize(r.throughput_tuples_per_s);
  }
}
BENCHMARK(BM_Simulate)->Arg(10)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_EngineSundogRun(benchmark::State& state) {
  const sim::Topology topology = topo::build_sundog();
  sim::SimParams params = topo::sundog_sim_params();
  params.duration_s = 15.0;
  const auto config = topo::sundog_baseline_config(topology);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto r = sim::simulate(topology, config, topo::sundog_cluster(),
                                 params, seed++);
    benchmark::DoNotOptimize(r.batches_committed);
  }
}
BENCHMARK(BM_EngineSundogRun)->Unit(benchmark::kMillisecond);

void BM_Campaign(benchmark::State& state) {
  // A reduced-scale run_campaign (2 passes of random search on the medium
  // topology plus best-config repetitions) over a pool of range(0) threads
  // (0 = auto). Random search keeps BO out of the loop, so this measures
  // the engine + experiment driver + pool, i.e. what the parallel campaign
  // path actually buys. The result is bit-identical for any thread count.
  const std::size_t threads = state.range(0) > 0
                                  ? static_cast<std::size_t>(state.range(0))
                                  : ThreadPool::default_thread_count();
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kMedium;
  const sim::Topology topology = topo::build_synthetic(spec);
  sim::SimParams params = topo::synthetic_sim_params();
  params.duration_s = 5.0;
  sim::TopologyConfig defaults = sim::uniform_hint_config(topology, 4);
  tuning::SpaceOptions sopts;
  sopts.hint_max = 20;
  tuning::ExperimentOptions eopts;
  eopts.max_steps = 6;
  eopts.best_config_reps = 8;
  for (auto _ : state) {
    ThreadPool pool(threads);
    const auto best = tuning::run_campaign(
        [&](std::size_t pass) -> std::unique_ptr<tuning::Tuner> {
          return std::make_unique<tuning::RandomTuner>(
              tuning::ConfigSpace(topology, sopts, defaults), 101 + pass);
        },
        [&](std::size_t pass) -> std::unique_ptr<tuning::Objective> {
          return std::make_unique<tuning::SimObjective>(
              topology, topo::paper_cluster(), params, 7 + pass * 7919);
        },
        eopts, 2, pool);
    benchmark::DoNotOptimize(best.best_rep_stats.mean);
  }
}
BENCHMARK(BM_Campaign)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_ObjectiveRepeat(benchmark::State& state) {
  // Repeated simulations through ONE long-lived Simulator, at a fresh seed
  // each — what a SimObjective runs for every evaluation that does not
  // replay its incumbent, the campaign driver's steady state. (Repeating
  // one config through a SimObjective would replay it after the first
  // run.) The persistent workspace makes every run after the first
  // allocation-free; contrast with BM_Simulate, whose free simulate()
  // calls rebuild the workspace each time.
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kMedium;
  const sim::Topology topology = topo::build_synthetic(spec);
  sim::SimParams params = topo::synthetic_sim_params();
  params.duration_s = 5.0;
  const sim::TopologyConfig config = sim::uniform_hint_config(topology, 8);
  const sim::ClusterSpec cluster = topo::paper_cluster();
  sim::Simulator simulator;
  std::uint64_t seed = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simulator.run(topology, config, cluster, params, ++seed));
  }
}
BENCHMARK(BM_ObjectiveRepeat)->Unit(benchmark::kMillisecond);

/// The Figure-5-shaped campaign workload shared by BM_CampaignEndToEnd and
/// the BENCH_campaign.json record: passes x steps x best-config
/// repetitions of the small paper topology through the pooled campaign
/// driver, with random search so evaluation (not suggestion) dominates.
/// Short measurement windows on a small topology put the workload in the
/// regime campaigns actually live in — many cheap evaluations, where the
/// per-evaluation fixed cost (deployment build, allocation churn) is the
/// bottleneck the reusable workspaces remove.
double run_campaign_workload(const sim::Topology& topology,
                             std::size_t threads) {
  sim::SimParams params = topo::synthetic_sim_params();
  params.duration_s = 2.0;
  sim::TopologyConfig defaults = sim::uniform_hint_config(topology, 4);
  // 50-tuple batches: at bench-scale windows the small topology's default
  // 200-tuple batches never commit (see tests/test_adaptive_window.cpp).
  defaults.batch_size = 50;
  tuning::SpaceOptions sopts;
  sopts.hint_max = 8;
  tuning::ExperimentOptions eopts;
  eopts.max_steps = 10;
  // best_config_reps stays at the paper's protocol (30 re-runs of the best
  // configuration per pass) — the repetition phase is where campaigns spend
  // most of their evaluations.
  ThreadPool pool(threads);
  const auto best = tuning::run_campaign(
      [&](std::size_t pass) -> std::unique_ptr<tuning::Tuner> {
        return std::make_unique<tuning::RandomTuner>(
            tuning::ConfigSpace(topology, sopts, defaults), 101 + pass);
      },
      [&](std::size_t pass) -> std::unique_ptr<tuning::Objective> {
        return std::make_unique<tuning::SimObjective>(
            topology, topo::paper_cluster(), params, 7 + pass * 7919);
      },
      eopts, 2, pool);
  return best.best_rep_stats.mean;
}

void BM_CampaignEndToEnd(benchmark::State& state) {
  // Full campaign evaluation path (2 passes x 10 random steps x 30 reps on
  // the small topology, 2 s windows) over range(0) pool threads (0 =
  // auto). Workspace reuse — SimObjective's persistent simulator plus the
  // driver's per-worker-slot clone cache — is what this measures.
  const std::size_t threads = state.range(0) > 0
                                  ? static_cast<std::size_t>(state.range(0))
                                  : ThreadPool::default_thread_count();
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kSmall;
  const sim::Topology topology = topo::build_synthetic(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_campaign_workload(topology, threads));
  }
}
BENCHMARK(BM_CampaignEndToEnd)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

/// The multi-campaign scheduler workload: `campaigns` independent
/// reduced-scale campaigns (2 passes x 6 random steps x 8 reps each, 1 s
/// windows on the small topology) multiplexed over a work-stealing pool of
/// `threads` workers. Aggregate throughput across campaigns is the number
/// that matters — per-campaign results are bit-identical to solo runs for
/// any thread count, so the sum is too.
double run_multi_campaign_workload(const sim::Topology& topology,
                                   std::size_t campaigns,
                                   std::size_t threads,
                                   std::uint64_t* steals = nullptr) {
  sim::SimParams params = topo::synthetic_sim_params();
  params.duration_s = 1.0;
  sim::TopologyConfig defaults = sim::uniform_hint_config(topology, 4);
  defaults.batch_size = 50;
  tuning::SpaceOptions sopts;
  sopts.hint_max = 8;
  std::vector<tuning::CampaignSpec> specs(campaigns);
  for (std::size_t c = 0; c < campaigns; ++c) {
    tuning::CampaignSpec& spec = specs[c];
    spec.name = "c" + std::to_string(c);
    spec.passes = 2;
    spec.options.max_steps = 6;
    spec.options.best_config_reps = 8;
    spec.make_tuner =
        [&topology, &sopts, &defaults, c](std::size_t pass)
        -> std::unique_ptr<tuning::Tuner> {
      return std::make_unique<tuning::RandomTuner>(
          tuning::ConfigSpace(topology, sopts, defaults),
          101 + c * 131 + pass);
    };
    spec.make_objective =
        [&topology, params, c](std::size_t pass)
        -> std::unique_ptr<tuning::Objective> {
      return std::make_unique<tuning::SimObjective>(
          topology, topo::paper_cluster(), params,
          7 + c * 263 + pass * 7919);
    };
  }
  tuning::CampaignSchedulerOptions opts;
  opts.num_threads = threads;
  const auto out = tuning::run_campaigns(specs, opts);
  if (steals != nullptr) *steals = out.steal_count;
  double sum = 0.0;
  for (const auto& r : out.results) sum += r.best_rep_stats.mean;
  return sum;
}

void BM_MultiCampaign(benchmark::State& state) {
  // 8 concurrent campaigns over range(0) scheduler threads; Arg(1) is the
  // serial baseline the >=3x-at-8-threads aggregate-throughput target is
  // measured against (the campaigns are fully independent, so the speedup
  // tracks available cores — a single-core host shows ~1x plus the steal
  // overhead). Results are bit-identical across the args.
  const auto threads = static_cast<std::size_t>(state.range(0));
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kSmall;
  const sim::Topology topology = topo::build_synthetic(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_multi_campaign_workload(topology, 8,
                                                         threads));
  }
}
BENCHMARK(BM_MultiCampaign)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_FluidEstimate(benchmark::State& state) {
  // The rung-0 screen of the fidelity ladder: one closed-form fluid bound
  // through a persistent workspace (allocation-free after warm-up), over
  // the three synthetic topology sizes.
  topo::SyntheticSpec spec;
  spec.size = size_for_vertices(state.range(0));
  const sim::Topology topology = topo::build_synthetic(spec);
  const sim::SimParams params = topo::synthetic_sim_params();
  const sim::ClusterSpec cluster = topo::paper_cluster();
  sim::TopologyConfig config = sim::uniform_hint_config(topology, 4);
  config.batch_size = 50;
  sim::FluidWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::fluid_estimate(topology, config, cluster, params, ws)
            .throughput_tuples_per_s);
  }
}
BENCHMARK(BM_FluidEstimate)->Arg(10)->Arg(50)->Arg(100);

/// The fidelity-comparison workload: `steps` Bayesian-optimization
/// iterations on the medium paper topology with the paper's full 120 s
/// measurement windows, fixed GP hyperparameters, and a single best-config
/// repetition — the regime where evaluation cost dominates (as on a real
/// cluster, where one measurement takes minutes) and the ladder's
/// shortened rung-1 windows pay off. Campaign length matters: the first
/// escalations (building an incumbent) are paid up front, so the ladder's
/// advantage grows with step count — 64 steps matches the paper's
/// 60-100-iteration Spearmint protocol.
/// `ladder` switches the evaluation side between a plain full-fidelity
/// objective and the multi-fidelity ladder.
double run_fidelity_workload(const sim::Topology& topology, bool ladder,
                             std::size_t steps) {
  const sim::SimParams params = topo::synthetic_sim_params();
  sim::TopologyConfig defaults = sim::uniform_hint_config(topology, 4);
  defaults.batch_size = 50;
  tuning::SpaceOptions sopts;
  sopts.hint_max = 8;
  bo::BayesOptOptions bopts;
  bopts.seed = 5;
  bopts.hyper_mode = bo::HyperMode::kFixed;
  tuning::ExperimentOptions eopts;
  eopts.max_steps = steps;
  eopts.best_config_reps = 1;
  if (ladder) {
    auto l = std::make_shared<tuning::FidelityLadder>(
        topology, topo::paper_cluster(), params, 7);
    tuning::LadderTuner tuner(tuning::ConfigSpace(topology, sopts, defaults),
                              bopts, l);
    return tuning::run_experiment(tuner, *l, eopts).best_throughput;
  }
  tuning::BayesTuner tuner(tuning::ConfigSpace(topology, sopts, defaults),
                           bopts, "bo");
  tuning::SimObjective objective(topology, topo::paper_cluster(), params, 7);
  return tuning::run_experiment(tuner, objective, eopts).best_throughput;
}

void BM_FidelityLadder(benchmark::State& state) {
  // range(0): 0 = full-fidelity baseline, 1 = multi-fidelity ladder. The
  // evals/s acceptance target (ladder >= 5x full) compares these two rows;
  // the BENCH_campaign.json fidelity section records the same pair.
  const bool ladder = state.range(0) == 1;
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kMedium;
  const sim::Topology topology = topo::build_synthetic(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_fidelity_workload(topology, ladder, 64));
  }
}
BENCHMARK(BM_FidelityLadder)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_BayesOptSuggest(benchmark::State& state) {
  // Figure 7's unit of work: one suggestion given `range(0)`-many
  // observations in a 51-dimensional space (the medium topology).
  const std::size_t dims = 51;
  std::vector<bo::ParamSpec> specs;
  for (std::size_t i = 0; i < dims; ++i) {
    specs.push_back(bo::ParamSpec::integer("h" + std::to_string(i), 1, 20));
  }
  bo::BayesOptOptions opts;
  opts.hyper_mode = bo::HyperMode::kSliceSample;
  opts.hyper_samples = 3;
  opts.hyper_burn_in = 5;
  opts.num_candidates = 256;
  opts.seed = 3;
  bo::BayesOpt opt(bo::ParamSpace(specs), opts);
  Rng rng(4);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    auto x = opt.space().sample(rng);
    opt.observe(std::move(x), rng.normal());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.suggest());
  }
}
BENCHMARK(BM_BayesOptSuggest)->Arg(10)->Arg(30)->Arg(60)
    ->Unit(benchmark::kMillisecond);

void BM_SlidingWindowSuggest(benchmark::State& state) {
  // BM_BayesOptSuggest with a bounded observation window: range(0) is the
  // total history length, the surrogate window stays at 60, so per-step
  // cost must be flat from 60 to 500 (unwindowed suggest grows with n³).
  // Each iteration observes one new point and then suggests, so the
  // steady-state eviction + incremental slide + warm hyper-refit path is
  // what gets measured, not a cached no-op re-suggest.
  const std::size_t dims = 51;
  std::vector<bo::ParamSpec> specs;
  for (std::size_t i = 0; i < dims; ++i) {
    specs.push_back(bo::ParamSpec::integer("h" + std::to_string(i), 1, 20));
  }
  bo::BayesOptOptions opts;
  opts.hyper_mode = bo::HyperMode::kSliceSample;
  opts.hyper_samples = 3;
  opts.hyper_burn_in = 5;
  opts.num_candidates = 256;
  opts.seed = 3;
  opts.max_observations = 60;
  bo::BayesOpt opt(bo::ParamSpace(specs), opts);
  Rng rng(4);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    auto x = opt.space().sample(rng);
    opt.observe(std::move(x), rng.normal());
  }
  for (auto _ : state) {
    auto x = opt.space().sample(rng);
    opt.observe(std::move(x), rng.normal());
    benchmark::DoNotOptimize(opt.suggest());
  }
}
BENCHMARK(BM_SlidingWindowSuggest)->Arg(60)->Arg(150)->Arg(500)
    ->Unit(benchmark::kMillisecond);

void BM_DetlintAnalyze(benchmark::State& state) {
  // Lint-cost guard: detlint v2 runs in CI on every push, so full-tree
  // analysis (lex + function extraction + call graph + all rule families
  // over src/ and tools/) must stay interactive. The 10 s ceiling is
  // generous — the analysis takes well under a second — so only a
  // complexity regression (e.g. the call-graph walk going superlinear)
  // trips it, not machine noise.
  detlint::AnalyzeOptions options;
  options.root = STORMTUNE_SOURCE_DIR;
  options.paths = {"src", "tools"};
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    detlint::Analysis analysis = detlint::analyze_tree(options);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (analysis.tus.size() < 50) {
      state.SkipWithError("detlint analyzed suspiciously few files");
      break;
    }
    if (seconds > 10.0) {
      state.SkipWithError("detlint full-tree analysis exceeded 10 s");
      break;
    }
    benchmark::DoNotOptimize(analysis.findings.data());
  }
}
BENCHMARK(BM_DetlintAnalyze)->Unit(benchmark::kMillisecond);

/// The 1-minute load average, or -1 when unavailable: the host stamp of the
/// wall-clock records below.
double load1() {
  double load[1] = {-1.0};
  if (getloadavg(load, 1) != 1) return -1.0;
  return load[0];
}

/// Median of three timed repetitions of `body(iters)`, in µs per op.
template <typename F>
double median3_us_per_op(std::size_t iters, F&& body) {
  double reps[3];
  for (double& r : reps) {
    const auto t0 = std::chrono::steady_clock::now();
    body(iters);
    const auto t1 = std::chrono::steady_clock::now();
    r = std::chrono::duration<double, std::micro>(t1 - t0).count() /
        static_cast<double>(iters);
  }
  std::sort(reps, reps + 3);
  return reps[1];
}

/// Median of three repetitions of `iters` fresh-workspace simulate() calls,
/// in ms per run, after one warm-up run that keeps first-touch page faults
/// out of the record.
double time_simulate_ms(const sim::Topology& topology,
                        const sim::TopologyConfig& config,
                        const sim::ClusterSpec& cluster,
                        const sim::SimParams& params, std::size_t iters) {
  std::uint64_t seed = 1;
  sim::simulate(topology, config, cluster, params, seed++);
  return median3_us_per_op(iters, [&](std::size_t n) {
           for (std::size_t i = 0; i < n; ++i) {
             const auto r =
                 sim::simulate(topology, config, cluster, params, seed++);
             benchmark::DoNotOptimize(r.throughput_tuples_per_s);
           }
         }) *
         1e-3;
}

/// Timing record of the simulate workloads, written next to the benchmark
/// output so the perf trajectory is tracked from PR 2 onward (compare the
/// file across commits).
void write_simulate_record(const std::string& path) {
  JsonObject workloads;
  for (const std::int64_t vertices : {10, 50, 100}) {
    topo::SyntheticSpec spec;
    spec.size = size_for_vertices(vertices);
    const sim::Topology topology = topo::build_synthetic(spec);
    sim::SimParams params = topo::synthetic_sim_params();
    params.duration_s = 15.0;
    const std::size_t iters = vertices <= 10 ? 40 : 8;
    workloads["simulate/" + std::to_string(vertices)] =
        time_simulate_ms(topology, sim::uniform_hint_config(topology, 8),
                         topo::paper_cluster(), params, iters);
  }
  {
    const sim::Topology topology = topo::build_sundog();
    sim::SimParams params = topo::sundog_sim_params();
    params.duration_s = 15.0;
    workloads["simulate/sundog"] =
        time_simulate_ms(topology, topo::sundog_baseline_config(topology),
                         topo::sundog_cluster(), params, 4);
  }
  // The literature topologies keep only 16-23 machines in the departure
  // heap, where structures tuned for ~60 lose (DESIGN.md §8); their rows
  // guard that end. Batch size 1000 is the CLI default for them.
  const std::pair<const char*, sim::Topology (*)()> literature[] = {
      {"debs13", topo::build_debs13},
      {"linear_road_compact", topo::build_linear_road_compact}};
  for (const auto& [name, build] : literature) {
    const sim::Topology topology = build();
    sim::SimParams params = topo::synthetic_sim_params();
    params.duration_s = 15.0;
    sim::TopologyConfig config = sim::uniform_hint_config(topology, 8);
    config.batch_size = 1000;
    workloads[std::string("simulate/") + name] = time_simulate_ms(
        topology, config, topo::paper_cluster(), params, 40);
  }
  // Host stamp: these are wall-clock medians on a possibly shared machine.
  const double load = load1();
  JsonObject record;
  record["benchmark"] = "simulate";
  record["unit"] = "ms_per_run";
  record["statistic"] = "median_of_3_reps";
  record["isa"] = isa::to_string(isa::selected());
  record["nproc"] =
      static_cast<std::size_t>(std::thread::hardware_concurrency());
  record["load1"] = load;
  record["window_s"] = 15.0;
  record["workloads"] = std::move(workloads);
  std::ofstream out(path);
  out << Json(std::move(record)).dump(2) << '\n';
  std::printf("wrote %s\n", path.c_str());
}

/// Timing record of the GP / linear-algebra workloads (the PR-3 kernel
/// overhaul), written next to BENCH_simulate.json with the same purpose:
/// compare the file across commits to track the perf trajectory. All values
/// are medians of 3 repetitions, in µs per operation.
void write_gp_record(const std::string& path) {
  JsonObject workloads;
  Rng rng(1);
  for (const std::size_t n : {32ul, 64ul, 128ul}) {
    const Matrix a = random_spd(n, rng);
    Cholesky chol(a);
    workloads["cholesky_refactor/" + std::to_string(n)] =
        median3_us_per_op(200000 / (n * n / 64), [&](std::size_t iters) {
          double scale = 1.0;
          for (std::size_t i = 0; i < iters; ++i) {
            scale = scale == 1.0 ? 1.5 : 1.0;
            chol.refactor(a, scale, 0.0);
          }
          benchmark::DoNotOptimize(chol.lower_at(n - 1, n - 1));
        });
  }
  for (const std::size_t n : {32ul, 64ul, 128ul}) {
    // One sliding-window step (Givens downdate + rank-grow append) at
    // constant n — the BM_CholeskyDowndate workload.
    const std::size_t m = n + 256;
    Rng drng(2);
    const Matrix master = random_spd(m, drng);
    std::vector<std::size_t> active(n);
    for (std::size_t i = 0; i < n; ++i) active[i] = i;
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) a(i, j) = master(i, j);
    }
    Cholesky chol(a);
    chol.reserve(n + 1);
    std::vector<double> b(n);
    workloads["cholesky_downdate/" + std::to_string(n)] =
        median3_us_per_op(200000 / (n * n / 64), [&](std::size_t iters) {
          for (std::size_t i = 0; i < iters; ++i) {
            chol.remove_row(0);
            active.erase(active.begin());
            const std::size_t next = (active.back() + 1) % m;
            b.resize(n - 1);
            for (std::size_t k = 0; k + 1 < n; ++k) {
              b[k] = master(active[k], next);
            }
            chol.append_row(b, master(next, next));
            active.push_back(next);
          }
          benchmark::DoNotOptimize(chol.lower_at(n - 1, n - 1));
        });
  }
  {
    const std::size_t n = 120, m = 256;
    const Matrix a = random_spd(n, rng);
    const Cholesky chol(a);
    Matrix v(n, m);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t r = 0; r < m; ++r) v(i, r) = rng.normal();
    }
    Matrix work(n, m);
    workloads["tri_solve_multi/120x256"] =
        median3_us_per_op(300, [&](std::size_t iters) {
          for (std::size_t i = 0; i < iters; ++i) {
            work = v;
            chol.solve_lower_multi_in_place(work);
            chol.solve_lower_transpose_multi_in_place(work);
          }
          benchmark::DoNotOptimize(work(n - 1, m - 1));
        });
  }
  for (const std::size_t n : {30ul, 60ul, 120ul}) {
    const std::size_t d = 51;
    Rng grng(6);
    Matrix x(n, d);
    Vector y(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < d; ++j) x(i, j) = grng.uniform();
      y[i] = grng.normal();
    }
    gp::Kernel kernel(gp::KernelFamily::kMatern52, d, false);
    gp::GpRegressor gp(kernel, 1e-3);
    gp.fit(x, y);
    std::vector<double> log_params(kernel.num_hyperparams(), 0.0);
    std::size_t coord = 0;
    workloads["gp_hyper_refit/" + std::to_string(n)] =
        median3_us_per_op(48000 / n, [&](std::size_t iters) {
          for (std::size_t i = 0; i < iters; ++i) {
            log_params[coord % log_params.size()] = 0.1 * grng.normal();
            ++coord;
            gp.set_kernel_hyperparams(log_params);
            gp.fit(x, y);
            benchmark::DoNotOptimize(gp.log_marginal_likelihood());
          }
        });
  }
  {
    const std::size_t dims = 51;
    std::vector<bo::ParamSpec> specs;
    for (std::size_t i = 0; i < dims; ++i) {
      specs.push_back(bo::ParamSpec::integer("h" + std::to_string(i), 1, 20));
    }
    bo::BayesOptOptions opts;
    opts.hyper_mode = bo::HyperMode::kSliceSample;
    opts.hyper_samples = 3;
    opts.hyper_burn_in = 5;
    opts.num_candidates = 256;
    opts.seed = 3;
    bo::BayesOpt opt(bo::ParamSpace(specs), opts);
    Rng orng(4);
    for (std::size_t i = 0; i < 60; ++i) {
      auto xs = opt.space().sample(orng);
      opt.observe(std::move(xs), orng.normal());
    }
    benchmark::DoNotOptimize(opt.suggest());  // warm-up
    workloads["bayesopt_suggest/60"] =
        median3_us_per_op(3, [&](std::size_t iters) {
          for (std::size_t i = 0; i < iters; ++i) {
            benchmark::DoNotOptimize(opt.suggest());
          }
        });
  }
  {
    bo::BayesOpt opt = acquisition_search_optimizer(60);
    benchmark::DoNotOptimize(opt.suggest());  // warm-up: fits the surrogate
    workloads["acquisition_search/60"] =
        median3_us_per_op(20, [&](std::size_t iters) {
          for (std::size_t i = 0; i < iters; ++i) {
            benchmark::DoNotOptimize(opt.suggest());
          }
        });
  }
  {
    const CandidateBlock b = candidate_block(60, 512);
    Matrix d2;
    b.gp.unscaled_sq_dists(b.cands, d2);  // warm-up: sizes the block
    workloads["candidate_sq_dist/60x512"] =
        median3_us_per_op(400, [&](std::size_t iters) {
          for (std::size_t i = 0; i < iters; ++i) {
            b.gp.unscaled_sq_dists(b.cands, d2);
            benchmark::DoNotOptimize(d2.data());
          }
        });
  }
  for (const std::size_t history : {150ul, 500ul}) {
    // Windowed observe+suggest at a fixed 60-point window over a growing
    // history — the BM_SlidingWindowSuggest workload. The two rows must
    // stay flat relative to each other (and comparable to the unwindowed
    // bayesopt_suggest/60 row) regardless of history length.
    const std::size_t dims = 51;
    std::vector<bo::ParamSpec> specs;
    for (std::size_t i = 0; i < dims; ++i) {
      specs.push_back(bo::ParamSpec::integer("h" + std::to_string(i), 1, 20));
    }
    bo::BayesOptOptions opts;
    opts.hyper_mode = bo::HyperMode::kSliceSample;
    opts.hyper_samples = 3;
    opts.hyper_burn_in = 5;
    opts.num_candidates = 256;
    opts.seed = 3;
    opts.max_observations = 60;
    bo::BayesOpt opt(bo::ParamSpace(specs), opts);
    Rng orng(4);
    for (std::size_t i = 0; i < history; ++i) {
      auto xs = opt.space().sample(orng);
      opt.observe(std::move(xs), orng.normal());
    }
    benchmark::DoNotOptimize(opt.suggest());  // warm-up
    workloads["windowed_suggest/60@" + std::to_string(history)] =
        median3_us_per_op(3, [&](std::size_t iters) {
          for (std::size_t i = 0; i < iters; ++i) {
            auto xs = opt.space().sample(orng);
            opt.observe(std::move(xs), orng.normal());
            benchmark::DoNotOptimize(opt.suggest());
          }
        });
  }
  JsonObject record;
  record["benchmark"] = "gp";
  record["unit"] = "us_per_op";
  record["statistic"] = "median_of_3_reps";
  record["isa"] = isa::to_string(isa::selected());
  record["nproc"] =
      static_cast<std::size_t>(std::thread::hardware_concurrency());
  record["load1"] = load1();
  record["workloads"] = std::move(workloads);
  std::ofstream out(path);
  out << Json(std::move(record)).dump(2) << '\n';
  std::printf("wrote %s\n", path.c_str());
}

/// Timing record of the campaign-scale evaluation path (the PR-4 workspace
/// overhaul), same contract as the other records: compare the file across
/// commits. Medians of 3 repetitions, µs per operation (one operation =
/// one objective evaluation / one full campaign).
void write_campaign_record(const std::string& path) {
  JsonObject workloads;
  // Thread counts and campaign counts per workload: multi-thread rows are
  // meaningless without them (the same workload at 1 and 8 threads is two
  // different measurements of the same computation).
  JsonObject workload_meta;
  auto meta = [](std::size_t threads, std::size_t campaigns) {
    JsonObject m;
    m["threads"] = threads;
    m["campaigns"] = campaigns;
    return Json(std::move(m));
  };
  {
    topo::SyntheticSpec spec;
    spec.size = topo::TopologySize::kMedium;
    const sim::Topology topology = topo::build_synthetic(spec);
    sim::SimParams params = topo::synthetic_sim_params();
    params.duration_s = 5.0;
    const sim::TopologyConfig config = sim::uniform_hint_config(topology, 8);
    const sim::ClusterSpec cluster = topo::paper_cluster();
    // Simulations, not SimObjective evaluations: see BM_ObjectiveRepeat.
    sim::Simulator simulator;
    std::uint64_t seed = 7;
    auto simulate_once = [&] {
      benchmark::DoNotOptimize(
          simulator.run(topology, config, cluster, params, ++seed));
    };
    simulate_once();  // warm-up
    workloads["objective_repeat/medium"] =
        median3_us_per_op(40, [&](std::size_t iters) {
          for (std::size_t i = 0; i < iters; ++i) simulate_once();
        });
    workload_meta["objective_repeat/medium"] = meta(1, 1);
  }
  {
    topo::SyntheticSpec spec;
    spec.size = topo::TopologySize::kSmall;
    const sim::Topology topology = topo::build_synthetic(spec);
    workloads["campaign_end_to_end/small"] =
        median3_us_per_op(3, [&](std::size_t iters) {
          for (std::size_t i = 0; i < iters; ++i) {
            benchmark::DoNotOptimize(run_campaign_workload(topology, 1));
          }
        });
    workload_meta["campaign_end_to_end/small"] = meta(1, 1);
    // The multi-campaign scheduler at serial and 8-wide settings. The
    // aggregate-throughput speedup target (>=3x at 8 threads) compares
    // these two rows; the steal counter is recorded so a zero-steal run
    // (e.g. a single-core host pinning everything to worker 0's deque
    // until it parks) is visible in the record.
    for (const std::size_t threads : {1ul, 8ul}) {
      std::uint64_t steals = 0;
      const std::string key =
          "multi_campaign/8x" + std::to_string(threads);
      workloads[key] = median3_us_per_op(1, [&](std::size_t iters) {
        for (std::size_t i = 0; i < iters; ++i) {
          benchmark::DoNotOptimize(
              run_multi_campaign_workload(topology, 8, threads, &steals));
        }
      });
      Json m = meta(threads, 8);
      m.as_object()["steals"] = steals;
      workload_meta[key] = std::move(m);
    }
    // Multi-fidelity ladder against the full-fidelity baseline: the same
    // 64-step BO campaign (medium topology, the paper's full 120 s
    // windows, fixed hyperparameters) evaluated through a plain
    // SimObjective versus the fluid-screen -> adaptive-rung-1 -> full-DES
    // ladder. The evals-per-second acceptance target (ladder >= 5x full)
    // is the ratio of these two rows; the fidelity tag in workload_meta
    // keeps baseline tooling from comparing them against each other by
    // accident.
    topo::SyntheticSpec medium_spec;
    medium_spec.size = topo::TopologySize::kMedium;
    const sim::Topology medium = topo::build_synthetic(medium_spec);
    for (const bool ladder : {false, true}) {
      const std::string key =
          ladder ? "bo_campaign/ladder" : "bo_campaign/full";
      workloads[key] = median3_us_per_op(1, [&](std::size_t iters) {
        for (std::size_t i = 0; i < iters; ++i) {
          benchmark::DoNotOptimize(
              run_fidelity_workload(medium, ladder, 64));
        }
      });
      Json m = meta(1, 1);
      m.as_object()["fidelity"] = ladder ? "ladder" : "full";
      m.as_object()["bo_steps"] = 64;
      workload_meta[key] = std::move(m);
    }
  }
  JsonObject record;
  record["benchmark"] = "campaign";
  record["unit"] = "us_per_op";
  record["statistic"] = "median_of_3_reps";
  record["isa"] = isa::to_string(isa::selected());
  record["workloads"] = std::move(workloads);
  record["workload_meta"] = std::move(workload_meta);
  std::ofstream out(path);
  out << Json(std::move(record)).dump(2) << '\n';
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our own flags before google-benchmark sees the command line.
  std::string simulate_json = "BENCH_simulate.json";
  std::string gp_json = "BENCH_gp.json";
  std::string campaign_json = "BENCH_campaign.json";
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kSimFlag = "--simulate-json=";
    constexpr const char* kGpFlag = "--gp-json=";
    constexpr const char* kCampaignFlag = "--campaign-json=";
    if (std::strncmp(argv[i], kSimFlag, std::strlen(kSimFlag)) == 0) {
      simulate_json = argv[i] + std::strlen(kSimFlag);
    } else if (std::strncmp(argv[i], kGpFlag, std::strlen(kGpFlag)) == 0) {
      gp_json = argv[i] + std::strlen(kGpFlag);
    } else if (std::strncmp(argv[i], kCampaignFlag,
                            std::strlen(kCampaignFlag)) == 0) {
      campaign_json = argv[i] + std::strlen(kCampaignFlag);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  // The selected kernel path changes every GP/linalg number below, so it
  // belongs in the visible provenance of a run (the JSON records carry it
  // too).
  std::printf("stormtune isa path: %s\n",
              stormtune::isa::to_string(stormtune::isa::selected()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!simulate_json.empty()) write_simulate_record(simulate_json);
  if (!gp_json.empty()) write_gp_record(gp_json);
  if (!campaign_json.empty()) write_campaign_record(campaign_json);
  return 0;
}
