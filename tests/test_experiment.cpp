#include "tuning/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/error.hpp"
#include "test_threads.hpp"
#include "tuning/campaign_scheduler.hpp"

namespace stormtune::tuning {
namespace {

sim::Topology demo_topology() {
  sim::Topology t;
  const auto s = t.add_spout("S", 10.0);
  const auto b = t.add_bolt("B", 20.0);
  t.connect(s, b);
  return t;
}

/// Scripted objective: returns a fixed sequence of throughputs.
class ScriptedObjective final : public Objective {
 public:
  explicit ScriptedObjective(std::vector<double> script)
      : script_(std::move(script)) {}

  double evaluate(const sim::TopologyConfig&) override {
    const double v = script_[std::min(next_, script_.size() - 1)];
    ++next_;
    return v;
  }

  std::size_t calls() const { return next_; }

 private:
  std::vector<double> script_;
  std::size_t next_ = 0;
};

/// Deterministic objective keyed on the uniform hint value.
class HintPeakObjective final : public Objective {
 public:
  double evaluate(const sim::TopologyConfig& c) override {
    const double h = static_cast<double>(c.parallelism_hints.at(0));
    return 100.0 - (h - 7.0) * (h - 7.0);  // peak at hint 7
  }
};

ExperimentOptions fast_options() {
  ExperimentOptions o;
  o.max_steps = 12;
  o.best_config_reps = 5;
  return o;
}

TEST(RunExperiment, StopsAtMaxSteps) {
  const sim::Topology t = demo_topology();
  PlaTuner pla(t, sim::TopologyConfig{}, false);
  HintPeakObjective obj;
  const ExperimentResult r = run_experiment(pla, obj, fast_options());
  EXPECT_EQ(r.trace.size(), 12u);
  EXPECT_EQ(r.strategy, "pla");
}

TEST(RunExperiment, FindsPeakOfHintObjective) {
  const sim::Topology t = demo_topology();
  PlaTuner pla(t, sim::TopologyConfig{}, false);
  HintPeakObjective obj;
  const ExperimentResult r = run_experiment(pla, obj, fast_options());
  EXPECT_DOUBLE_EQ(r.best_throughput, 100.0);
  EXPECT_EQ(r.best_step, 7u);  // hint 7 deployed at step 7
  EXPECT_EQ(r.best_config.parallelism_hints.at(0), 7);
}

TEST(RunExperiment, ZeroStreakStopsEarly) {
  // Paper protocol: stop after three consecutive zero-performance runs.
  const sim::Topology t = demo_topology();
  PlaTuner pla(t, sim::TopologyConfig{}, false);
  ScriptedObjective obj({50.0, 40.0, 0.0, 0.0, 0.0, 99.0});
  ExperimentOptions opts = fast_options();
  opts.best_config_reps = 0;
  const ExperimentResult r = run_experiment(pla, obj, opts);
  EXPECT_EQ(r.trace.size(), 5u);  // 2 positives + 3 zeros
  EXPECT_DOUBLE_EQ(r.best_throughput, 50.0);
}

TEST(RunExperiment, ZeroStreakResetsOnSuccess) {
  const sim::Topology t = demo_topology();
  PlaTuner pla(t, sim::TopologyConfig{}, false);
  ScriptedObjective obj({0.0, 0.0, 10.0, 0.0, 0.0, 20.0, 0.0, 0.0, 0.0, 9.0});
  ExperimentOptions opts = fast_options();
  opts.best_config_reps = 0;
  const ExperimentResult r = run_experiment(pla, obj, opts);
  EXPECT_EQ(r.trace.size(), 9u);  // stops after the 3-zero streak at the end
  EXPECT_DOUBLE_EQ(r.best_throughput, 20.0);
}

TEST(RunExperiment, BestConfigReevaluated) {
  const sim::Topology t = demo_topology();
  PlaTuner pla(t, sim::TopologyConfig{}, false);
  HintPeakObjective obj;
  ExperimentOptions opts = fast_options();
  opts.best_config_reps = 30;
  const ExperimentResult r = run_experiment(pla, obj, opts);
  EXPECT_EQ(r.best_rep_stats.n, 30u);
  // Deterministic objective: repetitions equal the best measurement.
  EXPECT_DOUBLE_EQ(r.best_rep_stats.mean, 100.0);
  EXPECT_DOUBLE_EQ(r.best_rep_stats.min, r.best_rep_stats.max);
}

TEST(RunExperiment, RecordsSuggestTimes) {
  const sim::Topology t = demo_topology();
  PlaTuner pla(t, sim::TopologyConfig{}, false);
  HintPeakObjective obj;
  const ExperimentResult r = run_experiment(pla, obj, fast_options());
  EXPECT_GE(r.mean_suggest_seconds, 0.0);
  EXPECT_GE(r.max_suggest_seconds, r.mean_suggest_seconds);
  for (const auto& step : r.trace) {
    EXPECT_GE(step.suggest_seconds, 0.0);
  }
}

TEST(RunExperiment, TraceStepsAreSequential) {
  const sim::Topology t = demo_topology();
  PlaTuner pla(t, sim::TopologyConfig{}, false);
  HintPeakObjective obj;
  const ExperimentResult r = run_experiment(pla, obj, fast_options());
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    EXPECT_EQ(r.trace[i].step, i + 1);
  }
}

TEST(RunCampaign, ReturnsBetterOfTwoPasses) {
  const sim::Topology t = demo_topology();
  // Pass 0 sees a poor objective, pass 1 a better one.
  int pass_counter = 0;
  ScriptedObjective obj({10.0, 10.0, 10.0, 10.0, 10.0, 10.0,
                         90.0, 90.0, 90.0, 90.0, 90.0, 90.0});
  ExperimentOptions opts;
  opts.max_steps = 6;
  opts.best_config_reps = 0;
  std::vector<ExperimentResult> passes;
  const ExperimentResult best = run_campaign(
      [&](std::size_t) {
        ++pass_counter;
        return std::make_unique<PlaTuner>(t, sim::TopologyConfig{}, false);
      },
      obj, opts, 2, &passes);
  EXPECT_EQ(pass_counter, 2);
  ASSERT_EQ(passes.size(), 2u);
  EXPECT_DOUBLE_EQ(best.best_throughput, 90.0);
}

TEST(RunCampaign, RejectsZeroPasses) {
  const sim::Topology t = demo_topology();
  HintPeakObjective obj;
  EXPECT_THROW(
      run_campaign(
          [&](std::size_t) {
            return std::make_unique<PlaTuner>(t, sim::TopologyConfig{},
                                              false);
          },
          obj, fast_options(), 0),
      Error);
}

TEST(SimObjective, EvaluatesAndVariesAcrossCalls) {
  const sim::Topology t = demo_topology();
  sim::ClusterSpec cluster;
  cluster.num_machines = 4;
  sim::SimParams params;
  params.duration_s = 10.0;
  params.throughput_noise_sd = 0.05;
  SimObjective obj(t, cluster, params, 77);
  sim::TopologyConfig c = sim::uniform_hint_config(t, 2);
  c.batch_size = 50;
  const double a = obj.evaluate(c);
  const double b = obj.evaluate(c);
  EXPECT_GT(a, 0.0);
  EXPECT_GT(b, 0.0);
  EXPECT_NE(a, b);  // fresh noise seed per evaluation
  EXPECT_EQ(obj.num_evaluations(), 2u);
  EXPECT_GT(obj.last_result().batches_committed, 0u);
}

TEST(SimObjective, ReproducibleAcrossInstances) {
  const sim::Topology t = demo_topology();
  sim::ClusterSpec cluster;
  cluster.num_machines = 4;
  sim::SimParams params;
  params.duration_s = 10.0;
  SimObjective o1(t, cluster, params, 5);
  SimObjective o2(t, cluster, params, 5);
  sim::TopologyConfig c = sim::uniform_hint_config(t, 2);
  c.batch_size = 50;
  EXPECT_DOUBLE_EQ(o1.evaluate(c), o2.evaluate(c));
}

TEST(SimObjective, CloneStreamIsReproducibleAndIndependent) {
  const sim::Topology t = demo_topology();
  sim::ClusterSpec cluster;
  cluster.num_machines = 4;
  sim::SimParams params;
  params.duration_s = 10.0;
  params.throughput_noise_sd = 0.05;
  SimObjective obj(t, cluster, params, 5);
  sim::TopologyConfig c = sim::uniform_hint_config(t, 2);
  c.batch_size = 50;

  // Same stream id twice -> identical measurement; different stream ids ->
  // different noise. The parent's own evaluation counter is untouched.
  const double a0 = obj.clone_stream(0)->evaluate(c);
  const double a0_again = obj.clone_stream(0)->evaluate(c);
  const double a1 = obj.clone_stream(1)->evaluate(c);
  EXPECT_DOUBLE_EQ(a0, a0_again);
  EXPECT_NE(a0, a1);
  EXPECT_EQ(obj.num_evaluations(), 0u);
}

TEST(RunExperiment, PoolOverloadFallsBackWithoutCloneStream) {
  // HintPeakObjective does not implement clone_stream, so the pool overload
  // must take the serial repetition path and still produce full stats.
  const sim::Topology t = demo_topology();
  PlaTuner pla(t, sim::TopologyConfig{}, false);
  HintPeakObjective obj;
  ThreadPool pool(4);
  const ExperimentResult r = run_experiment(pla, obj, fast_options(), pool);
  EXPECT_EQ(r.best_rep_stats.n, 5u);
  EXPECT_DOUBLE_EQ(r.best_rep_stats.mean, 100.0);
}

TEST(RunCampaign, ParallelMatchesSerialSelection) {
  // With per-pass objectives whose noise favors pass 1, the parallel
  // campaign must pick the same winner the serial pass-order scan would.
  const sim::Topology t = demo_topology();
  sim::ClusterSpec cluster;
  cluster.num_machines = 4;
  sim::SimParams params;
  params.duration_s = 10.0;
  ExperimentOptions opts;
  opts.max_steps = 5;
  opts.best_config_reps = 3;
  ThreadPool pool(2);
  std::vector<ExperimentResult> passes;
  const ExperimentResult best = run_campaign(
      [&](std::size_t) -> std::unique_ptr<Tuner> {
        return std::make_unique<PlaTuner>(t, sim::TopologyConfig{}, false);
      },
      [&](std::size_t pass) -> std::unique_ptr<Objective> {
        return std::make_unique<SimObjective>(t, cluster, params,
                                              11 + pass * 101);
      },
      opts, 2, pool, &passes);
  ASSERT_EQ(passes.size(), 2u);
  EXPECT_EQ(passes[0].strategy, "pla");
  const double s0 = passes[0].best_rep_stats.mean;
  const double s1 = passes[1].best_rep_stats.mean;
  EXPECT_DOUBLE_EQ(best.best_rep_stats.mean, std::max(s0, s1));
  // Strict > means ties keep the earlier pass, like the serial overload.
  if (s0 >= s1) {
    EXPECT_DOUBLE_EQ(best.best_rep_stats.mean, s0);
  }
  EXPECT_EQ(best.best_rep_stats.n, 3u);
  for (const ExperimentResult& pass : passes) {
    EXPECT_EQ(pass.best_rep_values.size(), 3u);
    EXPECT_EQ(pass.trace.size(), 5u);
  }
}

/// Reference objective replicating SimObjective's seed schedule but running
/// every evaluation through a fresh throwaway simulator (the free simulate()
/// entry point) instead of SimObjective's long-lived workspace. Any state
/// leaking across runs of a reused workspace would make the two diverge.
class FreshSimObjective final : public Objective {
 public:
  FreshSimObjective(sim::Topology topology, sim::ClusterSpec cluster,
                    sim::SimParams params, std::uint64_t seed)
      : topology_(std::move(topology)), cluster_(cluster), params_(params),
        seed_(seed) {}

  double evaluate(const sim::TopologyConfig& config) override {
    const std::uint64_t run_seed =
        seed_ +
        0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(++evaluations_);
    return sim::simulate(topology_, config, cluster_, params_, run_seed)
        .throughput_tuples_per_s;
  }

  std::unique_ptr<Objective> clone_stream(std::uint64_t stream) const override {
    return std::make_unique<FreshSimObjective>(
        topology_, cluster_, params_,
        seed_ ^ (0x632be59bd9b4e019ULL * (stream + 0x9e3779b97f4a7c15ULL)));
  }

 private:
  sim::Topology topology_;
  sim::ClusterSpec cluster_;
  sim::SimParams params_;
  std::uint64_t seed_;
  std::size_t evaluations_ = 0;
};

void expect_same_experiment(const ExperimentResult& a,
                            const ExperimentResult& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].throughput, b.trace[i].throughput) << "step " << i;
  }
  EXPECT_EQ(a.best_throughput, b.best_throughput);
  EXPECT_EQ(a.best_step, b.best_step);
  ASSERT_EQ(a.best_rep_values.size(), b.best_rep_values.size());
  for (std::size_t i = 0; i < a.best_rep_values.size(); ++i) {
    EXPECT_EQ(a.best_rep_values[i], b.best_rep_values[i]) << "rep " << i;
  }
}

TEST(SimObjective, LongLivedWorkspaceMatchesFreshPerEvaluation) {
  // A serial experiment through one long-lived SimObjective (workspace
  // reused across all evaluations) must produce the exact trace of the
  // fresh-simulator-per-evaluation reference.
  const sim::Topology t = demo_topology();
  sim::ClusterSpec cluster;
  cluster.num_machines = 4;
  sim::SimParams params;
  params.duration_s = 10.0;
  params.throughput_noise_sd = 0.05;
  const ExperimentOptions opts = fast_options();

  PlaTuner pla_a(t, sim::TopologyConfig{}, false);
  SimObjective long_lived(t, cluster, params, 21);
  const ExperimentResult a = run_experiment(pla_a, long_lived, opts);

  PlaTuner pla_b(t, sim::TopologyConfig{}, false);
  FreshSimObjective fresh(t, cluster, params, 21);
  const ExperimentResult b = run_experiment(pla_b, fresh, opts);

  expect_same_experiment(a, b);
}

TEST(RunCampaign, PooledWorkspaceReuseMatchesFreshPerEvaluation) {
  // The pooled campaign driver caches one clone (one workspace) per worker
  // slot and retargets it per repetition; the result must stay identical to
  // fresh-per-evaluation objectives, for more than one thread count.
  const sim::Topology t = demo_topology();
  sim::ClusterSpec cluster;
  cluster.num_machines = 4;
  sim::SimParams params;
  params.duration_s = 10.0;
  params.throughput_noise_sd = 0.05;
  ExperimentOptions opts;
  opts.max_steps = 5;
  opts.best_config_reps = 7;

  auto tuner_factory = [&](std::size_t) -> std::unique_ptr<Tuner> {
    return std::make_unique<PlaTuner>(t, sim::TopologyConfig{}, false);
  };
  auto run_with = [&](bool fresh, std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<ExperimentResult> passes;
    run_campaign(
        tuner_factory,
        [&](std::size_t pass) -> std::unique_ptr<Objective> {
          const std::uint64_t seed = 11 + pass * 101;
          if (fresh) {
            return std::make_unique<FreshSimObjective>(t, cluster, params,
                                                       seed);
          }
          return std::make_unique<SimObjective>(t, cluster, params, seed);
        },
        opts, 2, pool, &passes);
    return passes;
  };

  const auto reference = run_with(/*fresh=*/true, 1);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    const auto reused = run_with(/*fresh=*/false, threads);
    ASSERT_EQ(reused.size(), reference.size());
    for (std::size_t p = 0; p < reference.size(); ++p) {
      SCOPED_TRACE(p);
      expect_same_experiment(reused[p], reference[p]);
    }
  }
}

TEST(RunCampaign, ParallelRequiresCloneStreamForReps) {
  // A reps>0 parallel campaign over an objective without clone_stream must
  // fail loudly instead of silently producing wrong repetition stats.
  const sim::Topology t = demo_topology();
  ExperimentOptions opts;
  opts.max_steps = 4;
  opts.best_config_reps = 2;
  ThreadPool pool(1);
  EXPECT_THROW(
      run_campaign(
          [&](std::size_t) -> std::unique_ptr<Tuner> {
            return std::make_unique<PlaTuner>(t, sim::TopologyConfig{},
                                              false);
          },
          [&](std::size_t) -> std::unique_ptr<Objective> {
            return std::make_unique<HintPeakObjective>();
          },
          opts, 2, pool),
      Error);
}

// ---- incumbent replay: repetitions of the best config cost no simulation --

struct ReplayWorkload {
  sim::Topology topology = demo_topology();
  sim::ClusterSpec cluster;
  sim::SimParams params;
  ExperimentOptions options;

  ReplayWorkload() {
    cluster.num_machines = 4;
    params.duration_s = 10.0;
    params.throughput_noise_sd = 0.05;
    options.max_steps = 12;
    options.best_config_reps = 9;
  }

  std::unique_ptr<Tuner> tuner() const {
    return std::make_unique<PlaTuner>(topology, sim::TopologyConfig{}, false);
  }
  std::unique_ptr<SimObjective> objective(std::uint64_t seed) const {
    return std::make_unique<SimObjective>(topology, cluster, params, seed);
  }
  std::unique_ptr<Objective> fresh(std::uint64_t seed) const {
    return std::make_unique<FreshSimObjective>(topology, cluster, params,
                                               seed);
  }
};

/// A SimObjective behind an interface without clone_stream support, which
/// sends the pooled run_experiment down its serial repetition path.
class NoCloneObjective final : public Objective {
 public:
  explicit NoCloneObjective(Objective& inner) : inner_(inner) {}
  double evaluate(const sim::TopologyConfig& config) override {
    return inner_.evaluate(config);
  }

 private:
  Objective& inner_;
};

TEST(IncumbentReplay, PooledRepetitionsRunNoEventLoop) {
  // The repetition clones share the parent's incumbent slot and replay the
  // winner: the whole family runs exactly one event loop per tuning step,
  // at every pool width, and the result equals a never-replaying objective.
  const ReplayWorkload w;
  ThreadPool reference_pool(1);
  const auto reference_objective = w.fresh(21);
  const ExperimentResult reference = run_experiment(
      *w.tuner(), *reference_objective, w.options, reference_pool);
  ASSERT_GT(reference.best_step, 0u);
  for (const std::size_t threads : scheduler_test_threads()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    const auto objective = w.objective(21);
    const ExperimentResult r =
        run_experiment(*w.tuner(), *objective, w.options, pool);
    expect_same_experiment(r, reference);
    EXPECT_EQ(objective->num_simulations(), r.trace.size());
    EXPECT_EQ(objective->num_evaluations(), r.trace.size());
  }
}

TEST(IncumbentReplay, SerialRepetitionsRunNoEventLoop) {
  // Serial repetitions continue the pass objective's own sequence; the
  // pooled driver's fallback for objectives without clone_stream does the
  // same. Both replay.
  const ReplayWorkload w;
  const auto reference_objective = w.fresh(21);
  const ExperimentResult reference =
      run_experiment(*w.tuner(), *reference_objective, w.options);
  ASSERT_GT(reference.best_step, 0u);

  const auto serial = w.objective(21);
  const ExperimentResult a = run_experiment(*w.tuner(), *serial, w.options);
  expect_same_experiment(a, reference);
  EXPECT_EQ(serial->num_simulations(), a.trace.size());
  EXPECT_EQ(serial->num_evaluations(),
            a.trace.size() + w.options.best_config_reps);

  const auto inner = w.objective(21);
  NoCloneObjective fallback(*inner);
  ThreadPool pool(4);
  const ExperimentResult b =
      run_experiment(*w.tuner(), fallback, w.options, pool);
  expect_same_experiment(b, reference);
  EXPECT_EQ(inner->num_simulations(), b.trace.size());
}

TEST(IncumbentReplay, CampaignDriversRunNoRepetitionEventLoop) {
  // Pooled run_campaign (pass x rep shards) and the scheduler (one strand
  // per pass): each pass's family simulates its trace and nothing else.
  // A clone of each pass objective, kept by the factory, reads the family
  // counter after the driver has released the objective itself.
  const ReplayWorkload w;
  constexpr std::size_t kPasses = 2;
  for (const std::size_t threads : scheduler_test_threads()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<std::unique_ptr<Objective>> handles(kPasses);
    const ObjectiveFactory make_objective =
        [&](std::size_t pass) -> std::unique_ptr<Objective> {
      std::unique_ptr<SimObjective> o = w.objective(11 + pass * 101);
      handles[pass] = o->clone_stream(1000);
      return o;
    };
    const TunerFactory make_tuner = [&](std::size_t) { return w.tuner(); };
    auto simulations = [&](std::size_t pass) {
      return static_cast<const SimObjective&>(*handles[pass])
          .num_simulations();
    };

    ThreadPool pool(threads);
    std::vector<ExperimentResult> passes;
    run_campaign(make_tuner, make_objective, w.options, kPasses, pool,
                 &passes);
    ASSERT_EQ(passes.size(), kPasses);
    for (std::size_t p = 0; p < kPasses; ++p) {
      ASSERT_EQ(passes[p].best_rep_values.size(), w.options.best_config_reps);
      EXPECT_EQ(simulations(p), passes[p].trace.size()) << "pass " << p;
    }

    CampaignSpec spec;
    spec.name = "replay";
    spec.passes = kPasses;
    spec.options = w.options;
    spec.make_tuner = make_tuner;
    spec.make_objective = make_objective;
    const MultiCampaignResult multi =
        run_campaigns({spec}, {.num_threads = threads});
    ASSERT_EQ(multi.results.size(), 1u);
    for (std::size_t p = 0; p < kPasses; ++p) {
      EXPECT_EQ(simulations(p), passes[p].trace.size()) << "pass " << p;
    }
    expect_same_experiment(multi.results[0], passes[winning_pass(passes)]);
  }
}

TEST(IncumbentReplay, TiedMeasurementKeepsTheFirstIncumbent) {
  // Without noise, a max_tasks cap above the task count leaves the run
  // unchanged: two distinct configs measure the same. The first keeps the
  // slot; only it replays.
  ReplayWorkload w;
  w.params.throughput_noise_sd = 0.0;
  const auto objective = w.objective(3);
  sim::TopologyConfig first = sim::uniform_hint_config(w.topology, 2);
  first.batch_size = 50;
  sim::TopologyConfig tied = first;
  tied.max_tasks = 1000;
  const double a = objective->evaluate(first);
  ASSERT_GT(a, 0.0);
  EXPECT_EQ(objective->evaluate(tied), a);
  EXPECT_EQ(objective->num_simulations(), 2u);
  EXPECT_EQ(objective->evaluate(first), a);
  EXPECT_EQ(objective->num_simulations(), 2u);
  EXPECT_EQ(objective->evaluate(tied), a);
  EXPECT_EQ(objective->num_simulations(), 3u);
}

TEST(IncumbentReplay, SeedDependentParamsAlwaysSimulate) {
  // Background load draws machine speeds from the seed, so no earlier run
  // can stand in for a later one: every evaluation simulates, and the
  // values equal a never-replaying objective's.
  ReplayWorkload w;
  w.params.background_load_prob = 0.3;
  ASSERT_TRUE(sim::event_loop_reads_seed(w.params));
  const auto objective = w.objective(9);
  const auto reference = w.fresh(9);
  sim::TopologyConfig c = sim::uniform_hint_config(w.topology, 2);
  c.batch_size = 50;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(objective->evaluate(c), reference->evaluate(c));
  }
  EXPECT_EQ(objective->num_simulations(), 3u);
}

}  // namespace
}  // namespace stormtune::tuning
