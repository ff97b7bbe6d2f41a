// Golden tests for the multi-tenant campaign scheduler.
//
// The acceptance contract: N campaigns interleaved over a work-stealing
// pool produce, per campaign, results bit-identical (compared via %a
// hexfloat fingerprints) to a solo run_campaign() of the same spec — for
// every thread count, and for a shuffled submission order. Wall-clock
// suggest timing (trace suggest_seconds, mean/max_suggest_seconds) is the
// sole excluded quantity.
//
// The thread-count list defaults to {1, 2, 8}; CI's TSan job widens it via
// STORMTUNE_SCHED_TEST_THREADS (comma-separated, e.g. "1,4,16").
#include "tuning/campaign_scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "test_threads.hpp"
#include "tuning/config_space.hpp"
#include "tuning/report.hpp"
#include "tuning/tuner.hpp"

namespace stormtune::tuning {
namespace {

std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Every result field that participates in the bit-identity guarantee,
/// doubles rendered as hexfloat. suggest_seconds fields are wall-clock and
/// deliberately absent.
std::string fingerprint(const ExperimentResult& r) {
  std::ostringstream out;
  out << r.strategy << '\n';
  for (const StepRecord& s : r.trace) {
    out << s.step << ' ' << hexfloat(s.throughput) << '\n';
  }
  out << config_to_json(r.best_config).dump() << '\n';
  out << hexfloat(r.best_throughput) << " @" << r.best_step << '\n';
  out << r.best_rep_stats.n << ' ' << hexfloat(r.best_rep_stats.mean) << ' '
      << hexfloat(r.best_rep_stats.variance) << ' '
      << hexfloat(r.best_rep_stats.stddev) << ' '
      << hexfloat(r.best_rep_stats.min) << ' '
      << hexfloat(r.best_rep_stats.max) << '\n';
  for (const double v : r.best_rep_values) out << hexfloat(v) << ' ';
  out << '\n';
  return out.str();
}

sim::Topology demo_topology() {
  sim::Topology t;
  const auto s = t.add_spout("S", 10.0);
  const auto b = t.add_bolt("B", 20.0);
  t.connect(s, b);
  return t;
}

sim::ClusterSpec demo_cluster() {
  sim::ClusterSpec cluster;
  cluster.num_machines = 4;
  return cluster;
}

sim::SimParams demo_params() {
  sim::SimParams params;
  params.duration_s = 5.0;
  params.throughput_noise_sd = 0.05;
  return params;
}

/// A tiny random-search campaign whose every seed derives from `i`, so the
/// population is diverse but fully reproducible. Options vary with i to
/// cover both the 1-rep and multi-rep gather paths.
CampaignSpec make_random_spec(std::size_t i) {
  const sim::Topology t = demo_topology();
  const sim::ClusterSpec cluster = demo_cluster();
  const sim::SimParams params = demo_params();
  sim::TopologyConfig defaults = sim::uniform_hint_config(t, 2);
  defaults.batch_size = 50;
  SpaceOptions sopts;
  sopts.hint_max = 6;
  const auto base = static_cast<std::uint64_t>(1000 + 17 * i);

  CampaignSpec spec;
  spec.name = "c" + std::to_string(i);
  spec.make_tuner = [t, sopts, defaults,
                     base](std::size_t pass) -> std::unique_ptr<Tuner> {
    return std::make_unique<RandomTuner>(ConfigSpace(t, sopts, defaults),
                                         base * 7919 + pass);
  };
  spec.make_objective = [t, cluster, params,
                         base](std::size_t pass) -> std::unique_ptr<Objective> {
    return std::make_unique<SimObjective>(
        t, cluster, params, base + 0x632be59bd9b4e019ULL * pass);
  };
  spec.options.max_steps = 2 + i % 2;
  spec.options.best_config_reps = 1 + i % 2;
  spec.passes = 2;
  return spec;
}

/// Solo reference: the deterministic parallel run_campaign() on a 1-thread
/// pool (its results are thread-count-invariant by its own contract).
std::string solo_fingerprint(const CampaignSpec& spec) {
  ThreadPool pool(1);
  return fingerprint(run_campaign(spec.make_tuner, spec.make_objective,
                                  spec.options, spec.passes, pool));
}

TEST(CampaignScheduler, ThousandInterleavedCampaignsMatchSoloRuns) {
  constexpr std::size_t kCampaigns = 1000;
  std::vector<CampaignSpec> specs;
  specs.reserve(kCampaigns);
  for (std::size_t i = 0; i < kCampaigns; ++i) {
    specs.push_back(make_random_spec(i));
  }

  std::vector<std::string> solo;
  solo.reserve(kCampaigns);
  for (const CampaignSpec& spec : specs) {
    solo.push_back(solo_fingerprint(spec));
  }

  std::size_t max_threads = 1;
  for (const std::size_t threads : scheduler_test_threads()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    max_threads = std::max(max_threads, threads);
    const MultiCampaignResult multi =
        run_campaigns(specs, {.num_threads = threads});
    ASSERT_EQ(multi.results.size(), kCampaigns);
    if (threads == 1) {
      EXPECT_EQ(multi.steal_count, 0u);
    }
    for (std::size_t i = 0; i < kCampaigns; ++i) {
      ASSERT_EQ(fingerprint(multi.results[i]), solo[i]) << "campaign " << i;
    }
  }

  // Shuffled submission: a fixed permutation (617 is coprime to 1000, so
  // j -> 617 j mod 1000 is a bijection). Each campaign's result must not
  // care who its neighbors are.
  std::vector<CampaignSpec> shuffled;
  std::vector<std::size_t> origin;
  for (std::size_t j = 0; j < kCampaigns; ++j) {
    origin.push_back((j * 617) % kCampaigns);
    shuffled.push_back(specs[origin.back()]);
  }
  const MultiCampaignResult multi =
      run_campaigns(shuffled, {.num_threads = max_threads});
  ASSERT_EQ(multi.results.size(), kCampaigns);
  for (std::size_t j = 0; j < kCampaigns; ++j) {
    ASSERT_EQ(fingerprint(multi.results[j]), solo[origin[j]])
        << "slot " << j << " (campaign " << origin[j] << ")";
  }
}

TEST(CampaignScheduler, BayesOptCampaignsMatchSoloRuns) {
  // The suggest phase goes through BayesOpt, whose worker pool is now
  // lazily constructed — three BO campaigns interleaving across scheduler
  // workers pin the reentrancy of that path (each optimizer instance is
  // owned by exactly one strand).
  const sim::Topology t = demo_topology();
  const sim::ClusterSpec cluster = demo_cluster();
  const sim::SimParams params = demo_params();
  sim::TopologyConfig defaults = sim::uniform_hint_config(t, 2);
  defaults.batch_size = 50;
  SpaceOptions sopts;
  sopts.hint_max = 5;

  std::vector<CampaignSpec> specs;
  for (std::size_t i = 0; i < 3; ++i) {
    CampaignSpec spec;
    spec.name = "bo" + std::to_string(i);
    const auto base = static_cast<std::uint64_t>(50 + 31 * i);
    spec.make_tuner = [t, sopts, defaults,
                       base](std::size_t pass) -> std::unique_ptr<Tuner> {
      bo::BayesOptOptions bopts;
      bopts.seed = base * 7919 + pass;
      return std::make_unique<BayesTuner>(ConfigSpace(t, sopts, defaults),
                                          bopts);
    };
    spec.make_objective =
        [t, cluster, params,
         base](std::size_t pass) -> std::unique_ptr<Objective> {
      return std::make_unique<SimObjective>(
          t, cluster, params, base + 0x632be59bd9b4e019ULL * pass);
    };
    spec.options.max_steps = 4;
    spec.options.best_config_reps = 2;
    spec.passes = 2;
    specs.push_back(std::move(spec));
  }

  std::vector<std::string> solo;
  for (const CampaignSpec& spec : specs) {
    solo.push_back(solo_fingerprint(spec));
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const MultiCampaignResult multi =
        run_campaigns(specs, {.num_threads = threads});
    ASSERT_EQ(multi.results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(fingerprint(multi.results[i]), solo[i]) << "campaign " << i;
    }
  }
}

/// Deterministic, stateless, and clone_stream-free: the scheduler must take
/// the serial-repetition fallback for it.
class HintScoreObjective final : public Objective {
 public:
  double evaluate(const sim::TopologyConfig& c) override {
    const double h = static_cast<double>(c.parallelism_hints.at(0));
    return 100.0 - (h - 4.0) * (h - 4.0);
  }
};

TEST(CampaignScheduler, ObjectivesWithoutCloneStreamFallBackToSerialReps) {
  // With a stateless objective the serial run_campaign() overload (one
  // shared objective across passes) computes the same numbers as the
  // scheduler's per-pass fallback, so it doubles as the reference.
  const sim::Topology t = demo_topology();
  sim::TopologyConfig defaults = sim::uniform_hint_config(t, 2);
  defaults.batch_size = 50;
  SpaceOptions sopts;
  sopts.hint_max = 6;

  CampaignSpec spec;
  spec.name = "no-clone";
  spec.make_tuner = [t, sopts,
                     defaults](std::size_t pass) -> std::unique_ptr<Tuner> {
    return std::make_unique<RandomTuner>(ConfigSpace(t, sopts, defaults),
                                         900 + pass);
  };
  spec.make_objective = [](std::size_t) -> std::unique_ptr<Objective> {
    return std::make_unique<HintScoreObjective>();
  };
  spec.options.max_steps = 3;
  spec.options.best_config_reps = 4;
  spec.passes = 2;

  HintScoreObjective shared;
  const std::string reference = fingerprint(run_campaign(
      spec.make_tuner, shared, spec.options, spec.passes));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const MultiCampaignResult multi =
        run_campaigns({spec}, {.num_threads = threads});
    ASSERT_EQ(multi.results.size(), 1u);
    EXPECT_EQ(fingerprint(multi.results[0]), reference);
  }
}

TEST(CampaignScheduler, SinkReceivesEveryCampaignInTicketOrder) {
  constexpr std::size_t kCampaigns = 12;
  std::vector<CampaignSpec> specs;
  for (std::size_t i = 0; i < kCampaigns; ++i) {
    specs.push_back(make_random_spec(i));
  }

  std::ostringstream out;
  ResultSinkOptions sink_opts;
  sink_opts.queue_capacity = 4;  // force some backpressure
  sink_opts.batch_max = 3;
  sink_opts.expected_records = kCampaigns;
  ResultSink sink(std::make_unique<JsonlResultBackend>(out), sink_opts);
  const MultiCampaignResult multi =
      run_campaigns(specs, {.num_threads = 4}, &sink);
  sink.close();
  EXPECT_EQ(sink.written(), kCampaigns);

  // One line per campaign, in ticket (= submission) order regardless of
  // completion order, each carrying exactly the scheduler's result.
  std::istringstream lines(out.str());
  std::string line;
  std::size_t ticket = 0;
  while (std::getline(lines, line)) {
    const Json record = Json::parse(line);
    ASSERT_EQ(static_cast<std::size_t>(record.at("ticket").as_int()), ticket);
    EXPECT_EQ(record.at("name").as_string(), specs[ticket].name);
    const ExperimentResult round_trip =
        experiment_from_json(record.at("result"));
    EXPECT_EQ(fingerprint(round_trip), fingerprint(multi.results[ticket]));
    ++ticket;
  }
  EXPECT_EQ(ticket, kCampaigns);
}

/// Replays a fixed list of uniform hints, then reports exhaustion (nullopt)
/// — the tuner-ends-early edge path. The name carries the pass index so a
/// fingerprint shows which pass won.
class ScriptedHintTuner final : public Tuner {
 public:
  ScriptedHintTuner(std::vector<int> hints, std::size_t pass)
      : hints_(std::move(hints)), name_("scripted-p" + std::to_string(pass)) {}

  std::optional<sim::TopologyConfig> next() override {
    if (next_ >= hints_.size()) return std::nullopt;
    sim::TopologyConfig c;
    c.parallelism_hints = {hints_[next_++]};
    return c;
  }
  void report(const sim::TopologyConfig&, double) override {}
  std::string name() const override { return name_; }

 private:
  std::vector<int> hints_;
  std::string name_;
  std::size_t next_ = 0;
};

/// Hint h scores 0 when h <= 1 and 10 h otherwise.
double hint_score(const sim::TopologyConfig& c) {
  const int h = c.parallelism_hints.at(0);
  return h <= 1 ? 0.0 : 10.0 * h;
}

/// hint_score with multiplicative noise drawn from (seed, evaluation
/// count): stateful like SimObjective, and clone_stream/rebind_stream
/// capable with the same "a rebound clone equals a fresh clone" contract.
class NoisyHintObjective final : public Objective {
 public:
  explicit NoisyHintObjective(std::uint64_t seed) : base_(seed), seed_(seed) {}

  double evaluate(const sim::TopologyConfig& c) override {
    std::uint64_t z = seed_ + 0x9e3779b97f4a7c15ULL * ++evaluations_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
    return hint_score(c) * (1.0 + 0.01 * u);
  }
  std::unique_ptr<Objective> clone_stream(std::uint64_t stream) const override {
    auto clone = std::make_unique<NoisyHintObjective>(base_);
    clone->cloned_ = true;
    clone->rebind_stream(stream);
    return clone;
  }
  bool rebind_stream(std::uint64_t stream) override {
    if (!cloned_) return false;
    seed_ = base_ ^ (0x632be59bd9b4e019ULL * (stream + 1));
    evaluations_ = 0;
    return true;
  }

 private:
  std::uint64_t base_;  ///< the seed every stream derives from
  std::uint64_t seed_;
  bool cloned_ = false;
  std::size_t evaluations_ = 0;
};

/// hint_score, stateless and without clone_stream.
class PlainHintObjective final : public Objective {
 public:
  double evaluate(const sim::TopologyConfig& c) override {
    return hint_score(c);
  }
};

struct EdgeCase {
  std::string name;
  std::vector<std::vector<int>> scripts;  ///< hints per pass
  ExperimentOptions options;
  /// Objective seed stride between passes; 0 gives every pass the same
  /// measurement sequence (the tied-passes case).
  std::uint64_t seed_stride;
  std::vector<std::size_t> trace_sizes;  ///< expected, per pass
  std::vector<std::size_t> best_steps;   ///< expected, per pass
  std::string winner;                    ///< expected strategy name
};

std::vector<EdgeCase> edge_cases() {
  ExperimentOptions streak;
  streak.max_steps = 8;
  streak.zero_streak_stop = 3;
  streak.best_config_reps = 3;
  ExperimentOptions exhaust;
  exhaust.max_steps = 10;
  exhaust.best_config_reps = 2;
  ExperimentOptions no_reps;
  no_reps.max_steps = 3;
  no_reps.best_config_reps = 0;
  return {
      // Pass 0 hits three zeros in a row at step 4; pass 1's streak is
      // reset by step 2 and trips at step 5.
      {"zero_streak_mid_pass",
       {{4, 1, 1, 1, 5, 6, 7, 8}, {1, 6, 1, 1, 1, 7, 7, 8}},
       streak, 1, {4, 5}, {1, 2}, "scripted-p1"},
      // Both tuners run dry before max_steps.
      {"tuner_exhausts_early",
       {{2, 3}, {3, 4, 2}}, exhaust, 1, {2, 3}, {2, 2}, "scripted-p1"},
      // Pass 0 never measures anything non-zero: best_step 0, reps skipped.
      {"no_nonzero_measurement",
       {{1, 1, 1, 1}, {2, 1}}, streak, 1, {3, 2}, {0, 1}, "scripted-p1"},
      // Identical passes with repetitions off: the first pass wins the tie.
      {"tied_passes_without_reps",
       {{3, 5, 2}, {3, 5, 2}}, no_reps, 0, {3, 3}, {2, 2}, "scripted-p0"},
  };
}

CampaignSpec edge_spec(const EdgeCase& ec, bool clone_capable) {
  CampaignSpec spec;
  spec.name = ec.name;
  spec.make_tuner = [scripts = ec.scripts](std::size_t pass)
      -> std::unique_ptr<Tuner> {
    return std::make_unique<ScriptedHintTuner>(scripts.at(pass), pass);
  };
  spec.make_objective = [clone_capable, stride = ec.seed_stride](
                            std::size_t pass) -> std::unique_ptr<Objective> {
    if (!clone_capable) return std::make_unique<PlainHintObjective>();
    return std::make_unique<NoisyHintObjective>(77 + stride * pass);
  };
  spec.options = ec.options;
  spec.passes = ec.scripts.size();
  return spec;
}

TEST(CampaignScheduler, EdgePathsMatchAcrossDrivers) {
  for (const EdgeCase& ec : edge_cases()) {
    SCOPED_TRACE(ec.name);

    // Clone-capable objective: the scheduler against the pooled driver.
    const CampaignSpec cloned = edge_spec(ec, /*clone_capable=*/true);
    std::vector<std::string> reference;
    for (const std::size_t pool_threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("pool threads=" + std::to_string(pool_threads));
      ThreadPool pool(pool_threads);
      std::vector<ExperimentResult> passes;
      const ExperimentResult best =
          run_campaign(cloned.make_tuner, cloned.make_objective,
                       cloned.options, cloned.passes, pool, &passes);
      EXPECT_EQ(best.strategy, ec.winner);
      ASSERT_EQ(passes.size(), ec.scripts.size());
      std::vector<std::string> prints = {fingerprint(best)};
      for (std::size_t p = 0; p < passes.size(); ++p) {
        EXPECT_EQ(passes[p].trace.size(), ec.trace_sizes[p]) << "pass " << p;
        EXPECT_EQ(passes[p].best_step, ec.best_steps[p]) << "pass " << p;
        const std::size_t reps =
            passes[p].best_step > 0 ? ec.options.best_config_reps : 0;
        EXPECT_EQ(passes[p].best_rep_values.size(), reps) << "pass " << p;
        prints.push_back(fingerprint(passes[p]));
      }
      if (reference.empty()) reference = prints;
      EXPECT_EQ(prints, reference);
    }

    // Stateless objective without clone_stream: the scheduler's serial-rep
    // fallback against the serial driver over one shared objective.
    const CampaignSpec plain = edge_spec(ec, /*clone_capable=*/false);
    PlainHintObjective shared;
    const ExperimentResult serial =
        run_campaign(plain.make_tuner, shared, plain.options, plain.passes);
    EXPECT_EQ(serial.strategy, ec.winner);

    for (const std::size_t threads : scheduler_test_threads()) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const MultiCampaignResult multi =
          run_campaigns({cloned, plain}, {.num_threads = threads});
      ASSERT_EQ(multi.results.size(), 2u);
      EXPECT_EQ(fingerprint(multi.results[0]), reference[0]);
      EXPECT_EQ(fingerprint(multi.results[1]), fingerprint(serial));
    }
  }
}

TEST(CampaignScheduler, ValidatesSpecs) {
  CampaignSpec spec = make_random_spec(0);
  spec.passes = 0;
  EXPECT_THROW(run_campaigns({spec}, {.num_threads = 1}), Error);
  CampaignSpec no_tuner = make_random_spec(1);
  no_tuner.make_tuner = nullptr;
  EXPECT_THROW(run_campaigns({no_tuner}, {.num_threads = 1}), Error);
  CampaignSpec no_objective = make_random_spec(2);
  no_objective.make_objective = nullptr;
  EXPECT_THROW(run_campaigns({no_objective}, {.num_threads = 1}), Error);
  CampaignSpec no_steps = make_random_spec(3);
  no_steps.options.max_steps = 0;
  EXPECT_THROW(run_campaigns({no_steps}, {.num_threads = 1}), Error);
  // A bad entry anywhere in the batch is rejected before any campaign's
  // factories run.
  std::size_t factory_calls = 0;
  CampaignSpec counted = make_random_spec(4);
  counted.make_tuner = [inner = counted.make_tuner,
                        &factory_calls](std::size_t pass) {
    ++factory_calls;
    return inner(pass);
  };
  EXPECT_THROW(run_campaigns({counted, no_steps}, {.num_threads = 1}), Error);
  EXPECT_EQ(factory_calls, 0u);
  EXPECT_TRUE(run_campaigns({}, {.num_threads = 2}).results.empty());
}

}  // namespace
}  // namespace stormtune::tuning
