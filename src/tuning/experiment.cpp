#include "tuning/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "common/error.hpp"

namespace stormtune::tuning {

namespace {

/// Leaves the propose/evaluate loop: reps next, or done.
bool finish_tuning(PassRun& run, const ExperimentOptions& options) {
  ExperimentResult& r = run.result;
  STORMTUNE_REQUIRE(!r.trace.empty(), "tuning pass: tuner proposed nothing");
  double total_suggest = 0.0;
  for (const StepRecord& s : r.trace) total_suggest += s.suggest_seconds;
  r.mean_suggest_seconds = total_suggest / static_cast<double>(r.trace.size());
  run.pending.reset();
  if (options.best_config_reps > 0 && r.best_step > 0) {
    r.best_rep_values.assign(options.best_config_reps, 0.0);
    run.phase = PassPhase::kReps;
    return true;
  }
  run.phase = PassPhase::kDone;
  return false;
}

/// Closes the rep phase once every best_rep_values slot is filled.
void finish_reps(PassRun& run) {
  run.result.best_rep_stats = summarize(run.result.best_rep_values);
  run.rep_clone.reset();
  run.phase = PassPhase::kDone;
}

/// Repetition `rep` of `run` on `clone`, bound to stream rep — the pooled
/// drivers' shard body. Their pools shard statically (shard % threads), so
/// a clone cached per worker slot is touched by one worker only, and
/// rebinding it keeps one simulation workspace per worker.
void evaluate_rep(PassRun& run, const Objective& objective,
                  std::unique_ptr<Objective>& clone, std::size_t rep) {
  STORMTUNE_REQUIRE(bind_rep_stream(objective, clone, rep),
                    "parallel repetitions need clone_stream support");
  run.result.best_rep_values[rep] = clone->evaluate(run.result.best_config);
}

/// The campaign result: the winning pass, with every pass handed out
/// through `all_passes` when non-null.
ExperimentResult take_winner(std::vector<ExperimentResult>& passes,
                             std::vector<ExperimentResult>* all_passes) {
  ExperimentResult best = passes[winning_pass(passes)];
  if (all_passes) {
    all_passes->insert(all_passes->end(),
                       std::make_move_iterator(passes.begin()),
                       std::make_move_iterator(passes.end()));
  }
  return best;
}

}  // namespace

bool advance_pass(PassRun& run, Tuner& tuner, Objective& objective,
                  const ExperimentOptions& options) {
  ExperimentResult& r = run.result;
  switch (run.phase) {
    case PassPhase::kSuggest: {
      if (run.step == 0) {
        STORMTUNE_REQUIRE(options.max_steps > 0,
                          "tuning pass: max_steps must be > 0");
        r.strategy = tuner.name();
      }
      const auto t0 = std::chrono::steady_clock::now();
      run.pending = tuner.next();
      const auto t1 = std::chrono::steady_clock::now();
      if (!run.pending) return finish_tuning(run, options);
      run.pending_suggest_seconds =
          std::chrono::duration<double>(t1 - t0).count();
      ++run.step;
      run.phase = PassPhase::kEvaluate;
      return true;
    }
    case PassPhase::kEvaluate: {
      const sim::TopologyConfig& config = *run.pending;
      const double throughput = objective.evaluate(config);
      tuner.report(config, throughput);
      r.trace.push_back({run.step, throughput, run.pending_suggest_seconds});
      r.max_suggest_seconds =
          std::max(r.max_suggest_seconds, run.pending_suggest_seconds);
      if (throughput > r.best_throughput) {
        r.best_throughput = throughput;
        r.best_config = config;
        r.best_step = run.step;
      }
      if (throughput <= 0.0) {
        ++run.zero_streak;
      } else {
        run.zero_streak = 0;
      }
      if (run.step >= options.max_steps ||
          (options.zero_streak_stop > 0 &&
           run.zero_streak >= options.zero_streak_stop)) {
        return finish_tuning(run, options);
      }
      run.phase = PassPhase::kSuggest;
      return true;
    }
    case PassPhase::kReps: {
      Objective* target = &objective;
      if (run.rep_streams) {
        if (bind_rep_stream(objective, run.rep_clone, run.rep)) {
          target = run.rep_clone.get();
        } else {
          STORMTUNE_REQUIRE(run.rep == 0,
                            "tuning pass: clone_stream failed mid-phase");
          run.rep_streams = false;
        }
      }
      r.best_rep_values[run.rep] = target->evaluate(r.best_config);
      if (++run.rep < r.best_rep_values.size()) return true;
      finish_reps(run);
      return false;
    }
    case PassPhase::kDone:
      return false;
  }
  STORMTUNE_REQUIRE(false, "tuning pass: corrupt phase");
  return false;
}

bool bind_rep_stream(const Objective& objective,
                     std::unique_ptr<Objective>& clone, std::size_t rep) {
  if (clone == nullptr || !clone->rebind_stream(rep)) {
    clone = objective.clone_stream(rep);
  }
  return clone != nullptr;
}

double pass_score(const ExperimentResult& r) {
  return r.best_rep_stats.n > 0 ? r.best_rep_stats.mean : r.best_throughput;
}

std::size_t winning_pass(const std::vector<ExperimentResult>& passes) {
  std::size_t win = 0;
  for (std::size_t pass = 1; pass < passes.size(); ++pass) {
    if (pass_score(passes[pass]) > pass_score(passes[win])) win = pass;
  }
  return win;
}

ExperimentResult run_experiment(Tuner& tuner, Objective& objective,
                                const ExperimentOptions& options) {
  PassRun run;
  while (advance_pass(run, tuner, objective, options)) {
  }
  return std::move(run.result);
}

ExperimentResult run_experiment(Tuner& tuner, Objective& objective,
                                const ExperimentOptions& options,
                                ThreadPool& pool) {
  PassRun run;
  while (run.phase != PassPhase::kReps &&
         advance_pass(run, tuner, objective, options)) {
  }
  // One cached clone per pool worker slot; without clone_stream support
  // the loop below runs the reps serially instead.
  std::vector<std::unique_ptr<Objective>> clones(pool.num_threads());
  if (run.phase == PassPhase::kReps &&
      bind_rep_stream(objective, clones[0], 0)) {
    pool.parallel_for(options.best_config_reps, [&](std::size_t rep) {
      evaluate_rep(run, objective, clones[rep % clones.size()], rep);
    });
    finish_reps(run);
  }
  while (advance_pass(run, tuner, objective, options)) {
  }
  return std::move(run.result);
}

ExperimentResult run_campaign(
    const TunerFactory& make_tuner, Objective& objective,
    const ExperimentOptions& options, std::size_t passes,
    std::vector<ExperimentResult>* all_passes) {
  STORMTUNE_REQUIRE(passes > 0, "run_campaign: passes must be > 0");
  std::vector<ExperimentResult> results;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    std::unique_ptr<Tuner> tuner = make_tuner(pass);
    STORMTUNE_REQUIRE(tuner != nullptr, "run_campaign: factory returned null");
    results.push_back(run_experiment(*tuner, objective, options));
  }
  return take_winner(results, all_passes);
}

ExperimentResult run_campaign(
    const TunerFactory& make_tuner, const ObjectiveFactory& make_objective,
    const ExperimentOptions& options, std::size_t passes, ThreadPool& pool,
    std::vector<ExperimentResult>* all_passes) {
  STORMTUNE_REQUIRE(passes > 0, "run_campaign: passes must be > 0");

  // Phase 1: tuning loops, one shard per pass. Each shard builds its own
  // tuner and objective from the pass index, so no state is shared across
  // shards and the per-pass results cannot depend on the thread count.
  std::vector<PassRun> runs(passes);
  std::vector<std::unique_ptr<Objective>> objectives(passes);
  pool.parallel_for(passes, [&](std::size_t pass) {
    std::unique_ptr<Tuner> tuner = make_tuner(pass);
    STORMTUNE_REQUIRE(tuner != nullptr, "run_campaign: factory returned null");
    objectives[pass] = make_objective(pass);
    STORMTUNE_REQUIRE(objectives[pass] != nullptr,
                      "run_campaign: objective factory returned null");
    PassRun& run = runs[pass];
    while (run.phase != PassPhase::kReps &&
           advance_pass(run, *tuner, *objectives[pass], options)) {
    }
  });

  // Phase 2: all best-config repetitions of all passes, one shard per
  // (pass, rep) pair — with 2 passes x 30 reps there are 60 shards to
  // spread over the pool. A worker slot's cached clone is recloned when
  // its shards cross into the next pass's objective.
  const std::size_t reps = options.best_config_reps;
  std::vector<std::unique_ptr<Objective>> clones(pool.num_threads());
  std::vector<std::size_t> clone_pass(clones.size(), passes);
  pool.parallel_for(passes * reps, [&](std::size_t shard) {
    const std::size_t pass = shard / reps;
    if (runs[pass].phase != PassPhase::kReps) return;  // no working config
    const std::size_t slot = shard % clones.size();
    if (clone_pass[slot] != pass) {
      clones[slot].reset();
      clone_pass[slot] = pass;
    }
    evaluate_rep(runs[pass], *objectives[pass], clones[slot], shard % reps);
  });

  std::vector<ExperimentResult> results;
  for (PassRun& run : runs) {
    if (run.phase == PassPhase::kReps) finish_reps(run);
    results.push_back(std::move(run.result));
  }
  return take_winner(results, all_passes);
}

}  // namespace stormtune::tuning
