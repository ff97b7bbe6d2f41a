// Experiment driver implementing the paper's evaluation protocol.
//
// Section V-A: up to 60 optimization steps (180 for the bo180 runs); the
// linear-ascent strategies stop early after three consecutive
// zero-performance measurements (this driver applies that stop to every
// strategy — DESIGN.md §7); every step's suggestion wall-time is
// recorded (Figure 7); afterwards the best configuration is re-run 30
// times (Figures 4 and 8 report mean/min/max of those repetitions); the
// whole procedure is run twice and the better pass is reported.
//
// The protocol is implemented once: PassRun is one pass as plain data and
// advance_pass() moves it by one step. Every driver — the serial and
// pooled run_experiment/run_campaign below and the multi-campaign
// scheduler (campaign_scheduler.hpp) — is a thin loop over advance_pass(),
// the rep-stream helper bind_rep_stream() and the winner scan
// winning_pass(). A pass that can stop and resume at any step, or explain
// each of its steps, does so here.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "tuning/objective.hpp"
#include "tuning/tuner.hpp"

namespace stormtune::tuning {

struct ExperimentOptions {
  std::size_t max_steps = 60;
  /// Stop after this many consecutive zero-performance runs (paper: 3, for
  /// the linear-ascent strategies; applied here to every strategy).
  std::size_t zero_streak_stop = 3;
  /// Repetitions of the best configuration after the optimization.
  std::size_t best_config_reps = 30;
};

struct StepRecord {
  std::size_t step = 0;  ///< 1-based
  double throughput = 0.0;
  double suggest_seconds = 0.0;  ///< wall-time the tuner took to propose
};

struct ExperimentResult {
  std::string strategy;
  std::vector<StepRecord> trace;
  sim::TopologyConfig best_config;
  double best_throughput = 0.0;  ///< best single measurement during tuning
  std::size_t best_step = 0;     ///< 1-based step that first hit the best
  /// Statistics of re-running best_config `best_config_reps` times.
  Summary best_rep_stats{};
  /// The raw repetition measurements (for significance tests, Fig. 8a).
  std::vector<double> best_rep_values;
  double mean_suggest_seconds = 0.0;
  double max_suggest_seconds = 0.0;
};

/// Where a PassRun stands. A pass goes suggest ⇄ evaluate until the step
/// budget, the zero-performance stop or an exhausted tuner; then reps (only
/// when best_config_reps > 0 and some measurement was non-zero); then done.
enum class PassPhase { kSuggest, kEvaluate, kReps, kDone };

/// One (campaign, pass) pair of the §V-A protocol as resumable plain data.
/// Drive it with advance_pass(); the pass's tuner and objective live
/// outside it.
struct PassRun {
  PassPhase phase = PassPhase::kSuggest;
  std::size_t step = 0;  ///< 1-based index of the latest proposal
  std::size_t zero_streak = 0;
  std::optional<sim::TopologyConfig> pending;  ///< proposed, not yet measured
  double pending_suggest_seconds = 0.0;
  std::size_t rep = 0;  ///< next best-config repetition
  /// Repetition semantics. false: the reps continue the pass objective's
  /// own measurement sequence (serial run_experiment). true: rep r runs on
  /// an objective clone bound to stream r (bind_rep_stream), falling back
  /// to false when the objective has no clone_stream support.
  bool rep_streams = false;
  std::unique_ptr<Objective> rep_clone;
  ExperimentResult result;
};

/// One step of `run`: a suggest (Tuner::next), an evaluate + report, or
/// one best-config repetition. Returns false once the pass is done.
bool advance_pass(PassRun& run, Tuner& tuner, Objective& objective,
                  const ExperimentOptions& options);

/// Points `clone` at repetition stream `rep` of `objective`: rebinds it
/// when possible, else replaces it with a fresh clone_stream(rep). A
/// rebound clone is defined to equal a fresh one, so reusing clones keeps
/// results independent of the thread count. Returns false when the
/// objective does not support clone_stream.
bool bind_rep_stream(const Objective& objective,
                     std::unique_ptr<Objective>& clone, std::size_t rep);

/// The score passes compete on: the repetition mean, or the best single
/// measurement when the pass ran no repetitions.
double pass_score(const ExperimentResult& r);

/// Index of the winning pass by pass_score; the first pass wins ties.
std::size_t winning_pass(const std::vector<ExperimentResult>& passes);

/// Run one optimization pass: propose/evaluate/report until the step budget
/// or the zero-performance stop, then re-evaluate the best configuration.
ExperimentResult run_experiment(Tuner& tuner, Objective& objective,
                                const ExperimentOptions& options);

/// Like the serial overload, but the best-config repetitions are sharded
/// over `pool`, rep r on Objective::clone_stream(r). Because each
/// repetition draws from its own stream, the result is bit-identical for
/// any pool size — but numerically different from the serial overload,
/// whose repetitions continue the tuning-loop seed sequence. Falls back to
/// the serial repetition loop when the objective does not support
/// clone_stream.
ExperimentResult run_experiment(Tuner& tuner, Objective& objective,
                                const ExperimentOptions& options,
                                ThreadPool& pool);

using TunerFactory = std::function<std::unique_ptr<Tuner>(std::size_t pass)>;
using ObjectiveFactory =
    std::function<std::unique_ptr<Objective>(std::size_t pass)>;

/// The paper's full protocol: run `passes` independent experiment passes
/// (the factory builds a fresh tuner each time) and return the pass whose
/// re-evaluated best configuration has the highest mean throughput.
/// All passes are returned through `all_passes` when non-null.
ExperimentResult run_campaign(
    const TunerFactory& make_tuner, Objective& objective,
    const ExperimentOptions& options, std::size_t passes = 2,
    std::vector<ExperimentResult>* all_passes = nullptr);

/// Deterministic parallel campaign: passes run concurrently over `pool`
/// (each pass owns its tuner AND its objective, both built per pass), then
/// all best-config repetitions of all passes are sharded over the pool via
/// Objective::clone_stream. Every shard is a pure function of its (pass,
/// rep) indices, and results are gathered in pass order, so the returned
/// ExperimentResult (and `all_passes`) is bit-identical for any thread
/// count. Both factories must be safe to call concurrently, and the
/// per-pass objectives must support clone_stream when best_config_reps > 0.
ExperimentResult run_campaign(
    const TunerFactory& make_tuner, const ObjectiveFactory& make_objective,
    const ExperimentOptions& options, std::size_t passes, ThreadPool& pool,
    std::vector<ExperimentResult>* all_passes = nullptr);

}  // namespace stormtune::tuning
