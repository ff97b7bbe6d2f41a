// Multi-tenant campaign scheduler: N independent tuning campaigns
// multiplexed over one work-stealing StrandPool.
//
// The ROADMAP north-star is a tuning *service* — thousands of concurrent
// campaigns sharing one box — rather than the paper's one-campaign-at-a-
// time runs. run_campaigns() wraps every (campaign, pass) pair in a
// resumable strand — a thin adapter that advances the pass's PassRun
// (experiment.hpp) one advance_pass() step per strand step — whose steps
// alternate between the two phase types with opposite hardware appetites:
//
//   * suggest  — the BO proposal (dense linalg, wide-ISA bound; profits
//                from staying on one core's warm caches),
//   * simulate — one objective evaluation or best-config repetition
//                (branchy discrete-event simulation, cache-resident via
//                the campaign's own SimWorkspace; cheap to migrate).
//
// Each strand advertises its NEXT phase through Strand::steal_preference,
// so an idle worker raids a busy worker's backlog simulation work first
// and leaves suggest steps on their home core. A worker blocked on one
// campaign's long suggest therefore never idles while another campaign
// has evaluations queued.
//
// Determinism is the headline guarantee, and it comes from ownership, not
// from the schedule: every strand owns its tuner, its objective (and thus
// its RNG streams and simulation workspace), and its PassRun. Stealing
// changes only WHERE and WHEN a step runs, never what it computes, so each
// campaign's results are bit-identical to a solo run_campaign() of the
// same spec — for any thread count, any submission order of the other
// campaigns, and any interleaving. The
// wall-clock suggest_seconds fields are the sole excluded quantity
// (presentation-only, as in the single-campaign driver). Finished
// campaigns flow to an optional ResultSink keyed by submission ticket, so
// output files are byte-identical regardless of completion order.
//
// See DESIGN.md §9 "Multi-tenant campaign scheduling".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tuning/experiment.hpp"
#include "tuning/result_sink.hpp"

namespace stormtune::tuning {

/// One campaign: everything run_campaign() takes, in factory form. Both
/// factories must be pure functions of the pass index and safe to call
/// concurrently with the factories of other campaigns (each campaign's
/// factories are only ever invoked by one worker at a time).
struct CampaignSpec {
  std::string name;                ///< label carried into sink records
  TunerFactory make_tuner;         ///< fresh tuner per pass
  ObjectiveFactory make_objective; ///< fresh objective per pass
  ExperimentOptions options;
  std::size_t passes = 2;          ///< paper protocol: best of two passes
};

struct CampaignSchedulerOptions {
  /// Worker threads, caller included. 0 = ThreadPool::default_thread_count.
  std::size_t num_threads = 1;
};

struct MultiCampaignResult {
  /// Winning pass per campaign, in submission order — element i is
  /// bit-identical (suggest timing aside) to run_campaign() of specs[i].
  std::vector<ExperimentResult> results;
  /// Successful steals during the run (scheduling telemetry only).
  std::uint64_t steal_count = 0;
};

/// Run every campaign to completion over a work-stealing pool. When `sink`
/// is non-null, each campaign's winning pass is also submitted to it with
/// ticket = submission index (the sink is NOT closed — the caller owns its
/// lifecycle). Campaigns whose objectives support clone_stream get the
/// parallel run_campaign() repetition semantics (rep r drawn from stream
/// r); objectives without it fall back to the serial overload's semantics
/// (repetitions continue the pass objective's own sequence). Every spec is
/// validated (passes > 0, both factories set, max_steps > 0) before any
/// campaign starts, so one bad entry rejects the batch with no work done.
MultiCampaignResult run_campaigns(const std::vector<CampaignSpec>& specs,
                                  const CampaignSchedulerOptions& options,
                                  ResultSink* sink = nullptr);

}  // namespace stormtune::tuning
