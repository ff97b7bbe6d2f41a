#include "tuning/campaign_scheduler.hpp"

#include <atomic>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace stormtune::tuning {

namespace {

struct CampaignState;

/// One (campaign, pass) pair as a resumable strand: an adapter that builds
/// the pass's tuner and objective on its first step, then advances its
/// PassRun one step per call — the same calls, in the same order, as the
/// solo drivers, so the per-pass result is bit-identical to them by
/// construction. The StrandPool never runs a strand concurrently with
/// itself.
class PassStrand : public Strand {
 public:
  PassStrand(CampaignState& campaign, std::size_t pass)
      : campaign_(campaign), pass_(pass) {
    run_.rep_streams = true;
  }

  bool step() override;

  int steal_preference() const override {
    // Suggest steps prefer their home worker's warm caches; simulation
    // steps (evaluations, repetitions) and the init step (unplaced state)
    // migrate freely.
    return tuner_ != nullptr && run_.phase == PassPhase::kSuggest ? 0 : 1;
  }

 private:
  CampaignState& campaign_;
  std::size_t pass_;
  std::unique_ptr<Tuner> tuner_;
  std::unique_ptr<Objective> objective_;
  PassRun run_;
};

/// Shared per-campaign bookkeeping: pass results land here and the LAST
/// pass to finish performs the gather (deterministic despite racing
/// completion order — the gather is a pure function of the pass results,
/// which are all final by then).
struct CampaignState {
  const CampaignSpec* spec = nullptr;
  std::size_t ticket = 0;  // submission index
  std::vector<std::unique_ptr<PassStrand>> strands;
  std::vector<ExperimentResult> pass_results;
  std::atomic<std::size_t> passes_remaining{0};
  ExperimentResult* final_slot = nullptr;  // element ticket of the output
  ResultSink* sink = nullptr;
};

/// The campaign result: its winning pass, to the output slot and the sink.
void gather_campaign(CampaignState& c) {
  *c.final_slot = c.pass_results[winning_pass(c.pass_results)];
  if (c.sink != nullptr) {
    CampaignOutcome outcome;
    outcome.ticket = c.ticket;
    outcome.name = c.spec->name;
    outcome.result = *c.final_slot;
    c.sink->submit(std::move(outcome));
  }
}

bool PassStrand::step() {
  const CampaignSpec& spec = *campaign_.spec;
  if (tuner_ == nullptr) {
    tuner_ = spec.make_tuner(pass_);
    STORMTUNE_REQUIRE(tuner_ != nullptr,
                      "run_campaigns: tuner factory returned null");
    objective_ = spec.make_objective(pass_);
    STORMTUNE_REQUIRE(objective_ != nullptr,
                      "run_campaigns: objective factory returned null");
    return true;
  }
  if (advance_pass(run_, *tuner_, *objective_, spec.options)) return true;

  // Release the heavyweight per-pass state before the (possibly much
  // later) campaign gather; the results vector is all that must survive.
  campaign_.pass_results[pass_] = std::move(run_.result);
  tuner_.reset();
  objective_.reset();
  if (campaign_.passes_remaining.fetch_sub(1, std::memory_order_seq_cst) ==
      1) {
    gather_campaign(campaign_);
  }
  return false;
}

}  // namespace

MultiCampaignResult run_campaigns(const std::vector<CampaignSpec>& specs,
                                  const CampaignSchedulerOptions& options,
                                  ResultSink* sink) {
  const std::size_t threads = options.num_threads > 0
                                  ? options.num_threads
                                  : ThreadPool::default_thread_count();
  MultiCampaignResult out;
  out.results.resize(specs.size());
  if (specs.empty()) return out;

  std::vector<std::unique_ptr<CampaignState>> campaigns;
  campaigns.reserve(specs.size());
  std::vector<Strand*> strands;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const CampaignSpec& spec = specs[i];
    STORMTUNE_REQUIRE(spec.passes > 0, "run_campaigns: passes must be > 0");
    STORMTUNE_REQUIRE(spec.make_tuner && spec.make_objective,
                      "run_campaigns: campaign is missing a factory");
    STORMTUNE_REQUIRE(spec.options.max_steps > 0,
                      "run_campaigns: max_steps must be > 0");
    auto c = std::make_unique<CampaignState>();
    c->spec = &spec;
    c->ticket = i;
    c->pass_results.resize(spec.passes);
    c->passes_remaining.store(spec.passes, std::memory_order_seq_cst);
    c->final_slot = &out.results[i];
    c->sink = sink;
    for (std::size_t pass = 0; pass < spec.passes; ++pass) {
      c->strands.push_back(std::make_unique<PassStrand>(*c, pass));
      strands.push_back(c->strands.back().get());
    }
    campaigns.push_back(std::move(c));
  }

  StrandPool pool(threads);
  pool.run(strands);
  out.steal_count = pool.steal_count();
  return out;
}

}  // namespace stormtune::tuning
