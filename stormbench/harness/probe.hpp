// Outside-in probes for the campaign benchmark.
//
// The benchmark measures stormtune's layers from outside the library: the
// decorators below wrap the public Tuner, Objective and ResultSinkBackend
// interfaces and the CampaignSpec factories, and time the calls into them.
// Nothing here changes what a campaign computes — every call is forwarded
// unchanged, which the harness proves by comparing result digests of
// wrapped and unwrapped runs.
//
// Two modes:
//   * kStepClock — the end-to-end mode. The tuner decorator reads the clock
//     at next() entry and report() exit only (step latency, time to 95%),
//     the factory decorator stamps each campaign's start. No spans.
//   * kTrace — additionally records a span per call into per-thread
//     in-memory buffers, with the parent, campaign, pass and step
//     it belongs to. The spans are aggregated into per-layer metrics and
//     written out when the run ends.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "tuning/campaign_scheduler.hpp"
#include "tuning/fidelity.hpp"
#include "tuning/result_sink.hpp"
#include "tuning/tuner.hpp"

namespace stormbench {

namespace bo = stormtune::bo;
namespace sim = stormtune::sim;
namespace tuning = stormtune::tuning;

/// Microseconds since the first call in this process (steady clock).
double now_us();

/// Process CPU (user + system) in microseconds; `thread_only` reads the
/// calling thread's CPU instead (RUSAGE_THREAD).
double cpu_us(bool thread_only);

enum class Mode { kStepClock, kTrace };

/// Span names. Each is a layer boundary in the public API.
namespace span {
inline constexpr const char* kRun = "run";  // the timed region
inline constexpr const char* kCampaign = "campaign";
inline constexpr const char* kStep = "step";  // next() entry .. report() exit
inline constexpr const char* kSuggest = "bayesopt.suggest";  // BayesTuner::next
inline constexpr const char* kLadderNext = "tuning.ladder_next";
inline constexpr const char* kOtherNext = "tuning.next";  // random / pla
inline constexpr const char* kObserve = "bayesopt.observe";  // Tuner::report
inline constexpr const char* kEval = "stormsim.eval";  // Objective::evaluate
inline constexpr const char* kInit = "tuning.init";  // CampaignSpec factories
inline constexpr const char* kSinkWrite = "tuning.sink_write";
inline constexpr const char* kSinkFlush = "tuning.sink_flush";
}  // namespace span

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = none
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  std::uint32_t tid = 0;  // recording thread (buffer index)
  std::int32_t campaign = -1;
  std::int32_t pass = -1;
  std::int32_t step = -1;  // 1-based step within the pass
  // Attributes of some span kinds (zero when not applicable).
  double cpu_us = 0.0;   // suggest spans: CPU consumed during next()
  double sim_ms = 0.0;   // eval spans: simulated milliseconds
  int rung = 0;          // ladder step evals: 1 or 2
  bool rep = false;      // eval spans: best-config repetition
  bool crashed = false;  // eval spans: OOM-crashed deployment
};

/// Process-wide span collection with one buffer per recording thread.
/// record_span() appends to the calling thread's buffer without locking;
/// drain_spans() must only run while no thread records (between timed
/// regions).
std::uint64_t new_span_id();
void record_span(const Span& s);
std::vector<Span> drain_spans();

/// Per-step samples every mode collects (from the tuner decorator).
struct StepSample {
  double start_us = 0.0;   // next() entry
  double end_us = 0.0;     // report() exit
  double throughput = 0.0;
};

/// Per-(campaign, pass) state shared by that pass's tuner and objective
/// decorators. A pass runs as one strand, so only one thread touches it
/// at a time; best-config repetitions on cloned objectives read only the
/// immutable fields.
struct PassProbe {
  std::int32_t campaign = 0;
  std::int32_t pass = 0;
  std::uint64_t campaign_span = 0;
  std::vector<StepSample> steps;
  // Open step (between next() returning a config and report()).
  bool step_open = false;
  std::uint64_t step_span = 0;
  double step_start_us = 0.0;
  // The ladder is set when the tuner decorator is built (ladder campaigns
  // only); the counts are read when it is destroyed (end of the pass).
  const tuning::FidelityLadder* ladder = nullptr;
  std::size_t evictions = 0;
  tuning::LadderStats ladder_stats{};
};

/// Per-campaign probe: start time (first factory call) and its passes.
struct CampaignProbe {
  CampaignProbe(std::int32_t index, std::size_t passes);
  void mark_start(double t_us);
  double start_us() const;

  std::int32_t index;
  std::uint64_t span_id;
  std::vector<std::unique_ptr<PassProbe>> passes;

 private:
  mutable std::mutex mu_;
  double start_us_;
};

/// Wrap a campaign's factories: each make_tuner / make_objective call is
/// timed as tuning.init and marks the campaign start; the tuner is always
/// wrapped (step clock), the objective only in kTrace mode.
tuning::CampaignSpec probe_spec(const tuning::CampaignSpec& spec,
                                CampaignProbe& probe, Mode mode);

/// Wrap a result-sink backend so its write/end_batch calls become spans.
std::unique_ptr<tuning::ResultSinkBackend> probe_backend(
    std::unique_ptr<tuning::ResultSinkBackend> inner, std::uint64_t parent);

/// Whether suggest CPU is read per thread (concurrent campaigns) or for
/// the whole process (serial loops, whose optimizer pool runs in other
/// threads on the caller's behalf).
void set_suggest_cpu_per_thread(bool per_thread);

}  // namespace stormbench
