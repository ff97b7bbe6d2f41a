// Turning a run into checked results and metrics: result digests, output
// checks, end-to-end metrics, per-layer metrics from the trace, and the
// layer reconciliation against the traced wall time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probe.hpp"
#include "workloads.hpp"

namespace stormbench {

/// One execution of a job (or of a prefix of its campaigns).
struct RunResult {
  std::size_t workers = 1;  ///< scheduler threads or repetition pool width
  double tune_s = 0.0;      ///< wall time of the timed region
  double cpu_s = 0.0;       ///< process user+sys CPU over it
  double start_us = 0.0;
  double end_us = 0.0;
  std::vector<tuning::ExperimentResult> results;  ///< per campaign
  std::vector<bool> threw;                        ///< per campaign
  std::vector<std::unique_ptr<CampaignProbe>> probes;
  std::uint64_t steals = 0;
  std::size_t sink_lines = 0;    ///< JSONL lines the result sink wrote
  std::vector<Span> spans;       ///< kTrace only
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Digest of every ExperimentResult field except the wall-clock suggest
/// timings (suggest_seconds, mean/max_suggest_seconds).
std::uint64_t result_digest(const tuning::ExperimentResult& r);

/// Per-campaign digests of a run (campaign index order).
std::vector<std::uint64_t> campaign_digests(const RunResult& run);

/// One digest over the job's inputs (campaign names, default baselines)
/// and the run's per-campaign digests.
std::uint64_t job_digest(const Job& job, const RunResult& run);

/// Structural output checks; appends one message per violation.
void check_run(const Job& job, const RunResult& run,
               std::vector<std::string>& errors);

/// A campaign failed if it threw or ended without a non-zero measurement.
bool campaign_failed(const RunResult& run, std::size_t i);

std::vector<Metric> end_to_end_metrics(const Job& job, const RunResult& run,
                                       double setup_s);

/// Per-layer metrics from a traced run. `fleet_speedup` is 0 when the
/// workload has no single-worker baseline.
std::vector<Metric> layer_metrics(const RunResult& traced,
                                  double fleet_speedup);

/// Print each layer's self time and wall share, and the residual of the
/// traced wall time that no layer accounts for.
void print_reconciliation(const RunResult& traced);

/// Write the spans as JSON lines.
void write_trace(const std::string& path, const std::vector<Span>& spans);

}  // namespace stormbench
