// Serialization of experiment results for downstream analysis/plotting.
//
// The bench harness prints the paper's tables; real campaigns also want
// machine-readable artifacts. Experiment results round-trip through JSON
// (resume an aborted campaign, archive a sweep) and export to CSV (one row
// per optimization step — the raw data behind Figures 5, 6 and 8b).
#pragma once

#include <string>

#include "common/json.hpp"
#include "tuning/experiment.hpp"

namespace stormtune::tuning {

/// Serialize a configuration (all Table-I fields).
Json config_to_json(const sim::TopologyConfig& config);
sim::TopologyConfig config_from_json(const Json& j);

/// Serialize a full experiment result (strategy, trace, best config,
/// repetition statistics). A pass with best_step == 0 measured nothing
/// non-zero; its "best_config" is null, and reading null back leaves the
/// default-constructed config.
Json experiment_to_json(const ExperimentResult& result);
ExperimentResult experiment_from_json(const Json& j);

/// CSV with one row per optimization step:
/// strategy,step,throughput,suggest_seconds,best_so_far
std::string trace_to_csv(const ExperimentResult& result);

/// CSV comparing several experiments: strategy,mean,min,max,best_step,steps
std::string summary_to_csv(const std::vector<ExperimentResult>& results);

}  // namespace stormtune::tuning
