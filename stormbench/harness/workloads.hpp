// The benchmark's workloads: sets of tuning campaigns generated from a seed.
//
//   paper_bo     the paper's §V-A protocol (`stormtune tune medium
//                --strategy=bo`): slice-sampled BO over per-node hints and
//                max-tasks on the 50-node synthetic topology, full-fidelity
//                DES, serial run_experiment loop, repetitions on a pool.
//   ladder_long  the same topology with the fidelity ladder and a 60-point
//                GP window over 300-step campaigns (`--fidelity=ladder
//                --gp-window=60 --steps=300`).
//   fleet        a tune-many batch through run_campaigns: a 12-campaign mix
//                of bo/ibo/random/pla over synthetic, literature and Sundog
//                topologies, all submitted at t0, results streamed through
//                a JSONL result sink.
//
// A workload is built from units (one campaign for the serial workloads,
// one 12-campaign mix for fleet); the harness picks the unit count from
// the run length so the amount of work is fixed for a given --seconds and
// never depends on how fast the code under test is.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "stormsim/cluster.hpp"
#include "stormsim/config.hpp"
#include "stormsim/engine.hpp"
#include "stormsim/topology.hpp"
#include "tuning/campaign_scheduler.hpp"

namespace stormbench {

namespace bo = stormtune::bo;
namespace sim = stormtune::sim;
namespace tuning = stormtune::tuning;

/// One topology as the CLI sets it up: cluster, simulation parameters and
/// the CLI's default deployment configuration.
struct Scenario {
  sim::Topology topo;
  sim::ClusterSpec cluster;
  sim::SimParams params;
  sim::TopologyConfig defaults;
};

struct Campaign {
  std::shared_ptr<const Scenario> scenario;
  /// Builds the campaign's factories. Each execution needs a fresh spec:
  /// ladder factories keep one FidelityLadder per pass for their lifetime.
  std::function<tuning::CampaignSpec()> make_spec;
  /// What make_spec() builds (name, protocol), for checks.
  std::string name;
  tuning::ExperimentOptions options;
  std::uint64_t objective_seed = 0;
  /// Throughput of the CLI default configuration, measured at setup with
  /// the campaign's objective seed (the base of tuned_gain).
  double default_throughput = 0.0;
};

enum class Driver {
  kSerial,     ///< one campaign after another through run_experiment
  kScheduler,  ///< all campaigns at once through run_campaigns
};

struct Job {
  std::string workload;
  Driver driver = Driver::kSerial;
  std::size_t unit_size = 1;   ///< campaigns per unit
  std::size_t bo_threads = 1;  ///< optimizer pool width per campaign
  std::vector<Campaign> campaigns;
  /// Campaign the set-up runs a few steps of, to warm pools and caches.
  Campaign warmup;
};

/// Workload names in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Driver of a workload (throws on an unknown name).
Driver driver_of(const std::string& workload);

/// Wall seconds one unit took on the reference host (4-core AVX-512,
/// RelWithDebInfo) at the commit that defined the benchmark. Only used to
/// size runs; the unit count, not the clock, fixes the work.
double reference_unit_seconds(const std::string& workload);

/// Build the job: `units` units of campaigns whose seeds derive from
/// `seed`, with the default-config baselines measured. `width` is the
/// thread width the serial workloads give the optimizer pool.
Job build_job(const std::string& workload, std::uint64_t seed,
              std::size_t units, std::size_t width);

}  // namespace stormbench
