// The blackbox objective: configuration -> measured throughput.
//
// The paper treats the deployed application as a blackbox function sampled
// by running it on the cluster for two minutes (Section III-C). Here an
// evaluation is one simulator run; each call uses a fresh noise seed, so
// repeated evaluations of the same configuration scatter the way repeated
// cluster runs did.
#pragma once

#include <cstdint>
#include <memory>

#include "stormsim/cluster.hpp"
#include "stormsim/config.hpp"
#include "stormsim/engine.hpp"
#include "stormsim/topology.hpp"

namespace stormtune::tuning {

class Objective {
 public:
  virtual ~Objective() = default;
  /// One measurement run; returns throughput in tuples/s (>= 0).
  virtual double evaluate(const sim::TopologyConfig& config) = 0;

  /// An independent copy of this objective whose measurement noise comes
  /// from a seed stream derived from `stream`. The parallel experiment
  /// driver gives each best-config repetition its own stream so the
  /// repetitions are independent of each other AND of evaluation order —
  /// which is what makes the parallel result bit-identical for any thread
  /// count. Objectives that cannot provide isolated streams return nullptr
  /// (the default); the driver then falls back to serial evaluation.
  virtual std::unique_ptr<Objective> clone_stream(std::uint64_t stream) const {
    (void)stream;
    return nullptr;
  }

  /// Retarget a clone_stream() copy at a different stream, reusing its
  /// internal state (notably a SimObjective's simulation workspace) instead
  /// of constructing a fresh clone. After rebind_stream(s) the object
  /// behaves exactly like a fresh clone_stream(s) result. Returns false if
  /// unsupported or if this objective is not a clone (the driver then makes
  /// a fresh clone).
  virtual bool rebind_stream(std::uint64_t stream) {
    (void)stream;
    return false;
  }
};

/// Objective backed by the discrete-event simulator.
///
/// An objective and all its clone_stream() copies form a family that shares
/// one mutex-guarded incumbent slot: the config and noiseless run behind
/// the family's highest simulated measurement so far (only a strictly
/// greater measurement replaces it, so the first of tied measurements keeps
/// it, as ExperimentResult::best_step does). evaluate() of the slot's
/// config replays that run (sim::Simulator::replay) instead of simulating
/// it — every best-config repetition costs one noise draw. Replay returns
/// the bits a simulation would, so which config holds the slot affects
/// speed only, never a result. Params for which sim::event_loop_reads_seed()
/// holds are always simulated.
class SimObjective final : public Objective {
 public:
  SimObjective(sim::Topology topology, sim::ClusterSpec cluster,
               sim::SimParams params, std::uint64_t seed);

  double evaluate(const sim::TopologyConfig& config) override;
  std::unique_ptr<Objective> clone_stream(std::uint64_t stream) const override;
  bool rebind_stream(std::uint64_t stream) override;

  /// Full result of the most recent evaluation (network stats etc.).
  const sim::SimResult& last_result() const { return last_; }
  const sim::Topology& topology() const { return topology_; }
  std::size_t num_evaluations() const { return evaluations_; }
  /// Event loops actually run by the whole family (this objective and every
  /// clone_stream copy of it); evaluations that replayed the incumbent do
  /// not count. Deterministic whenever the family's measurements are taken
  /// in a deterministic order, as every driver in experiment.hpp does.
  std::size_t num_simulations() const;

 private:
  /// The state a family shares: the incumbent slot and the simulation
  /// counter. Defined in objective.cpp.
  struct Family;

  sim::Topology topology_;
  sim::ClusterSpec cluster_;
  sim::SimParams params_;
  std::uint64_t seed_;
  /// Parent seed this clone's seed was derived from; only meaningful when
  /// cloned_ (rebind_stream re-derives seed_ from it for a new stream).
  std::uint64_t stream_base_ = 0;
  bool cloned_ = false;
  std::size_t evaluations_ = 0;
  /// Persistent simulation workspace: repeated evaluations reuse all engine
  /// buffers (see sim::Simulator) instead of reconstructing them per run.
  sim::Simulator simulator_;
  sim::SimResult last_;
  std::shared_ptr<Family> family_;
};

}  // namespace stormtune::tuning
