#include "tuning/objective.hpp"

#include <mutex>

namespace stormtune::tuning {

struct SimObjective::Family {
  struct Incumbent {
    sim::TopologyConfig config;
    sim::SimResult run;  ///< replay reads its noiseless fields
    double measured;     ///< the measurement that put it in the slot
  };

  std::mutex mu;
  /// Immutable once published: a reader replays from its snapshot while
  /// another family member may swap in a better incumbent.
  std::shared_ptr<const Incumbent> incumbent;  // guarded by mu
  std::size_t simulations = 0;                 // guarded by mu
};

namespace {

/// Stream seed derivation shared by clone_stream and rebind_stream: a
/// different odd multiplier than evaluate()'s per-evaluation increment, so
/// stream seed sequences and evaluation seed sequences never collide.
std::uint64_t derive_stream_seed(std::uint64_t base, std::uint64_t stream) {
  return base ^ (0x632be59bd9b4e019ULL * (stream + 0x9e3779b97f4a7c15ULL));
}

}  // namespace

SimObjective::SimObjective(sim::Topology topology, sim::ClusterSpec cluster,
                           sim::SimParams params, std::uint64_t seed)
    : topology_(std::move(topology)), cluster_(cluster), params_(params),
      seed_(seed), family_(std::make_shared<Family>()) {
  topology_.validate();
}

double SimObjective::evaluate(const sim::TopologyConfig& config) {
  // Derive a distinct seed per evaluation so measurement noise is fresh,
  // while the whole campaign stays reproducible from `seed_`.
  const std::uint64_t run_seed =
      seed_ + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(++evaluations_);
  const bool replayable = !sim::event_loop_reads_seed(params_);
  std::shared_ptr<const Family::Incumbent> incumbent;
  if (replayable) {
    std::lock_guard<std::mutex> lock(family_->mu);
    incumbent = family_->incumbent;
  }
  if (incumbent != nullptr && incumbent->config == config) {
    // A replay re-measures the slot's own config; it never moves the slot.
    last_ = simulator_.replay(incumbent->run, topology_, config, cluster_,
                              params_, run_seed);
    return last_.throughput_tuples_per_s;
  }
  last_ = simulator_.run(topology_, config, cluster_, params_, run_seed);
  const double measured = last_.throughput_tuples_per_s;
  std::lock_guard<std::mutex> lock(family_->mu);
  ++family_->simulations;
  if (replayable && (family_->incumbent == nullptr ||
                     measured > family_->incumbent->measured)) {
    family_->incumbent = std::make_shared<const Family::Incumbent>(
        Family::Incumbent{config, last_, measured});
  }
  return measured;
}

std::size_t SimObjective::num_simulations() const {
  std::lock_guard<std::mutex> lock(family_->mu);
  return family_->simulations;
}

std::unique_ptr<Objective> SimObjective::clone_stream(
    std::uint64_t stream) const {
  auto clone = std::make_unique<SimObjective>(
      topology_, cluster_, params_, derive_stream_seed(seed_, stream));
  clone->stream_base_ = seed_;
  clone->cloned_ = true;
  clone->family_ = family_;
  return clone;
}

bool SimObjective::rebind_stream(std::uint64_t stream) {
  if (!cloned_) return false;
  seed_ = derive_stream_seed(stream_base_, stream);
  evaluations_ = 0;
  return true;
}

}  // namespace stormtune::tuning
