#include "workloads.hpp"

#include <map>
#include <stdexcept>

#include "tuning/fidelity.hpp"
#include "tuning/objective.hpp"
#include "tuning/tuner.hpp"
#include "topology/literature.hpp"
#include "topology/sundog.hpp"
#include "topology/synthetic.hpp"

namespace stormbench {

namespace {

namespace topo = stormtune::topo;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Campaign i's seed: a pure function of (workload seed, i), kept below
/// 2^31 so any campaign can be replayed with `stormtune tune --seed=N`.
std::uint64_t campaign_seed(std::uint64_t seed, std::size_t i) {
  return splitmix64(splitmix64(seed) + i) % 0x7fffffffULL + 1;
}

/// Mirrors the CLI's load_workload + config_from_options with default
/// flags (hint 4, topology batch size, bp 5, wt 8, rt 1, 20 s window).
Scenario make_scenario(const std::string& name) {
  Scenario s;
  s.cluster = topo::paper_cluster();
  s.params = topo::synthetic_sim_params();
  int batch_size = 200;
  if (name == "small" || name == "medium") {
    topo::SyntheticSpec spec;
    spec.size = name == "small" ? topo::TopologySize::kSmall
                                : topo::TopologySize::kMedium;
    s.topo = topo::build_synthetic(spec);
  } else if (name == "sundog") {
    s.topo = topo::build_sundog();
    s.cluster = topo::sundog_cluster();
    s.params = topo::sundog_sim_params();
    batch_size = 50000;
  } else if (name == "dissemination") {
    s.topo = topo::build_dissemination();
    batch_size = 1000;
  } else if (name == "linear_road_compact") {
    s.topo = topo::build_linear_road_compact();
    batch_size = 1000;
  } else if (name == "debs13") {
    s.topo = topo::build_debs13();
    batch_size = 1000;
  } else {
    throw std::invalid_argument("unknown topology " + name);
  }
  s.params.duration_s = 20.0;
  s.defaults = sim::uniform_hint_config(s.topo, 4);
  s.defaults.batch_size = batch_size;
  return s;
}

tuning::SpaceOptions space_options(const std::string& strategy,
                                   const std::string& what) {
  tuning::SpaceOptions o;
  o.tune_hints = what.find('h') != std::string::npos;
  o.tune_batch = what.find("batch") != std::string::npos;
  o.tune_concurrency = what.find("cc") != std::string::npos;
  o.informed = strategy == "ibo";
  return o;
}

/// The CLI's build_tuner.
std::unique_ptr<tuning::Tuner> build_tuner(const Scenario& sc,
                                           const std::string& strategy,
                                           const std::string& what,
                                           std::uint64_t seed,
                                           std::size_t bo_threads) {
  if (strategy == "pla" || strategy == "ipla") {
    return std::make_unique<tuning::PlaTuner>(sc.topo, sc.defaults,
                                              strategy == "ipla");
  }
  tuning::ConfigSpace space(sc.topo, space_options(strategy, what),
                            sc.defaults);
  if (strategy == "random") {
    return std::make_unique<tuning::RandomTuner>(std::move(space), seed);
  }
  bo::BayesOptOptions bopts;
  bopts.seed = seed;
  bopts.num_threads = bo_threads;
  return std::make_unique<tuning::BayesTuner>(std::move(space), bopts,
                                              strategy);
}

struct Recipe {
  const char* topology;
  const char* strategy;
  const char* what;
};

/// One fleet unit. Index 8 is the heaviest strand (Sundog DES runs cost
/// ~47 ms each); index 9 is the known failure: SpaceOptions'
/// batch_size_min of 10000 is calibrated for Sundog, the synthetic topology
/// commits no batch that large within the 20 s window, and the zero-streak
/// stop ends the campaign after 3 steps with no non-zero measurement.
/// linear_road is left out: its runs cost 30-70 ms, as much as Sundog's.
constexpr Recipe kFleetUnit[] = {
    {"small", "bo", "h"},
    {"small", "ibo", "h"},
    {"debs13", "bo", "h"},
    {"linear_road_compact", "bo", "h"},
    {"medium", "bo", "h"},
    {"dissemination", "ibo", "h"},
    {"linear_road_compact", "pla", "h"},
    {"small", "random", "h"},
    {"sundog", "bo", "h,batch,cc"},
    {"small", "bo", "h,batch"},
    {"debs13", "ibo", "h"},
    {"medium", "random", "h"},
};

/// tune / tune-many style campaign: fresh tuner and SimObjective per pass
/// with the tune-many seed conventions.
tuning::CampaignSpec plain_spec(std::shared_ptr<const Scenario> sc,
                                const Recipe& r, std::uint64_t seed,
                                std::size_t steps, std::size_t reps,
                                std::size_t passes, std::size_t bo_threads) {
  tuning::CampaignSpec spec;
  spec.name = std::string(r.topology) + "/" + r.strategy + "/" + r.what;
  spec.passes = passes;
  spec.options.max_steps = steps;
  spec.options.best_config_reps = reps;
  const std::string strategy = r.strategy;
  const std::string what = r.what;
  spec.make_tuner = [sc, strategy, what, seed, bo_threads](std::size_t pass) {
    return build_tuner(*sc, strategy, what, seed * 7919 + pass, bo_threads);
  };
  spec.make_objective =
      [sc, seed](std::size_t pass) -> std::unique_ptr<tuning::Objective> {
    return std::make_unique<tuning::SimObjective>(
        sc->topo, sc->cluster, sc->params,
        seed + 0x632be59bd9b4e019ULL * pass);
  };
  return spec;
}

/// `tune medium --fidelity=ladder --gp-window=60 --steps=300`.
tuning::CampaignSpec ladder_spec(std::shared_ptr<const Scenario> sc,
                                 std::uint64_t seed, std::size_t bo_threads) {
  tuning::LadderCampaignConfig lc;
  lc.topology = sc->topo;
  lc.cluster = sc->cluster;
  lc.params = sc->params;
  lc.space = space_options("bo", "h");
  lc.defaults = sc->defaults;
  lc.bo.seed = seed;
  lc.bo.num_threads = bo_threads;
  lc.bo.hyper_mode = bo::HyperMode::kFixed;
  lc.bo.max_observations = 60;
  lc.objective_seed = seed;
  auto factories = tuning::LadderCampaignFactories::create(std::move(lc));
  tuning::CampaignSpec spec;
  spec.name = "medium/bo+ladder/h";
  spec.passes = 1;
  spec.options.max_steps = 300;
  spec.options.best_config_reps = 10;
  spec.make_tuner = factories->tuner_factory();
  spec.make_objective = factories->objective_factory();
  return spec;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_bo", "ladder_long",
                                                 "fleet"};
  return names;
}

Driver driver_of(const std::string& workload) {
  if (workload == "paper_bo" || workload == "ladder_long") {
    return Driver::kSerial;
  }
  if (workload == "fleet") return Driver::kScheduler;
  throw std::invalid_argument("unknown workload " + workload);
}

double reference_unit_seconds(const std::string& workload) {
  if (workload == "paper_bo") return 1.7;
  if (workload == "ladder_long") return 2.8;
  if (workload == "fleet") return 3.0;
  throw std::invalid_argument("unknown workload " + workload);
}

Job build_job(const std::string& workload, std::uint64_t seed,
              std::size_t units, std::size_t width) {
  Job job;
  job.workload = workload;
  job.driver = driver_of(workload);
  // Fleet campaigns are the parallelism: their optimizers run
  // single-threaded, as tune-many pins them.
  const bool fleet = job.driver == Driver::kScheduler;
  job.unit_size = fleet ? std::size(kFleetUnit) : 1;
  job.bo_threads = fleet ? 1 : width;
  std::map<std::string, std::shared_ptr<const Scenario>> scenarios;
  auto make_campaign = [&](std::size_t i, std::uint64_t cseed) {
    const Recipe r = fleet ? kFleetUnit[i % std::size(kFleetUnit)]
                           : Recipe{"medium", "bo", "h"};
    auto& sc = scenarios[r.topology];
    if (!sc) sc = std::make_shared<const Scenario>(make_scenario(r.topology));
    Campaign c;
    c.scenario = sc;
    c.objective_seed = cseed;
    if (fleet) {
      c.make_spec = [sc, r, cseed] { return plain_spec(sc, r, cseed, 40, 5, 2, 1); };
    } else if (workload == "paper_bo") {
      c.make_spec = [sc, r, cseed, width] {
        return plain_spec(sc, r, cseed, 60, 10, 1, width);
      };
    } else {
      c.make_spec = [sc, cseed, width] { return ladder_spec(sc, cseed, width); };
    }
    const tuning::CampaignSpec spec = c.make_spec();
    c.name = spec.name;
    c.options = spec.options;
    return c;
  };

  for (std::size_t i = 0; i < units * job.unit_size; ++i) {
    job.campaigns.push_back(make_campaign(i, campaign_seed(seed, i)));
  }
  // The warm-up campaign has a fixed seed: set-up work must not depend on
  // the workload seed.
  job.warmup = make_campaign(0, 1);
  for (Campaign& c : job.campaigns) {
    tuning::SimObjective baseline(c.scenario->topo, c.scenario->cluster,
                                  c.scenario->params, c.objective_seed);
    c.default_throughput = baseline.evaluate(c.scenario->defaults);
  }
  return job;
}

}  // namespace stormbench
