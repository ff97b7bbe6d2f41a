#include "tuning/report.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/table.hpp"

namespace stormtune::tuning {

Json config_to_json(const sim::TopologyConfig& config) {
  JsonObject o;
  JsonArray hints;
  for (int h : config.parallelism_hints) hints.emplace_back(h);
  o["parallelism_hints"] = Json(std::move(hints));
  o["max_tasks"] = config.max_tasks;
  o["batch_size"] = config.batch_size;
  o["batch_parallelism"] = config.batch_parallelism;
  o["worker_threads"] = config.worker_threads;
  o["receiver_threads"] = config.receiver_threads;
  o["num_ackers"] = config.num_ackers;
  return Json(std::move(o));
}

sim::TopologyConfig config_from_json(const Json& j) {
  sim::TopologyConfig c;
  for (const auto& h : j.at("parallelism_hints").as_array()) {
    c.parallelism_hints.push_back(static_cast<int>(h.as_int()));
  }
  c.max_tasks = static_cast<int>(j.at("max_tasks").as_int());
  c.batch_size = static_cast<int>(j.at("batch_size").as_int());
  c.batch_parallelism = static_cast<int>(j.at("batch_parallelism").as_int());
  c.worker_threads = static_cast<int>(j.at("worker_threads").as_int());
  c.receiver_threads = static_cast<int>(j.at("receiver_threads").as_int());
  c.num_ackers = static_cast<int>(j.at("num_ackers").as_int());
  return c;
}

Json experiment_to_json(const ExperimentResult& result) {
  JsonObject o;
  o["strategy"] = result.strategy;
  JsonArray trace;
  for (const StepRecord& s : result.trace) {
    JsonObject e;
    e["step"] = s.step;
    e["throughput"] = s.throughput;
    e["suggest_seconds"] = s.suggest_seconds;
    trace.emplace_back(std::move(e));
  }
  o["trace"] = Json(std::move(trace));
  // best_step == 0: no step measured a non-zero throughput, so best_config
  // is a default-constructed placeholder that nothing ever ran.
  o["best_config"] =
      result.best_step > 0 ? config_to_json(result.best_config) : Json();
  o["best_throughput"] = result.best_throughput;
  o["best_step"] = result.best_step;
  JsonArray reps;
  for (double v : result.best_rep_values) reps.emplace_back(v);
  o["best_rep_values"] = Json(std::move(reps));
  o["mean_suggest_seconds"] = result.mean_suggest_seconds;
  o["max_suggest_seconds"] = result.max_suggest_seconds;
  return Json(std::move(o));
}

ExperimentResult experiment_from_json(const Json& j) {
  ExperimentResult r;
  r.strategy = j.at("strategy").as_string();
  for (const auto& e : j.at("trace").as_array()) {
    StepRecord s;
    s.step = static_cast<std::size_t>(e.at("step").as_int());
    s.throughput = e.at("throughput").as_number();
    s.suggest_seconds = e.at("suggest_seconds").as_number();
    r.trace.push_back(s);
  }
  if (!j.at("best_config").is_null()) {
    r.best_config = config_from_json(j.at("best_config"));
  }
  r.best_throughput = j.at("best_throughput").as_number();
  r.best_step = static_cast<std::size_t>(j.at("best_step").as_int());
  for (const auto& v : j.at("best_rep_values").as_array()) {
    r.best_rep_values.push_back(v.as_number());
  }
  if (!r.best_rep_values.empty()) {
    r.best_rep_stats = summarize(r.best_rep_values);
  }
  r.mean_suggest_seconds = j.at("mean_suggest_seconds").as_number();
  r.max_suggest_seconds = j.at("max_suggest_seconds").as_number();
  return r;
}

std::string trace_to_csv(const ExperimentResult& result) {
  TextTable t({"strategy", "step", "throughput", "suggest_seconds",
               "best_so_far"});
  double best = 0.0;
  for (const StepRecord& s : result.trace) {
    best = std::max(best, s.throughput);
    t.add_row({result.strategy, std::to_string(s.step),
               TextTable::num(s.throughput, 4),
               TextTable::num(s.suggest_seconds, 6),
               TextTable::num(best, 4)});
  }
  return t.to_csv();
}

std::string summary_to_csv(const std::vector<ExperimentResult>& results) {
  TextTable t({"strategy", "mean", "min", "max", "best_step", "steps"});
  for (const ExperimentResult& r : results) {
    t.add_row({r.strategy, TextTable::num(r.best_rep_stats.mean, 4),
               TextTable::num(r.best_rep_stats.min, 4),
               TextTable::num(r.best_rep_stats.max, 4),
               std::to_string(r.best_step), std::to_string(r.trace.size())});
  }
  return t.to_csv();
}

}  // namespace stormtune::tuning
