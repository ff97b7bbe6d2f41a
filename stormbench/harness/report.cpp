#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "common/json.hpp"
#include "common/stats.hpp"

namespace stormbench {

namespace {

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t x) { bytes(&x, sizeof x); }
  void f64(double d) {
    std::uint64_t b = 0;
    std::memcpy(&b, &d, sizeof b);
    u64(b);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

double median(std::vector<double> xs) {
  return xs.empty() ? 0.0 : stormtune::percentile(std::move(xs), 50.0);
}

/// The highest percentile of a fixed grid with at least ten samples above
/// it (the p50 when the sample is too small for any).
struct Tail {
  double pct = 50.0;
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

Tail tail_of(const std::vector<double>& xs) {
  Tail t;
  t.n = xs.size();
  if (xs.empty()) return t;
  constexpr double kGrid[] = {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0};
  for (double p : kGrid) {
    const auto rank = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(xs.size() - 1));
    const std::size_t beyond = xs.size() - 1 - rank;
    if (beyond >= 10) {
      t.pct = p;
      t.beyond = beyond;
      break;
    }
  }
  if (t.beyond == 0) {
    t.beyond = xs.size() - 1 -
               static_cast<std::size_t>(0.5 * static_cast<double>(xs.size() - 1));
  }
  t.value = stormtune::percentile(xs, t.pct);
  return t;
}

/// Peak resident set of this process image in MB. VmHWM starts afresh at
/// exec; ru_maxrss would include the launching process before exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool finite_nonneg(double x) { return std::isfinite(x) && x >= 0.0; }

double span_ms(const Span& s) { return (s.end_us - s.start_us) / 1000.0; }

double sum(const std::vector<double>& xs) {
  double s = 0.0;
  for (double x : xs) s += x;
  return s;
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children may run on other threads and overlap).
std::vector<double> self_times_ms(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      kids[it->second].emplace_back(s.start_us, s.end_us);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, spans[i].start_us);
      hi = std::min(hi, spans[i].end_us);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, span_ms(spans[i]) - covered / 1000.0);
  }
  return self;
}

bool is(const Span& s, const char* name) { return std::strcmp(s.name, name) == 0; }

/// Layer of a leaf work span for the reconciliation ("" = not work).
std::string work_layer(const Span& s) {
  if (is(s, span::kSuggest) || is(s, span::kLadderNext) ||
      is(s, span::kOtherNext) || is(s, span::kObserve) ||
      is(s, span::kInit)) {
    return s.name;
  }
  if (is(s, span::kEval)) return s.rep ? "stormsim.eval.rep" : "stormsim.eval.step";
  if (is(s, span::kSinkWrite) || is(s, span::kSinkFlush)) return "tuning.sink";
  return "";
}

}  // namespace

std::uint64_t result_digest(const tuning::ExperimentResult& r) {
  Fnv f;
  f.str(r.strategy);
  f.u64(r.trace.size());
  for (const tuning::StepRecord& s : r.trace) {
    f.u64(s.step);
    f.f64(s.throughput);
  }
  const sim::TopologyConfig& c = r.best_config;
  f.u64(c.parallelism_hints.size());
  for (int h : c.parallelism_hints) f.u64(static_cast<std::uint64_t>(h));
  for (int v : {c.max_tasks, c.batch_size, c.batch_parallelism,
                c.worker_threads, c.receiver_threads, c.num_ackers}) {
    f.u64(static_cast<std::uint64_t>(v));
  }
  f.f64(r.best_throughput);
  f.u64(r.best_step);
  const stormtune::Summary& st = r.best_rep_stats;
  f.u64(st.n);
  for (double v : {st.mean, st.variance, st.stddev, st.min, st.max}) f.f64(v);
  f.u64(r.best_rep_values.size());
  for (double v : r.best_rep_values) f.f64(v);
  return f.value();
}

std::vector<std::uint64_t> campaign_digests(const RunResult& run) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    out.push_back(run.threw[i] ? 0 : result_digest(run.results[i]));
  }
  return out;
}

std::uint64_t job_digest(const Job& job, const RunResult& run) {
  Fnv f;
  const std::vector<std::uint64_t> d = campaign_digests(run);
  for (std::size_t i = 0; i < d.size(); ++i) {
    f.str(job.campaigns[i].name);
    f.u64(job.campaigns[i].objective_seed);
    f.f64(job.campaigns[i].default_throughput);
    f.u64(d[i]);
  }
  return f.value();
}

bool campaign_failed(const RunResult& run, std::size_t i) {
  return run.threw[i] || run.results[i].best_step == 0;
}

void check_run(const Job& job, const RunResult& run,
               std::vector<std::string>& errors) {
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    if (run.threw[i]) continue;  // counted as failed, reported when thrown
    const tuning::ExperimentResult& r = run.results[i];
    const Campaign& c = job.campaigns[i];
    const std::string who = "campaign " + std::to_string(i) + " (" +
                            c.name + "): ";
    if (r.trace.empty() || r.trace.size() > c.options.max_steps) {
      errors.push_back(who + "trace length " + std::to_string(r.trace.size()) +
                       " outside [1, step budget]");
      continue;
    }
    double best = 0.0;
    for (std::size_t k = 0; k < r.trace.size(); ++k) {
      if (r.trace[k].step != k + 1) errors.push_back(who + "step numbering");
      if (!finite_nonneg(r.trace[k].throughput)) {
        errors.push_back(who + "non-finite or negative step throughput");
      }
      best = std::max(best, r.trace[k].throughput);
    }
    if (r.best_throughput != best) {
      errors.push_back(who + "best_throughput is not the trace maximum");
    }
    const std::size_t reps = c.options.best_config_reps;
    if (r.best_step > 0) {
      if (r.best_step > r.trace.size() ||
          r.trace[r.best_step - 1].throughput != r.best_throughput) {
        errors.push_back(who + "best_step does not point at the best");
      }
      try {
        r.best_config.validate(c.scenario->topo);
      } catch (const std::exception& e) {
        errors.push_back(who + "best config invalid: " + e.what());
      }
      if (r.best_rep_values.size() != reps || r.best_rep_stats.n != reps) {
        errors.push_back(who + "repetition count " +
                         std::to_string(r.best_rep_values.size()) + " != " +
                         std::to_string(reps));
      }
      for (double v : r.best_rep_values) {
        if (!finite_nonneg(v)) {
          errors.push_back(who + "non-finite or negative repetition");
        }
      }
    } else if (!r.best_rep_values.empty()) {
      errors.push_back(who + "repetitions without a working configuration");
    }
    // The decorators saw exactly the winning pass's measurements.
    bool seen = false;
    for (const auto& p : run.probes[i]->passes) {
      if (p->steps.size() != r.trace.size()) continue;
      bool same = true;
      for (std::size_t k = 0; k < r.trace.size() && same; ++k) {
        same = p->steps[k].throughput == r.trace[k].throughput;
      }
      seen = seen || same;
    }
    if (!seen) errors.push_back(who + "probed steps differ from the trace");
  }
}

std::vector<Metric> end_to_end_metrics(const Job& job, const RunResult& run,
                                       double setup_s) {
  std::vector<double> step_ms;
  std::vector<double> t95_s;
  std::vector<double> local_t95_s;
  std::vector<double> log_gains;
  std::size_t failed = 0;
  std::size_t no_baseline = 0;
  std::string failed_names;
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    const CampaignProbe& cp = *run.probes[i];
    double best = 0.0;
    for (const auto& p : cp.passes) {
      for (const StepSample& s : p->steps) {
        step_ms.push_back((s.end_us - s.start_us) / 1000.0);
        best = std::max(best, s.throughput);
      }
    }
    if (campaign_failed(run, i)) {
      ++failed;
      failed_names += " " + std::to_string(i) + ":" + job.campaigns[i].name;
      continue;
    }
    double first = INFINITY;
    double last = cp.start_us();
    for (const auto& p : cp.passes) {
      for (const StepSample& s : p->steps) {
        if (s.throughput >= 0.95 * best) {
          first = std::min(first, s.end_us);
          break;
        }
      }
      if (!p->steps.empty()) last = std::max(last, p->steps.back().end_us);
    }
    // Every campaign of the workload is submitted when the run starts; the
    // serial driver then runs them one after another.
    t95_s.push_back((first - run.start_us) / 1e6);
    local_t95_s.push_back((first - cp.start_us()) / 1e6);
    const double base = job.campaigns[i].default_throughput;
    const tuning::ExperimentResult& r = run.results[i];
    const double tuned =
        r.best_rep_stats.n > 0 ? r.best_rep_stats.mean : r.best_throughput;
    if (base > 0.0 && tuned > 0.0) {
      log_gains.push_back(std::log(tuned / base));
    } else {
      ++no_baseline;
    }
    std::printf("campaign %3zu  %-28s best step %3zu of %3zu  t95 %7.3f s "
                "(%6.3f s after its start, last step %6.3f s)  gain %.3f\n",
                i, job.campaigns[i].name.c_str(), r.best_step, r.trace.size(),
                t95_s.back(), local_t95_s.back(),
                (last - cp.start_us()) / 1e6, tuned / base);
  }
  if (t95_s.empty() || log_gains.empty()) {
    throw std::runtime_error("no campaign of the run found a working config");
  }
  const std::size_t n = run.results.size();
  const Tail tail = tail_of(step_ms);

  std::printf("steps:        %zu; step_ms_tail is p%g (%zu steps beyond it)\n",
              tail.n, tail.pct, tail.beyond);
  std::printf("failed:       %zu of %zu campaigns%s\n", failed, n,
              failed_names.c_str());
  std::printf("tuned_gain:   over %zu campaigns (%zu without a working "
              "default skipped)\n",
              log_gains.size(), no_baseline);
  std::printf("95%% point:    mean %.3f s after each campaign's own start\n",
              sum(local_t95_s) / static_cast<double>(local_t95_s.size()));
  return {
      {"tune_s", run.tune_s, "s"},
      {"step_ms_p50", median(step_ms), "ms"},
      {"step_ms_tail", tail.value, "ms"},
      // The mean, not the median: the median is one campaign's time and
      // moves with that campaign's place in the queue from seed to seed.
      {"time_to_95_s", sum(t95_s) / static_cast<double>(t95_s.size()), "s"},
      {"tuned_gain", std::exp(sum(log_gains) / static_cast<double>(log_gains.size())), "x"},
      // Add-half estimate: never 0, so a ratio to the parent is defined.
      {"failed_frac",
       (static_cast<double>(failed) + 0.5) / (static_cast<double>(n) + 1.0),
       "ratio"},
      {"cpu_s", run.cpu_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", setup_s, "s"},
  };
}

std::vector<Metric> layer_metrics(const RunResult& traced,
                                  double fleet_speedup) {
  const std::vector<Span>& spans = traced.spans;
  const std::vector<double> self = self_times_ms(spans);
  std::vector<double> suggest, ladder_next, eval, step_wait;
  double suggest_cpu_ms = 0.0, observe_ms = 0.0, init_ms = 0.0;
  double eval_step = 0.0, eval_rep = 0.0, eval_r1 = 0.0, eval_r2 = 0.0;
  double sim_ms = 0.0, sink_ms = 0.0, busy_ms = 0.0;
  std::size_t crashed = 0;
  std::size_t sink_records = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ms = span_ms(s);
    if (is(s, span::kSuggest)) {
      suggest.push_back(ms);
      suggest_cpu_ms += s.cpu_us / 1000.0;
    } else if (is(s, span::kLadderNext)) {
      ladder_next.push_back(ms);
    } else if (is(s, span::kObserve)) {
      observe_ms += ms;
    } else if (is(s, span::kInit)) {
      init_ms += ms;
    } else if (is(s, span::kEval)) {
      eval.push_back(ms);
      (s.rep ? eval_rep : eval_step) += ms;
      if (s.rung == 1) eval_r1 += ms;
      if (s.rung == 2) eval_r2 += ms;
      sim_ms += s.sim_ms;
      crashed += s.crashed ? 1 : 0;
    } else if (is(s, span::kStep)) {
      step_wait.push_back(self[i]);
    } else if (is(s, span::kSinkWrite) || is(s, span::kSinkFlush)) {
      sink_ms += ms;
      sink_records += is(s, span::kSinkWrite) ? 1 : 0;
    }
    const std::string layer = work_layer(s);
    if (!layer.empty() && layer != "tuning.sink") busy_ms += ms;
  }
  std::size_t evictions = 0;
  tuning::LadderStats ls{};
  for (const auto& cp : traced.probes) {
    for (const auto& p : cp->passes) {
      evictions += p->evictions;
      ls.screened += p->ladder_stats.screened;
      ls.rung1_evals += p->ladder_stats.rung1_evals;
      ls.rung2_evals += p->ladder_stats.rung2_evals;
    }
  }
  const double eval_ms = sum(eval);
  const Tail suggest_tail = tail_of(suggest);
  const Tail eval_tail = tail_of(eval);
  const Tail wait_tail = tail_of(step_wait);
  const auto count = [](std::size_t n) { return static_cast<double>(n); };
  return {
      {"bayesopt.suggest_ms", sum(suggest), "ms"},
      {"bayesopt.suggest_ms_p50", median(suggest), "ms"},
      {"bayesopt.suggest_ms_tail", suggest_tail.value, "ms"},
      {"bayesopt.suggest_calls", count(suggest.size()), "count"},
      {"bayesopt.suggest_cpu_ms", suggest_cpu_ms, "ms"},
      {"bayesopt.observe_ms", observe_ms, "ms"},
      {"bayesopt.evictions", count(evictions), "count"},
      {"tuning.ladder_next_ms", sum(ladder_next), "ms"},
      {"tuning.ladder_next_ms_p50", median(ladder_next), "ms"},
      {"tuning.ladder_screened", count(ls.screened), "count"},
      {"tuning.ladder_rung1_evals", count(ls.rung1_evals), "count"},
      {"tuning.ladder_rung2_evals", count(ls.rung2_evals), "count"},
      {"tuning.ladder_promote_ratio",
       ls.rung1_evals > 0 ? count(ls.rung2_evals) / count(ls.rung1_evals)
                          : 0.0,
       "ratio"},
      {"stormsim.eval_ms", eval_ms, "ms"},
      {"stormsim.eval_ms_p50", median(eval), "ms"},
      {"stormsim.eval_ms_tail", eval_tail.value, "ms"},
      {"stormsim.eval_ms.step", eval_step, "ms"},
      {"stormsim.eval_ms.rep", eval_rep, "ms"},
      {"stormsim.eval_ms.rung1", eval_r1, "ms"},
      {"stormsim.eval_ms.rung2", eval_r2, "ms"},
      {"stormsim.evals", count(eval.size()), "count"},
      {"stormsim.sim_rate", eval_ms > 0.0 ? sim_ms / eval_ms : 0.0, "ms/ms"},
      {"stormsim.crashed_frac",
       eval.empty() ? 0.0 : count(crashed) / count(eval.size()), "ratio"},
      {"tuning.init_ms", init_ms, "ms"},
      {"tuning.step_wait_ms_p50", median(step_wait), "ms"},
      {"tuning.step_wait_ms_tail", wait_tail.value, "ms"},
      {"tuning.sched_busy_frac",
       busy_ms / (traced.tune_s * 1000.0 * count(traced.workers)), "ratio"},
      {"tuning.steals", count(traced.steals), "count"},
      {"tuning.sink_write_ms", sink_ms, "ms"},
      {"tuning.sink_records", count(sink_records), "count"},
      {"tuning.fleet_speedup", fleet_speedup, "x"},
  };
}

void print_reconciliation(const RunResult& traced) {
  const std::vector<Span>& spans = traced.spans;
  const std::vector<double> self = self_times_ms(spans);
  // Self time (summed over threads) per layer, plus the non-work rows.
  std::map<std::string, double> self_ms;
  double step_wait_ms = 0.0;
  double campaign_self_ms = 0.0;
  struct Edge {
    double t;
    int delta;
    std::string layer;
  };
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string layer = work_layer(s);
    if (!layer.empty()) {
      self_ms[layer] += self[i];
      edges.push_back({std::max(s.start_us, traced.start_us), +1, layer});
      edges.push_back({std::min(s.end_us, traced.end_us), -1, layer});
    } else if (is(s, span::kStep)) {
      step_wait_ms += self[i];
    } else if (is(s, span::kCampaign)) {
      campaign_self_ms += self[i];
    }
  }
  // Wall attribution: every instant of the timed region is shared equally
  // by the work spans active at that instant; time with none is residual.
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.t < b.t || (a.t == b.t && a.delta < b.delta);
  });
  std::map<std::string, int> active;
  std::map<std::string, double> wall_ms;
  int total = 0;
  double prev = traced.start_us;
  for (const Edge& e : edges) {
    if (e.t > prev && total > 0) {
      for (const auto& [layer, n] : active) {
        if (n > 0) wall_ms[layer] += (e.t - prev) / 1000.0 * n / total;
      }
    }
    prev = std::max(prev, e.t);
    active[e.layer] += e.delta;
    total += e.delta;
  }
  const double tune_ms = traced.tune_s * 1000.0;
  double attributed = 0.0;
  std::printf("layer reconciliation (traced tune_s %.1f ms, %zu workers)\n",
              tune_ms, traced.workers);
  std::printf("  %-22s %12s %12s %8s\n", "layer", "self ms", "wall ms",
              "wall %");
  for (const auto& [layer, ms] : self_ms) {
    attributed += wall_ms[layer];
    std::printf("  %-22s %12.1f %12.1f %7.1f%%\n", layer.c_str(), ms,
                wall_ms[layer], 100.0 * wall_ms[layer] / tune_ms);
  }
  std::printf("  %-22s %12s %12.1f %7.1f%%\n", "residual (no layer)", "-",
              tune_ms - attributed, 100.0 * (tune_ms - attributed) / tune_ms);
  std::printf("  not work: step wait (step self) %.1f ms, campaign self "
              "%.1f ms (thread time)\n",
              step_wait_ms, campaign_self_ms);
}

void write_trace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  for (const Span& s : spans) {
    stormtune::JsonObject o;
    o["id"] = stormtune::Json(static_cast<std::size_t>(s.id));
    o["parent"] = stormtune::Json(static_cast<std::size_t>(s.parent));
    o["name"] = stormtune::Json(s.name);
    o["tid"] = stormtune::Json(static_cast<std::size_t>(s.tid));
    o["start_us"] = stormtune::Json(s.start_us);
    o["end_us"] = stormtune::Json(s.end_us);
    o["campaign"] = stormtune::Json(static_cast<int>(s.campaign));
    o["pass"] = stormtune::Json(static_cast<int>(s.pass));
    o["step"] = stormtune::Json(static_cast<int>(s.step));
    if (s.cpu_us != 0.0) o["cpu_us"] = stormtune::Json(s.cpu_us);
    if (is(s, span::kEval)) {
      o["sim_ms"] = stormtune::Json(s.sim_ms);
      o["rung"] = stormtune::Json(s.rung);
      o["rep"] = stormtune::Json(s.rep);
      o["crashed"] = stormtune::Json(s.crashed);
    }
    out << stormtune::Json(std::move(o)).dump() << '\n';
  }
}

}  // namespace stormbench
