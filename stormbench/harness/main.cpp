// stormbench — campaign-level benchmark of stormtune.
//
//   stormbench --workload NAME --seed N --seconds S --trace 0|1
//              [--trace-out FILE]
//   stormbench compare --benchmark BENCHMARK.json PARENT.jsonl CHANGE.jsonl
//
// A run sets the workload up five times (setup_s is the median), then
// runs its campaigns in one timed region. --trace 0 reports the end-to-end
// metrics and re-runs the first campaigns to check their digests;
// --trace 1 runs a smaller job untraced, then traced (and for fleet again
// traced on one worker), checks that all digests agree, and reports the
// per-layer metrics. The last stdout line is the JSON result. Any failed
// output check prints "correct": false and exits 1. See README.md.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/isa.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "compare.hpp"
#include "probe.hpp"
#include "report.hpp"
#include "tuning/experiment.hpp"
#include "tuning/result_sink.hpp"
#include "workloads.hpp"

namespace stormbench {
namespace {

using stormtune::Json;
using stormtune::JsonObject;
using stormtune::ThreadPool;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: stormbench --workload paper_bo|ladder_long|fleet "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
               "       stormbench compare --benchmark BENCHMARK.json "
               "PARENT.jsonl CHANGE.jsonl\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage();
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-out") a.trace_out = v;
    else usage();
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end() ||
      !(a.seconds > 0.0)) {
    usage();
  }
  return a;
}

std::vector<tuning::CampaignSpec> fresh_specs(const Job& job,
                                              std::size_t count) {
  std::vector<tuning::CampaignSpec> specs;
  for (std::size_t i = 0; i < count; ++i) {
    specs.push_back(job.campaigns[i].make_spec());
  }
  return specs;
}

/// Run `specs` as one timed region: serially through run_experiment (one
/// pass each, repetitions on `pool`) or all at once through run_campaigns
/// on `workers` threads with a JSONL result sink.
RunResult execute(Driver driver, const std::vector<tuning::CampaignSpec>& specs,
                  Mode mode, std::size_t workers, ThreadPool* pool) {
  const std::size_t n = specs.size();
  RunResult run;
  run.workers = workers;
  run.results.resize(n);
  run.threw.assign(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    run.probes.push_back(std::make_unique<CampaignProbe>(
        static_cast<std::int32_t>(i), specs[i].passes));
  }
  set_suggest_cpu_per_thread(driver == Driver::kScheduler);
  const std::uint64_t run_span = new_span_id();
  const double cpu0 = cpu_us(false);
  run.start_us = now_us();

  if (driver == Driver::kSerial) {
    for (std::size_t i = 0; i < n; ++i) {
      CampaignProbe& cp = *run.probes[i];
      const tuning::CampaignSpec spec = probe_spec(specs[i], cp, mode);
      try {
        std::unique_ptr<tuning::Tuner> tuner = spec.make_tuner(0);
        std::unique_ptr<tuning::Objective> objective = spec.make_objective(0);
        run.results[i] =
            tuning::run_experiment(*tuner, *objective, spec.options, *pool);
      } catch (const std::exception& e) {
        run.threw[i] = true;
        std::fprintf(stderr, "campaign %zu threw: %s\n", i, e.what());
      }
      if (mode == Mode::kTrace) {
        Span s;
        s.id = cp.span_id;
        s.parent = run_span;
        s.name = span::kCampaign;
        s.start_us = cp.start_us();
        s.end_us = now_us();
        s.campaign = cp.index;
        record_span(s);
      }
    }
  } else {
    std::vector<tuning::CampaignSpec> probed;
    for (std::size_t i = 0; i < n; ++i) {
      probed.push_back(probe_spec(specs[i], *run.probes[i], mode));
    }
    std::ostringstream jsonl;
    std::unique_ptr<tuning::ResultSinkBackend> backend =
        std::make_unique<tuning::JsonlResultBackend>(jsonl);
    if (mode == Mode::kTrace) {
      backend = probe_backend(std::move(backend), run_span);
    }
    tuning::ResultSinkOptions sink_options;
    sink_options.expected_records = n;
    try {
      tuning::ResultSink sink(std::move(backend), sink_options);
      tuning::CampaignSchedulerOptions options;
      options.num_threads = workers;
      tuning::MultiCampaignResult out =
          tuning::run_campaigns(probed, options, &sink);
      sink.close();
      run.results = std::move(out.results);
      run.steals = out.steal_count;
    } catch (const std::exception& e) {
      run.threw.assign(n, true);
      run.results.assign(n, {});
      std::fprintf(stderr, "run_campaigns threw: %s\n", e.what());
    }
    const std::string text = jsonl.str();
    run.sink_lines =
        static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  }

  run.end_us = now_us();
  run.tune_s = (run.end_us - run.start_us) / 1e6;
  run.cpu_s = (cpu_us(false) - cpu0) / 1e6;
  if (mode == Mode::kTrace) {
    Span root;
    root.id = run_span;
    root.name = span::kRun;
    root.start_us = run.start_us;
    root.end_us = run.end_us;
    record_span(root);
    run.spans = drain_spans();
    if (driver == Driver::kScheduler) {
      // Concurrent campaigns end with their last span.
      std::vector<double> end(n, 0.0);
      for (const Span& s : run.spans) {
        if (s.campaign >= 0) {
          auto c = static_cast<std::size_t>(s.campaign);
          end[c] = std::max(end[c], s.end_us);
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        Span s;
        s.id = run.probes[i]->span_id;
        s.parent = run_span;
        s.name = span::kCampaign;
        s.start_us = run.probes[i]->start_us();
        s.end_us = end[i];
        s.campaign = static_cast<std::int32_t>(i);
        run.spans.push_back(s);
      }
    }
  }
  return run;
}

double median_of(std::vector<double> xs) {
  return stormtune::percentile(std::move(xs), 50.0);
}

Json load_average() {
  double l[3] = {0.0, 0.0, 0.0};
  if (getloadavg(l, 3) != 3) return Json();
  return Json(stormtune::JsonArray{Json(l[0]), Json(l[1]), Json(l[2])});
}

std::string hex(std::uint64_t x) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

bool same_digests(const RunResult& a, const RunResult& b, std::size_t count) {
  const std::vector<std::uint64_t> da = campaign_digests(a);
  const std::vector<std::uint64_t> db = campaign_digests(b);
  return std::equal(da.begin(), da.begin() + static_cast<std::ptrdiff_t>(count),
                    db.begin());
}

int run_benchmark(const Args& a) {
  const Json load_before = load_average();
  const std::size_t width =
      std::min<std::size_t>(ThreadPool::default_thread_count(), 4);
  const Driver driver = driver_of(a.workload);
  // Size the job from the run length at the reference unit cost. The
  // traced run executes its job two times (fleet: also once on a single
  // worker, which costs about `width` times as much).
  const double executions =
      !a.trace ? 1.0 : driver == Driver::kSerial ? 2.0 : 2.0 + static_cast<double>(width);
  const auto units = static_cast<std::size_t>(std::max(
      1.0, std::floor(0.8 * a.seconds /
                      (reference_unit_seconds(a.workload) * executions))));

  // Set-up: topologies, factories, default baselines, pools, warm-up.
  std::vector<double> setups;
  Job job;
  std::unique_ptr<ThreadPool> pool;
  for (int k = 0; k < 5; ++k) {
    const double t0 = now_us();
    job = build_job(a.workload, a.seed, units, width);
    pool.reset();
    if (driver == Driver::kSerial) pool = std::make_unique<ThreadPool>(width);
    std::vector<tuning::CampaignSpec> warm = {job.warmup.make_spec()};
    warm[0].options.max_steps = 5;
    warm[0].options.best_config_reps = 2;
    execute(driver, warm, Mode::kStepClock, width, pool.get());
    setups.push_back((now_us() - t0) / 1e6);
  }
  const double setup_s = median_of(setups);
  const std::size_t n = job.campaigns.size();
  std::printf("workload:     %s, seed %llu, %zu units, %zu campaigns\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              units, n);

  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  RunResult main;
  if (!a.trace) {
    main = execute(driver, fresh_specs(job, n), Mode::kStepClock, width,
                   pool.get());
    check_run(job, main, errors);
    // The same inputs give the same results: re-run the first campaigns.
    const std::size_t k = std::min<std::size_t>(job.unit_size, 4);
    const RunResult again = execute(driver, fresh_specs(job, k),
                                    Mode::kStepClock, width, pool.get());
    if (!same_digests(main, again, k)) {
      errors.push_back("re-run of the first campaigns: result digest differs");
    }
    metrics = end_to_end_metrics(job, main, setup_s);
  } else {
    const RunResult plain = execute(driver, fresh_specs(job, n),
                                    Mode::kStepClock, width, pool.get());
    main = execute(driver, fresh_specs(job, n), Mode::kTrace, width,
                   pool.get());
    check_run(job, main, errors);
    if (!same_digests(plain, main, n)) {
      errors.push_back("traced run: result digest differs from untraced");
    }
    double speedup = 0.0;
    if (driver == Driver::kScheduler) {
      const RunResult single = execute(driver, fresh_specs(job, n),
                                       Mode::kTrace, 1, nullptr);
      if (!same_digests(single, main, n)) {
        errors.push_back("fleet: 1-worker digest differs from " +
                         std::to_string(width) + "-worker digest");
      }
      speedup = single.tune_s / main.tune_s;
      std::printf("fleet:        1 worker %.3f s, %zu workers %.3f s\n",
                  single.tune_s, width, main.tune_s);
    }
    std::printf("tracing:      traced %.3f s, untraced %.3f s, overhead "
                "%+.3f s\n",
                main.tune_s, plain.tune_s, main.tune_s - plain.tune_s);
    print_reconciliation(main);
    metrics = layer_metrics(main, speedup);
    if (!a.trace_out.empty()) write_trace(a.trace_out, main.spans);
  }
  if (driver == Driver::kScheduler &&
      main.sink_lines != n) {
    errors.push_back("result sink wrote " + std::to_string(main.sink_lines) +
                     " lines for " + std::to_string(n) + " campaigns");
  }
  std::size_t threw = 0;
  for (bool t : main.threw) threw += t ? 1 : 0;

  JsonObject fp;
  fp["workload"] = Json(a.workload);
  fp["seed"] = Json(static_cast<std::size_t>(a.seed));
  fp["seconds"] = Json(a.seconds);
  fp["trace"] = Json(a.trace);
  fp["units"] = Json(units);
  fp["campaigns"] = Json(n);
  fp["nproc"] = Json(static_cast<std::size_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  fp["hardware_concurrency"] =
      Json(static_cast<std::size_t>(std::thread::hardware_concurrency()));
  fp["optimizer_pool_threads"] = Json(job.bo_threads);
  fp["repetition_pool_threads"] =
      Json(driver == Driver::kSerial ? width : std::size_t{0});
  fp["strand_pool_threads"] =
      Json(driver == Driver::kScheduler ? width : std::size_t{0});
  fp["isa"] = Json(stormtune::isa::to_string(stormtune::isa::selected()));
  fp["build_type"] = Json(STORMBENCH_BUILD_TYPE);
#if defined(__clang__)
  fp["compiler"] = Json(std::string("clang ") + __clang_version__);
#else
  fp["compiler"] = Json(std::string("gcc ") + __VERSION__);
#endif
  fp["load_before"] = load_before;
  fp["load_after"] = load_average();
  fp["digest"] = Json(hex(job_digest(job, main)));
  std::printf("fingerprint:  %s\n", Json(std::move(fp)).dump().c_str());
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  JsonObject m;
  for (const Metric& x : metrics) {
    JsonObject v;
    v["value"] = Json(x.value);
    v["unit"] = Json(x.unit);
    m[x.name] = Json(std::move(v));
    std::printf("%-28s %14.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  JsonObject result;
  result["correct"] = Json(errors.empty());
  result["attempted"] = Json(n);
  result["failed"] = Json(threw);
  result["metrics"] = Json(std::move(m));
  std::printf("%s\n", Json(std::move(result)).dump().c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace stormbench

int main(int argc, char** argv) {
  try {
    if (argc > 1 && std::strcmp(argv[1], "compare") == 0) {
      return stormbench::compare_main(argc - 1, argv + 1);
    }
    return stormbench::run_benchmark(stormbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stormbench: %s\n", e.what());
    return 1;
  }
}
