#include "compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/stats.hpp"

namespace stormbench {

namespace {

using stormtune::Json;

struct MetricSpec {
  bool lower_is_better = true;
  double bound = -1.0;  // < 0: no bound (per-layer metric)
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

std::map<std::string, MetricSpec> load_specs(const std::string& path) {
  const Json doc = Json::parse(read_file(path));
  std::map<std::string, MetricSpec> specs;
  for (const char* group : {"end_to_end", "per_layer"}) {
    if (!doc.contains(group)) continue;
    for (const Json& m : doc.at(group).as_array()) {
      MetricSpec s;
      s.lower_is_better = m.at("better").as_string() == "lower";
      if (m.contains("bound")) s.bound = m.at("bound").as_number();
      specs[m.at("name").as_string()] = s;
    }
  }
  return specs;
}

/// (workload, metric) -> values in file order, from correct records only.
using Series = std::map<std::pair<std::string, std::string>, std::vector<double>>;

Series load_records(const std::string& path) {
  Series out;
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const Json rec = Json::parse(line);
    const Json& result = rec.at("result");
    if (!result.at("correct").as_bool()) continue;
    const std::string workload = rec.at("workload").as_string();
    for (const auto& [name, m] : result.at("metrics").as_object()) {
      out[{workload, name}].push_back(m.at("value").as_number());
    }
  }
  return out;
}

/// Python's statistics.quantiles(xs, n=4) (exclusive method): q1, q2, q3.
std::vector<double> quartiles(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const auto ld = static_cast<long>(xs.size());
  if (ld < 2) return {xs[0], xs[0], xs[0]};
  const long m = ld + 1;
  std::vector<double> q;
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q.push_back((xs[static_cast<std::size_t>(j - 1)] *
                     static_cast<double>(4 - delta) +
                 xs[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                4.0);
  }
  return q;
}

}  // namespace

int compare_main(int argc, char** argv) {
  std::string bench_path = "BENCHMARK.json";
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--benchmark" && i + 1 < argc) {
      bench_path = argv[++i];
    } else {
      files.push_back(a);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr, "usage: stormbench compare [--benchmark FILE] "
                         "PARENT.jsonl CHANGE.jsonl\n");
    return 2;
  }
  const std::map<std::string, MetricSpec> specs = load_specs(bench_path);
  const Series parent = load_records(files[0]);
  const Series change = load_records(files[1]);

  std::printf("%-12s %-28s %12s %12s %8s %7s %9s  %s\n", "workload", "metric",
              "parent p50", "change p50", "delta", "wins", "welch p",
              "verdict");
  for (const auto& [key, pv] : parent) {
    auto it = change.find(key);
    auto spec = specs.find(key.second);
    if (it == change.end() || spec == specs.end()) continue;
    const std::vector<double>& cv = it->second;
    const MetricSpec& ms = spec->second;
    const std::vector<double> qp = quartiles(pv);
    const std::vector<double> qc = quartiles(cv);
    const double mp = qp[1];
    const double mc = qc[1];
    const double iqr = qp[2] - qp[0];
    // Positive = the change is worse, as a share of the parent median.
    const double sign = ms.lower_is_better ? 1.0 : -1.0;
    const double worse_by = mp != 0.0 ? sign * (mc - mp) / std::abs(mp) : 0.0;
    // Alternating pairs: the i-th run of each side.
    const std::size_t pairs = std::min(pv.size(), cv.size());
    std::size_t wins = 0;
    std::size_t losses = 0;
    for (std::size_t i = 0; i < pairs; ++i) {
      const double d = sign * (cv[i] - pv[i]);
      wins += d < 0.0 ? 1 : 0;
      losses += d > 0.0 ? 1 : 0;
    }
    const bool all_better =
        ms.lower_is_better
            ? *std::max_element(cv.begin(), cv.end()) <
                  *std::min_element(pv.begin(), pv.end())
            : *std::min_element(cv.begin(), cv.end()) >
                  *std::max_element(pv.begin(), pv.end());
    const bool resolved_gap = std::abs(mc - mp) > iqr;
    const double spread = mp != 0.0 ? iqr / std::abs(mp) : 0.0;
    std::string verdict;
    if (pairs >= 10 && wins * 10 >= pairs * 9 && resolved_gap) {
      verdict = "better";
    } else if (pairs >= 10 && losses * 10 >= pairs * 9 && resolved_gap) {
      verdict = "worse";
    } else if (ms.bound < 0.0) {
      verdict = "unresolved (no bound)";
    } else if (worse_by > ms.bound) {
      verdict = "worse";
    } else if (spread > ms.bound && !all_better) {
      verdict = "unresolved (spread > bound)";
    } else {
      verdict = "within bound";
    }
    char p[32] = "-";
    if (pv.size() >= 2 && cv.size() >= 2) {
      std::snprintf(p, sizeof p, "%.3g",
                    stormtune::welch_t_test(pv, cv).p_value);
    }
    std::printf("%-12s %-28s %12.6g %12.6g %+7.1f%% %3zu/%-3zu %9s  %s\n",
                key.first.c_str(), key.second.c_str(), mp, mc,
                100.0 * (mp != 0.0 ? (mc - mp) / std::abs(mp) : 0.0), wins,
                pairs, p, verdict.c_str());
  }
  return 0;
}

}  // namespace stormbench
