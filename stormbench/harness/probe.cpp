#include "probe.hpp"

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <optional>

namespace stormbench {

namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

struct Buffer {
  std::uint32_t tid = 0;
  std::vector<Span> spans;
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<Buffer>> g_registry;  // never shrinks
thread_local Buffer* t_buffer = nullptr;
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<bool> g_cpu_per_thread{false};

Buffer& local_buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<Buffer>());
    t_buffer = g_registry.back().get();
    t_buffer->tid = static_cast<std::uint32_t>(g_registry.size() - 1);
    t_buffer->spans.reserve(1 << 14);
  }
  return *t_buffer;
}

double timeval_us(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e6 +
         static_cast<double>(tv.tv_usec);
}

void record_init(const CampaignProbe& cp, std::size_t pass, double t0,
                 Mode mode) {
  if (mode != Mode::kTrace) return;
  Span s;
  s.id = new_span_id();
  s.parent = cp.span_id;
  s.name = span::kInit;
  s.start_us = t0;
  s.end_us = now_us();
  s.campaign = cp.index;
  s.pass = static_cast<std::int32_t>(pass);
  record_span(s);
}

class ProbedTuner final : public tuning::Tuner {
 public:
  ProbedTuner(std::unique_ptr<tuning::Tuner> inner, PassProbe& probe,
              Mode mode)
      : inner_(std::move(inner)), probe_(probe), mode_(mode) {
    if (auto* b = dynamic_cast<tuning::BayesTuner*>(inner_.get())) {
      optimizer_ = &b->optimizer();
      next_name_ = span::kSuggest;
    } else if (auto* l = dynamic_cast<tuning::LadderTuner*>(inner_.get())) {
      optimizer_ = &l->optimizer();
      probe_.ladder = &l->ladder();
      next_name_ = span::kLadderNext;
    }
    probe_.steps.reserve(512);
  }

  ~ProbedTuner() override {
    if (optimizer_ != nullptr) probe_.evictions = optimizer_->num_evictions();
    if (probe_.ladder != nullptr) probe_.ladder_stats = probe_.ladder->stats();
  }

  ProbedTuner(const ProbedTuner&) = delete;
  ProbedTuner& operator=(const ProbedTuner&) = delete;

  std::optional<sim::TopologyConfig> next() override {
    const double t0 = now_us();
    if (mode_ == Mode::kStepClock) {
      std::optional<sim::TopologyConfig> c = inner_->next();
      if (c) open_step(t0, 0);
      return c;
    }
    const bool suggest = next_name_ == span::kSuggest;
    const bool per_thread = g_cpu_per_thread.load(std::memory_order_relaxed);
    const double c0 = suggest ? cpu_us(per_thread) : 0.0;
    const std::uint64_t step_id = new_span_id();
    std::optional<sim::TopologyConfig> c = inner_->next();
    Span s;
    s.id = new_span_id();
    s.parent = c ? step_id : probe_.campaign_span;
    s.name = next_name_;
    s.start_us = t0;
    s.end_us = now_us();
    s.cpu_us = suggest ? cpu_us(per_thread) - c0 : 0.0;
    label(s);
    record_span(s);
    if (c) open_step(t0, step_id);
    return c;
  }

  void report(const sim::TopologyConfig& config, double throughput) override {
    const double t0 = mode_ == Mode::kTrace ? now_us() : 0.0;
    inner_->report(config, throughput);
    const double t1 = now_us();
    if (mode_ == Mode::kTrace) {
      Span obs;
      obs.id = new_span_id();
      obs.parent = probe_.step_span;
      obs.name = span::kObserve;
      obs.start_us = t0;
      obs.end_us = t1;
      label(obs);
      record_span(obs);
      Span step;
      step.id = probe_.step_span;
      step.parent = probe_.campaign_span;
      step.name = span::kStep;
      step.start_us = probe_.step_start_us;
      step.end_us = t1;
      label(step);
      record_span(step);
    }
    probe_.steps.push_back({probe_.step_start_us, t1, throughput});
    probe_.step_open = false;
  }

  std::string name() const override { return inner_->name(); }

 private:
  void open_step(double t0, std::uint64_t id) {
    probe_.step_open = true;
    probe_.step_span = id;
    probe_.step_start_us = t0;
  }

  void label(Span& s) const {
    s.campaign = probe_.campaign;
    s.pass = probe_.pass;
    s.step = static_cast<std::int32_t>(probe_.steps.size() + 1);
  }

  std::unique_ptr<tuning::Tuner> inner_;
  PassProbe& probe_;
  Mode mode_;
  const bo::BayesOpt* optimizer_ = nullptr;
  const char* next_name_ = span::kOtherNext;
};

class ProbedObjective final : public tuning::Objective {
 public:
  ProbedObjective(std::unique_ptr<tuning::Objective> inner, PassProbe& probe,
                  bool rep)
      : inner_(std::move(inner)),
        sim_(dynamic_cast<const tuning::SimObjective*>(inner_.get())),
        probe_(probe),
        rep_(rep) {}

  double evaluate(const sim::TopologyConfig& config) override {
    const bool rep = rep_ || !probe_.step_open;
    const tuning::FidelityLadder* ladder = rep ? nullptr : probe_.ladder;
    const double ladder_ms0 = ladder ? simulated_ms(*ladder) : 0.0;
    const double t0 = now_us();
    const double y = inner_->evaluate(config);
    Span s;
    s.id = new_span_id();
    s.parent = rep ? probe_.campaign_span : probe_.step_span;
    s.name = span::kEval;
    s.start_us = t0;
    s.end_us = now_us();
    s.campaign = probe_.campaign;
    s.pass = probe_.pass;
    s.step = rep ? -1 : static_cast<std::int32_t>(probe_.steps.size() + 1);
    s.rep = rep;
    if (ladder != nullptr) {
      // The ladder hides its rung simulators; a zero measurement is the
      // observable sign of a crashed (or stalled) deployment.
      s.rung = ladder->last_rung();
      s.sim_ms = simulated_ms(*ladder) - ladder_ms0;
      s.crashed = y <= 0.0;
    } else if (sim_ != nullptr) {
      s.sim_ms = sim_->last_result().simulated_ms;
      s.crashed = sim_->last_result().crashed;
    }
    record_span(s);
    return y;
  }

  std::unique_ptr<tuning::Objective> clone_stream(
      std::uint64_t stream) const override {
    std::unique_ptr<tuning::Objective> c = inner_->clone_stream(stream);
    if (!c) return nullptr;
    return std::make_unique<ProbedObjective>(std::move(c), probe_, true);
  }

  bool rebind_stream(std::uint64_t stream) override {
    return inner_->rebind_stream(stream);
  }

 private:
  static double simulated_ms(const tuning::FidelityLadder& ladder) {
    return ladder.stats().rung1_simulated_ms + ladder.stats().rung2_simulated_ms;
  }

  std::unique_ptr<tuning::Objective> inner_;
  const tuning::SimObjective* sim_;
  PassProbe& probe_;
  bool rep_;
};

class ProbedBackend final : public tuning::ResultSinkBackend {
 public:
  ProbedBackend(std::unique_ptr<tuning::ResultSinkBackend> inner,
                std::uint64_t parent)
      : inner_(std::move(inner)), parent_(parent) {}

  void write(const tuning::CampaignOutcome& outcome) override {
    const double t0 = now_us();
    inner_->write(outcome);
    emit(span::kSinkWrite, t0);
  }

  void end_batch() override {
    const double t0 = now_us();
    inner_->end_batch();
    emit(span::kSinkFlush, t0);
  }

 private:
  void emit(const char* name, double t0) const {
    Span s;
    s.id = new_span_id();
    s.parent = parent_;
    s.name = name;
    s.start_us = t0;
    s.end_us = now_us();
    record_span(s);
  }

  std::unique_ptr<tuning::ResultSinkBackend> inner_;
  std::uint64_t parent_;
};

}  // namespace

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

double cpu_us(bool thread_only) {
  rusage ru{};
  getrusage(thread_only ? RUSAGE_THREAD : RUSAGE_SELF, &ru);
  return timeval_us(ru.ru_utime) + timeval_us(ru.ru_stime);
}

std::uint64_t new_span_id() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

void record_span(const Span& s) {
  Buffer& b = local_buffer();
  b.spans.push_back(s);
  b.spans.back().tid = b.tid;
}

std::vector<Span> drain_spans() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<Span> out;
  for (const auto& b : g_registry) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
  }
  return out;
}

CampaignProbe::CampaignProbe(std::int32_t idx, std::size_t num_passes)
    : index(idx),
      span_id(new_span_id()),
      start_us_(std::numeric_limits<double>::infinity()) {
  for (std::size_t p = 0; p < num_passes; ++p) {
    auto pp = std::make_unique<PassProbe>();
    pp->campaign = idx;
    pp->pass = static_cast<std::int32_t>(p);
    pp->campaign_span = span_id;
    passes.push_back(std::move(pp));
  }
}

void CampaignProbe::mark_start(double t_us) {
  std::lock_guard<std::mutex> lock(mu_);
  if (t_us < start_us_) start_us_ = t_us;
}

double CampaignProbe::start_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return start_us_;
}

tuning::CampaignSpec probe_spec(const tuning::CampaignSpec& spec,
                                CampaignProbe& probe, Mode mode) {
  tuning::CampaignSpec out = spec;
  out.make_tuner = [inner = spec.make_tuner, &probe,
                    mode](std::size_t pass) -> std::unique_ptr<tuning::Tuner> {
    const double t0 = now_us();
    probe.mark_start(t0);
    std::unique_ptr<tuning::Tuner> t = inner(pass);
    record_init(probe, pass, t0, mode);
    if (!t) return t;
    return std::make_unique<ProbedTuner>(std::move(t), *probe.passes.at(pass),
                                         mode);
  };
  out.make_objective =
      [inner = spec.make_objective, &probe,
       mode](std::size_t pass) -> std::unique_ptr<tuning::Objective> {
    const double t0 = now_us();
    probe.mark_start(t0);
    std::unique_ptr<tuning::Objective> o = inner(pass);
    record_init(probe, pass, t0, mode);
    if (!o || mode == Mode::kStepClock) return o;
    return std::make_unique<ProbedObjective>(std::move(o),
                                             *probe.passes.at(pass), false);
  };
  return out;
}

std::unique_ptr<tuning::ResultSinkBackend> probe_backend(
    std::unique_ptr<tuning::ResultSinkBackend> inner, std::uint64_t parent) {
  return std::make_unique<ProbedBackend>(std::move(inner), parent);
}

void set_suggest_cpu_per_thread(bool per_thread) {
  g_cpu_per_thread.store(per_thread, std::memory_order_relaxed);
}

}  // namespace stormbench
