#include "trace.h"

#include <time.h>

#include <algorithm>
#include <utility>

#include "core/report.h"
#include "core/serialize.h"
#include "workload/engine.h"

namespace perfbench {

namespace cw = collie::workload;

namespace {

i64 clock_ns(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<i64>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void append(std::vector<u64>& to, const std::vector<u64>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// The workload and measurement of one journal probe record.
void serialize_probe(const collie::Workload& w, const cw::Measurement& m) {
  collie::core::JsonWriter json;
  json.begin_object();
  json.key("workload");
  collie::core::workload_to_json(w, &json);
  json.key("measurement");
  collie::core::measurement_to_json(m, &json);
  json.end_object();
}

class TimedBackend final : public cw::Backend {
 public:
  TimedBackend(std::unique_ptr<cw::Backend> inner,
               std::unique_ptr<cw::Engine> verifier, int shadow_at,
               int serialize_every)
      : inner_(std::move(inner)),
        verifier_(std::move(verifier)),
        shadow_at_(shadow_at),
        serialize_every_(serialize_every) {}

  cw::BackendKind kind() const override { return cw::BackendKind::kTrace; }
  const std::string& substrate() const override { return inner_->substrate(); }

  void measure(const collie::Workload& w, collie::Rng& rng,
               collie::sim::EvalScratch& scratch,
               cw::Measurement& out) override {
    ThreadTrace& t = Tracer::instance().local();
    const i64 s0 = mono_ns();
    inner_->measure(w, rng, scratch, out);
    const i64 ds = mono_ns() - s0;
    t.sim_ns.push_back(static_cast<u64>(ds));
    t.sim_total_ns += ds;
    if (out.remeasure_count > 0) ++t.remeasures;
    ++calls_;
    if (serialize_every_ > 0 && calls_ % serialize_every_ == 0) {
      const i64 c0 = thread_cpu_ns();
      serialize_probe(w, out);
      const i64 dc = thread_cpu_ns() - c0;
      t.serialize_ns.push_back(static_cast<u64>(dc));
      t.added_ns += dc;
    }
    if (verifier_ != nullptr && calls_ == shadow_at_) {
      std::string err;
      const i64 c0 = thread_cpu_ns();
      const bool ok = verifier_->validate_functional(w, &err);
      const i64 dv = thread_cpu_ns() - c0;
      t.verbs_ns.push_back(static_cast<u64>(dv));
      t.added_ns += dv;
      if (!ok) ++t.verbs_rejects;
    }
  }

 private:
  std::unique_ptr<cw::Backend> inner_;
  std::unique_ptr<cw::Engine> verifier_;
  int shadow_at_;
  int serialize_every_;
  int calls_ = 0;
};

class TimedJournalBackend final : public cw::Backend {
 public:
  explicit TimedJournalBackend(std::unique_ptr<cw::Backend> splice)
      : splice_(std::move(splice)) {}

  cw::BackendKind kind() const override { return cw::BackendKind::kTrace; }
  const std::string& substrate() const override {
    return splice_->substrate();
  }

  void measure(const collie::Workload& w, collie::Rng& rng,
               collie::sim::EvalScratch& scratch,
               cw::Measurement& out) override {
    ThreadTrace& t = Tracer::instance().local();
    const i64 sim_before = t.sim_total_ns;
    const i64 added_before = t.added_ns;
    const std::size_t calls_before = t.sim_ns.size();
    const i64 c0 = thread_cpu_ns();
    const i64 w0 = mono_ns();
    splice_->measure(w, rng, scratch, out);
    const i64 wall = mono_ns() - w0;
    const i64 cpu = thread_cpu_ns() - c0;
    // Simulator and benchmark-added time inside the splice are not the
    // journal's.
    const i64 sim = t.sim_total_ns - sim_before + t.added_ns - added_before;
    t.journal_total_ns += cpu - sim;
    t.journal_wait_ns += std::max<i64>(0, wall - cpu);
    if (t.sim_ns.size() > calls_before) {  // live, not replayed
      t.append_ns.push_back(static_cast<u64>(std::max<i64>(0, wall - sim)));
    }
  }

 private:
  std::unique_ptr<cw::Backend> splice_;
};

}  // namespace

i64 mono_ns() { return clock_ns(CLOCK_MONOTONIC); }
i64 process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
i64 thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

void ThreadTrace::merge(ThreadTrace&& o) {
  append(sim_ns, o.sim_ns);
  append(verbs_ns, o.verbs_ns);
  append(append_ns, o.append_ns);
  append(serialize_ns, o.serialize_ns);
  added_ns += o.added_ns;
  sim_total_ns += o.sim_total_ns;
  journal_total_ns += o.journal_total_ns;
  journal_wait_ns += o.journal_wait_ns;
  remeasures += o.remeasures;
  verbs_rejects += o.verbs_rejects;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

ThreadTrace& Tracer::local() {
  thread_local ThreadTrace* shard = nullptr;
  if (shard == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(std::make_unique<ThreadTrace>());
    shard = shards_.back().get();
  }
  return *shard;
}

ThreadTrace Tracer::merged() {
  std::lock_guard<std::mutex> lock(mu_);
  ThreadTrace all;
  // Shards stay registered (threads still point at theirs), emptied.
  for (auto& shard : shards_) {
    all.merge(std::move(*shard));
    *shard = ThreadTrace{};
  }
  return all;
}

std::unique_ptr<cw::Backend> SetupClock::create(
    const collie::sim::Subsystem& sys, const cw::EngineOptions& opts,
    const std::string& context) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_wall_ns_ == 0) {
      first_wall_ns_ = mono_ns();
      first_cpu_ns_ = process_cpu_ns();
    }
    ++builds_[context];
  }
  return inner_->create(sys, opts, context);
}

i64 SetupClock::first_wall_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_wall_ns_;
}

i64 SetupClock::first_cpu_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_cpu_ns_;
}

std::map<std::string, int> SetupClock::builds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return builds_;
}

std::unique_ptr<cw::Backend> TimedBackendFactory::create(
    const collie::sim::Subsystem& sys, const cw::EngineOptions& opts,
    const std::string& context) {
  std::unique_ptr<cw::Engine> verifier;
  if (shadow_at_ > 0) {
    cw::EngineOptions vopts = opts;
    vopts.backend_factory = nullptr;
    vopts.telemetry = {};
    verifier = std::make_unique<cw::Engine>(sys, vopts);
  }
  return std::make_unique<TimedBackend>(inner_->create(sys, opts, context),
                                        std::move(verifier), shadow_at_,
                                        serialize_every_);
}

std::unique_ptr<cw::Backend> TimedJournalFactory::create(
    const collie::sim::Subsystem& sys, const cw::EngineOptions& opts,
    const std::string& context) {
  return std::make_unique<TimedJournalBackend>(
      splice_->create(sys, opts, context));
}

}  // namespace perfbench
