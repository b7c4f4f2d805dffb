// Wrappers on the campaign's public seams.
//
// SetupClock wraps every run's backend factory, traced or not.  It forwards
// create() unchanged and notes when the campaign built its first backend
// (the end of set-up) and how often it built each cell's.
//
// The timing wrappers are used by the traced run only.  Each forwards to
// the real implementation and records, on the calling thread's shard, how
// long the call took and what it did:
//
//   TimedBackendFactory  wraps the simulator backend (the performance pass).
//                        It can also run Engine::validate_functional on one
//                        probe per cell as a shadow call whose verdict is
//                        discarded: the verbs layer's cost and rejection
//                        share on the probe stream of a campaign that runs
//                        without the functional pass.  And it serializes
//                        every n-th probe as the journal's probe record
//                        does (workload_to_json + measurement_to_json), on
//                        the thread and at the time the campaign makes it;
//   TimedJournalFactory  wraps SpliceBackendFactory: its self time (outer
//                        call minus the simulator time inside it) is the
//                        journal's replay and append cost.
//
// No timing wrapper reports BackendKind::kSim: Engine static_casts any kSim
// backend to SimBackend for its devirtualized path, so a wrapping backend
// that forwarded the inner kind would be called as the wrong class.  They
// report kTrace, the kind SpliceBackendFactory reports too.  SetupClock
// hands out the inner factory's own backends, so it keeps the inner kind.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "workload/backend.h"

namespace perfbench {

using collie::i64;
using collie::u64;

i64 mono_ns();
i64 process_cpu_ns();
i64 thread_cpu_ns();

// What one thread recorded.  Durations are steady-clock nanoseconds unless
// noted: the journal, whose calls block on a mutex and on fsync, is also
// timed on the thread's CPU clock.
struct ThreadTrace {
  std::vector<u64> sim_ns;
  std::vector<u64> verbs_ns;      // thread CPU time
  std::vector<u64> append_ns;     // live journal probes: splice minus sim
  std::vector<u64> serialize_ns;  // thread CPU time
  // Benchmark-added work (shadow verbs calls, serializer timing), thread
  // CPU time: not the campaign's.
  i64 added_ns = 0;
  i64 sim_total_ns = 0;
  i64 journal_total_ns = 0;  // splice minus sim and added, thread CPU
  i64 journal_wait_ns = 0;   // splice wall minus its thread CPU (lock, fsync)
  i64 remeasures = 0;
  i64 verbs_rejects = 0;

  void merge(ThreadTrace&& other);
};

// Process-wide set of per-thread shards.  Campaign worker threads register
// on first use; merged() folds every shard once the traced runs are over.
class Tracer {
 public:
  static Tracer& instance();
  ThreadTrace& local();
  ThreadTrace merged();

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> shards_;
};

class SetupClock final : public collie::workload::BackendFactory {
 public:
  explicit SetupClock(std::shared_ptr<collie::workload::BackendFactory> inner)
      : inner_(std::move(inner)) {}

  collie::workload::BackendKind kind() const override {
    return inner_->kind();
  }
  const std::string& substrate() const override { return inner_->substrate(); }
  std::unique_ptr<collie::workload::Backend> create(
      const collie::sim::Subsystem& sys,
      const collie::workload::EngineOptions& opts,
      const std::string& context) override;

  // Monotonic and process CPU clocks at the first create(); 0 before it.
  i64 first_wall_ns() const;
  i64 first_cpu_ns() const;
  // Backends built per context (the cell label).
  std::map<std::string, int> builds() const;

 private:
  std::shared_ptr<collie::workload::BackendFactory> inner_;
  mutable std::mutex mu_;
  i64 first_wall_ns_ = 0;
  i64 first_cpu_ns_ = 0;
  std::map<std::string, int> builds_;
};

class TimedBackendFactory final : public collie::workload::BackendFactory {
 public:
  // `shadow_at` > 0: each backend also validates its shadow_at-th
  // performance-pass probe with the functional pass (timed, verdict
  // discarded).  `serialize_every` > 0: each backend times the probe record
  // of every serialize_every-th probe.
  TimedBackendFactory(std::shared_ptr<collie::workload::BackendFactory> inner,
                      int shadow_at, int serialize_every)
      : inner_(std::move(inner)),
        shadow_at_(shadow_at),
        serialize_every_(serialize_every) {}

  collie::workload::BackendKind kind() const override {
    return collie::workload::BackendKind::kTrace;
  }
  const std::string& substrate() const override { return inner_->substrate(); }
  std::unique_ptr<collie::workload::Backend> create(
      const collie::sim::Subsystem& sys,
      const collie::workload::EngineOptions& opts,
      const std::string& context) override;

 private:
  std::shared_ptr<collie::workload::BackendFactory> inner_;
  int shadow_at_;
  int serialize_every_;
};

class TimedJournalFactory final : public collie::workload::BackendFactory {
 public:
  explicit TimedJournalFactory(
      std::shared_ptr<collie::workload::BackendFactory> splice)
      : splice_(std::move(splice)) {}

  collie::workload::BackendKind kind() const override {
    return collie::workload::BackendKind::kTrace;
  }
  const std::string& substrate() const override {
    return splice_->substrate();
  }
  std::unique_ptr<collie::workload::Backend> create(
      const collie::sim::Subsystem& sys,
      const collie::workload::EngineOptions& opts,
      const std::string& context) override;

 private:
  std::shared_ptr<collie::workload::BackendFactory> splice_;
};

}  // namespace perfbench
