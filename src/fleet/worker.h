// FleetWorker: one leased-cell executor.
//
// A worker owns no campaign state: it waits for LeaseCell messages, runs
// each leased cell through the exact execute_cell path the in-process
// campaign uses (same RNG split, same engine options, same RecordingStore
// over a worker-local pool preloaded from the lease), streams every fresh
// MFS extraction back as an ordinal-numbered MfsBatch, and reports the
// finished cell as a CellDone it retransmits until the coordinator Acks,
// backing off exponentially from WorkerOptions::retransmit to a fixed cap.
// The message loop heartbeats while idle; while a lease runs, a heartbeat
// thread beats on the same cadence until the CellDone is on the wire, so a
// dead worker is one that went silent — not one stuck in a slow probe or
// serializing a large result.
//
// Fault injection (tests / demos only): kill_at_cell makes the worker die
// silently mid-cell — right after streaming its first MfsBatch when the
// cell extracts anything, at cell end otherwise — without sending CellDone;
// slow_probe_us stretches every MatchMFS consult by a wall-clock sleep to
// emulate a slow host for the coordinator's steal logic.
#pragma once

#include <atomic>
#include <chrono>
#include <string>

#include "fleet/messages.h"
#include "fleet/transport.h"
#include "orchestrator/campaign.h"

namespace collie::fleet {

struct WorkerOptions {
  // Heartbeat cadence, idle and busy alike.
  std::chrono::milliseconds heartbeat_interval{20};
  // First unacked CellDone retransmit delay; each retransmit doubles it,
  // up to a fixed cap.
  std::chrono::milliseconds retransmit{50};
  // Fault injection: die silently while running the cell with this label.
  std::string kill_at_cell;
  // Fault injection: wall-clock microseconds added per MatchMFS consult.
  i64 slow_probe_us = 0;
};

class FleetWorker {
 public:
  // `config` is the coordinator's normalized config (shared read-only; the
  // worker derives each cell's RNG from config.campaign_seed and the leased
  // cell's stream index).
  FleetWorker(int id, const orchestrator::CampaignConfig& config,
              Transport* transport, WorkerOptions opts = {});

  // Message loop; returns on a shutdown lease, a closed transport, or an
  // injected kill.
  void run();

  int id() const { return id_; }

 private:
  // `lease` 0 = idle.  Thread-safe: the heartbeat thread sends too.
  void heartbeat(u64 lease, i64 probes);
  void send(Message m);
  // Execute a lease end to end (blocking) and stage the CellDone.
  void run_lease(const Message& lease);
  // One coordinator message; false on a shutdown lease.
  bool handle(const std::string& payload);
  // Resend the unacked CellDone once its backoff has elapsed.
  void retransmit_if_due(std::chrono::steady_clock::time_point now);

  int id_;
  const orchestrator::CampaignConfig& config_;
  Transport* transport_;
  WorkerOptions opts_;
  std::atomic<u64> seq_{0};

  // The last completed lease and its CellDone payload, retransmitted with
  // exponential backoff until the coordinator Acks.
  u64 done_lease_ = 0;
  std::string done_payload_;
  bool done_acked_ = true;
  std::chrono::steady_clock::time_point done_sent_{};
  std::chrono::milliseconds done_backoff_{0};
};

}  // namespace collie::fleet
