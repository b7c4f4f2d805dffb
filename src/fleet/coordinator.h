// fleet::Coordinator — the campaign control plane over a Transport.
//
// The coordinator drives the same orchestrator::CampaignLedger the
// in-process Campaign does — one plan, schedule, warm start, journal
// begin/resume, restore and result assembly — and keeps only the fleet's
// own concerns: leases, heartbeats, steals and ordered MfsBatch
// application.  Workers own nothing but the cell they are currently
// leasing.  Each logical worker's queue goes to the matching fleet worker
// in order and every accepted CellDone goes through CampaignLedger::accept,
// which is why a fault-free loopback fleet report is byte-identical to the
// in-process one under cell scopes.
//
// Fault tolerance:
//  - Death: a worker that goes silent past heartbeat_timeout is declared
//    dead; its in-flight lease is revoked and the cell re-queued (orphan
//    list, served before any queue).  The revoked lease's streamed MfsBatch
//    entries stay in the pool, so the replacement lease's preload warm-
//    skips every region the dead worker already explained.  A CellDone
//    arriving later under a revoked lease is Acked (to silence the zombie)
//    and discarded — a cell's probes are counted exactly once, from exactly
//    one accepted CellDone.
//  - Reconnect: a dead worker that resumes idle heartbeats is re-admitted
//    after an exponential backoff (reconnect_backoff * 2^deaths).
//  - Loss: every message may be dropped, delayed, or duplicated.  Leases
//    are retransmitted when an idle heartbeat contradicts an outstanding
//    lease; CellDone is retransmitted by the worker, with exponential
//    backoff, until Acked; MfsBatch ordinals dedup duplicates and reorder
//    out-of-order arrivals, and the CellDone's full insert list reconciles
//    any batch that never arrived.
//  - Imbalance: an idle worker with nothing queued steals the tail of the
//    busiest live worker's queue once that worker has been busy on a single
//    cell past steal_after (wall clock, not simulated time — this is the
//    host-speed imbalance the LPT schedule cannot see).
#pragma once

#include <chrono>
#include <deque>
#include <map>
#include <vector>

#include "fleet/messages.h"
#include "fleet/transport.h"
#include "orchestrator/campaign.h"

namespace collie::fleet {

struct FleetOptions {
  // Worker idle-heartbeat cadence (handed to spawned loopback workers).
  std::chrono::milliseconds heartbeat_interval{20};
  // Silence past this declares a worker dead.
  std::chrono::milliseconds heartbeat_timeout{250};
  // Re-admission backoff after the k-th death: backoff * 2^(k-1).
  std::chrono::milliseconds reconnect_backoff{50};
  // Event-loop poll quantum (recv timeout between timer checks).
  std::chrono::milliseconds tick{5};
  // Lease retransmit floor when an idle heartbeat contradicts a lease.
  std::chrono::milliseconds lease_retransmit{50};
  // Steal gate: the victim must have been busy on one cell at least this
  // long (wall clock).  High enough that fault-free fast runs never steal,
  // keeping them byte-identical to the in-process campaign.
  std::chrono::milliseconds steal_after{1000};
  bool steal = true;
  // Hard failure when no cell completes for this long (prevents a hung CI
  // job when every worker is dead and none reconnects).
  std::chrono::milliseconds stall_timeout{120000};
};

struct FleetStats {
  i64 leases = 0;             // LeaseCell messages granting a cell
  i64 requeues = 0;           // cells re-queued after a worker death
  i64 heartbeat_misses = 0;   // workers declared dead
  i64 reconnects = 0;         // dead workers re-admitted
  i64 stolen = 0;             // queued cells stolen from slow workers
  i64 batches = 0;            // MfsBatch applications into the pool
  i64 duplicates = 0;         // duplicate CellDone/MfsBatch payloads ignored
  i64 bad_messages = 0;       // payloads that failed strict parsing
};

class Coordinator {
 public:
  // `config` is normalized through Campaign's constructor (same validation
  // as the in-process path) and planned into the ledger.
  explicit Coordinator(orchestrator::CampaignConfig config,
                       FleetOptions opts = {});

  // The normalized config every worker must execute against.
  const orchestrator::CampaignConfig& config() const { return config_; }
  // Fleet workers the schedule needs: its logical worker count.
  int workers() const { return static_cast<int>(workers_.size()); }

  // Drive the whole campaign over `transport` (endpoints 0..workers()-1
  // plus kCoordinatorId); returns when every runnable cell has exactly one
  // accepted result.  Sends a shutdown lease to every worker before
  // returning.  Throws std::runtime_error on stall.  Call once.
  orchestrator::CampaignResult run(Transport* transport);

  const FleetStats& stats() const { return stats_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct WorkerState {
    std::deque<std::size_t> queue;  // plan indices not yet leased
    double timeline = 0.0;          // virtual seconds of accepted cells
    bool alive = false;             // first message flips this on
    bool busy = false;
    u64 lease = 0;  // outstanding lease id (0 = none)
    int deaths = 0;
    Clock::time_point last_heard{};
    Clock::time_point busy_since{};
    Clock::time_point lease_sent{};
    Clock::time_point reconnect_at{};
  };

  struct LeaseState {
    int worker = -1;
    std::size_t cell = 0;
    std::string scope;
    double start_seconds = 0.0;
    u64 next_ordinal = 0;  // next insert ordinal to apply, in order
    std::map<u64, orchestrator::PoolEntry> buffered;  // out-of-order batches
    bool accepted = false;
    bool revoked = false;
  };

  void send(int to, Message m);
  void grant(int worker, std::size_t cell_index, Clock::time_point now);
  void retransmit_lease(int worker, Clock::time_point now);
  void handle(Message m, int from, Clock::time_point now);
  // `reconcile` marks the CellDone's full insert list: already-applied
  // ordinals are expected there and not counted as duplicates.
  void apply_inserts(LeaseState& ls, u64 first_ordinal,
                     const std::vector<orchestrator::PoolEntry>& entries,
                     bool reconcile = false);
  // Everything already known for `scope`, for a lease: warm-start entries
  // plus every streamed insert — including a dead predecessor's partial
  // extractions.  Loads the scope's unloaded_ inserts into the pool first;
  // only this and the end of run() read the coordinator's pool.
  std::vector<orchestrator::PoolEntry> preload(const std::string& scope);
  // Moves a scope's unloaded_ inserts into the ledger's pool.
  void load_unloaded(const std::string& scope);
  void check_deaths(Clock::time_point now);
  void assign_work(Clock::time_point now);
  void count(i64 FleetStats::* field, obs::CounterId obs::FleetIds::* id);

  orchestrator::CampaignConfig config_;
  FleetOptions opts_;
  orchestrator::CampaignLedger ledger_;  // after config_: it keeps a reference
  Transport* transport_ = nullptr;
  FleetStats stats_;

  std::vector<WorkerState> workers_;
  std::map<u64, LeaseState> leases_;
  std::deque<std::size_t> orphans_;  // re-queued cells, served first
  // Applied inserts not yet in the ledger's pool, per scope, in order.  The
  // coordinator's pool never serves a search, so it is loaded once per
  // accepted CellDone and whenever it is read — by preload() and before the
  // result is assembled — instead of one copy-on-write publish per batch.
  std::map<std::string, std::vector<orchestrator::PoolEntry>> unloaded_;
  std::size_t completed_ = 0;
  std::size_t target_ = 0;
  u64 next_lease_ = 1;
  u64 seq_ = 0;
};

}  // namespace collie::fleet
