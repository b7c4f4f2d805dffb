#include "fleet/worker.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "common/log.h"
#include "core/json_reader.h"

namespace collie::fleet {

namespace {

using Clock = std::chrono::steady_clock;

// Ceiling of the CellDone retransmit backoff (unless
// WorkerOptions::retransmit starts above it).
constexpr std::chrono::milliseconds kMaxRetransmit{1000};

// Injected worker death.  Deliberately NOT derived from std::exception:
// execute_cell converts std::exceptions into failed-cell results, but a
// killed worker must vanish mid-cell without producing any result at all.
struct Killed {};

// Sends a busy heartbeat every `interval` from its own thread until
// destroyed: for the whole lease, through slow probes and the CellDone
// serialization alike, and on the unwind of an injected kill.
class HeartbeatThread {
 public:
  HeartbeatThread(std::chrono::milliseconds interval,
                  std::function<void()> beat)
      : thread_([this, interval, beat = std::move(beat)] {
          std::unique_lock<std::mutex> lock(mu_);
          while (!cv_.wait_for(lock, interval, [this] { return stop_; })) {
            lock.unlock();
            beat();
            lock.lock();
          }
        }) {}
  ~HeartbeatThread() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  HeartbeatThread(const HeartbeatThread&) = delete;
  HeartbeatThread& operator=(const HeartbeatThread&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last: starts once the members it uses exist
};

}  // namespace

FleetWorker::FleetWorker(int id, const orchestrator::CampaignConfig& config,
                         Transport* transport, WorkerOptions opts)
    : id_(id), config_(config), transport_(transport), opts_(opts) {}

void FleetWorker::send(Message m) {
  m.sender = id_;
  m.seq = ++seq_;
  transport_->send(id_, kCoordinatorId, m.to_json());
}

void FleetWorker::heartbeat(u64 lease, i64 probes) {
  Message m;
  m.type = MsgType::kHeartbeat;
  m.lease = lease;
  m.busy = lease != 0;
  m.probes = probes;
  send(std::move(m));
}

void FleetWorker::run_lease(const Message& lease) {
  // Worker-local pool, preloaded with everything the coordinator already
  // knows for this scope (warm-start entries keep their warm origin, a dead
  // worker's streamed extractions keep its worker origin — so this cell's
  // hits attribute exactly as they would have in-process).
  orchestrator::ConcurrentMfsPool pool(config_.pool);
  pool.set_telemetry(config_.telemetry);
  pool.load_entries(lease.scope, lease.preload);
  orchestrator::ConcurrentMfsPool::View view = pool.view(lease.scope, id_);

  const u64 id = lease.lease;
  std::atomic<i64> consults{0};
  const HeartbeatThread beat(opts_.heartbeat_interval, [this, id, &consults] {
    heartbeat(id, consults.load(std::memory_order_relaxed));
  });
  const bool kill_here = !opts_.kill_at_cell.empty() &&
                         lease.cell.label() == opts_.kill_at_cell;
  orchestrator::RecordingStore store(
      view,
      [this, id, kill_here](u64 ordinal,
                            const orchestrator::PoolEntry& entry) {
        Message batch;
        batch.type = MsgType::kMfsBatch;
        batch.lease = id;
        batch.first_ordinal = ordinal;
        batch.inserts.push_back(entry);
        send(std::move(batch));
        // Die only after the first extraction is on the wire: the re-queue
        // test needs the coordinator to hold partial knowledge the
        // replacement lease must warm-skip.
        if (kill_here && ordinal == 0) throw Killed{};
      },
      [this, &consults] {
        if (opts_.slow_probe_us > 0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(opts_.slow_probe_us));
        }
        consults.fetch_add(1, std::memory_order_relaxed);
      });

  // The campaign journal belongs to the coordinator (accepted CellDones,
  // lease events); a worker writing driver progress into the same journal
  // would interleave foreign records, so the cell runs without one.
  orchestrator::CellResult cr = orchestrator::execute_cell(
      config_, lease.cell, lease.start_seconds, store, /*progress=*/nullptr);
  // A kill on a cell that never extracts: die at cell end, before CellDone
  // — the coordinator still sees the lease vanish and re-queues it.
  if (kill_here && store.inserts().empty()) throw Killed{};

  Message done;
  done.type = MsgType::kCellDone;
  done.lease = id;
  done.result = std::move(cr);
  done.inserts = store.inserts();
  done.pool_delta = store.delta();
  done.sender = id_;
  done.seq = ++seq_;
  done_lease_ = id;
  done_payload_ = done.to_json();
  transport_->send(id_, kCoordinatorId, done_payload_);
  done_acked_ = false;
  done_sent_ = Clock::now();
  done_backoff_ = opts_.retransmit;
}

void FleetWorker::retransmit_if_due(Clock::time_point now) {
  if (done_acked_ || now - done_sent_ < done_backoff_) return;
  transport_->send(id_, kCoordinatorId, done_payload_);
  done_sent_ = now;
  done_backoff_ = std::min(2 * done_backoff_,
                           std::max(kMaxRetransmit, opts_.retransmit));
}

bool FleetWorker::handle(const std::string& payload) {
  Message m;
  try {
    m = Message::from_json(payload);
  } catch (const core::JsonError& e) {
    // A garbled payload is a transport problem, not a worker problem:
    // log and keep serving (the fuzz tests drive exactly this path).
    LOG_WARN << "worker " << id_ << " dropped bad message: " << e.what();
    return true;
  }
  switch (m.type) {
    case MsgType::kAck:
      if (m.lease == done_lease_) done_acked_ = true;
      break;
    case MsgType::kLeaseCell:
      if (m.shutdown) return false;
      // A re-announced lease we already finished means the coordinator has
      // not seen our CellDone yet.  The copy may still be in flight, so
      // the retransmit timer resends it, not the re-announce.
      if (m.lease == done_lease_) break;
      // A fresh lease implies the previous CellDone was accepted (the
      // coordinator only leases to idle workers).
      done_acked_ = true;
      run_lease(m);
      break;
    case MsgType::kCellDone:
    case MsgType::kMfsBatch:
    case MsgType::kHeartbeat:
      break;  // not addressed to workers; ignore
  }
  return true;
}

void FleetWorker::run() {
  try {
    heartbeat(0, 0);
    for (;;) {
      int from = 0;
      std::string payload;
      const RecvStatus status =
          transport_->recv(id_, &from, &payload, opts_.heartbeat_interval);
      if (status == RecvStatus::kClosed) return;
      if (status == RecvStatus::kTimeout) {
        heartbeat(0, 0);
      } else if (!handle(payload)) {
        return;
      }
      retransmit_if_due(Clock::now());
    }
  } catch (const Killed&) {
    LOG_INFO << "worker " << id_ << " killed (injected fault)";
  }
}

}  // namespace collie::fleet
