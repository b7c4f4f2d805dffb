#include "fleet/transport.h"

#include <algorithm>
#include <utility>

namespace collie::fleet {

LoopbackTransport::LoopbackTransport(int workers) {
  const int endpoints = std::max(0, workers) + 1;  // + the coordinator
  boxes_.reserve(static_cast<std::size_t>(endpoints));
  for (int i = 0; i < endpoints; ++i) {
    boxes_.push_back(std::make_unique<Mailbox>());
  }
}

LoopbackTransport::Mailbox* LoopbackTransport::box(int endpoint) {
  const int index = endpoint + 1;  // kCoordinatorId (-1) maps to slot 0
  if (index < 0 || index >= static_cast<int>(boxes_.size())) return nullptr;
  return boxes_[static_cast<std::size_t>(index)].get();
}

void LoopbackTransport::add_fault(FaultRule rule) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  rules_.push_back(ArmedRule{rule, 0, 0});
}

int LoopbackTransport::apply_faults(int from, int to,
                                    const std::string& payload,
                                    std::chrono::milliseconds* delay) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  int copies = 1;
  *delay = std::chrono::milliseconds{0};
  for (ArmedRule& armed : rules_) {
    const FaultRule& r = armed.rule;
    if (r.from != kAnyEndpoint && r.from != from) continue;
    if (r.to != kAnyEndpoint && r.to != to) continue;
    if (!r.type.empty() &&
        payload.find("\"type\":\"" + r.type + "\"") == std::string::npos) {
      continue;
    }
    armed.seen += 1;
    if (armed.seen <= r.skip) continue;
    if (r.times >= 0 && armed.acted >= r.times) continue;
    armed.acted += 1;
    switch (r.action) {
      case FaultRule::Action::kDrop:
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return 0;
      case FaultRule::Action::kDuplicate:
        duplicated_.fetch_add(1, std::memory_order_relaxed);
        copies += 1;
        break;
      case FaultRule::Action::kDelay:
        delayed_.fetch_add(1, std::memory_order_relaxed);
        *delay = r.delay;
        break;
    }
  }
  return copies;
}

bool LoopbackTransport::send(int from, int to, std::string payload) {
  Mailbox* mb = box(to);
  if (mb == nullptr) return false;
  std::chrono::milliseconds delay{0};
  const int copies = apply_faults(from, to, payload, &delay);
  if (copies == 0) return false;
  const auto deliver_at = std::chrono::steady_clock::now() + delay;
  {
    std::lock_guard<std::mutex> lock(mb->mu);
    if (mb->closed) return false;
    // Copies for the duplicates; the payload itself moves into the last.
    for (int c = 1; c < copies; ++c) {
      mb->queue.push_back(Pending{from, payload, deliver_at});
    }
    mb->queue.push_back(Pending{from, std::move(payload), deliver_at});
  }
  mb->cv.notify_all();
  return true;
}

RecvStatus LoopbackTransport::recv(int self, int* from, std::string* payload,
                                   std::chrono::milliseconds timeout) {
  Mailbox* mb = box(self);
  if (mb == nullptr) return RecvStatus::kClosed;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<std::mutex> lock(mb->mu);
  for (;;) {
    if (mb->closed) return RecvStatus::kClosed;
    const auto now = std::chrono::steady_clock::now();
    // First ready message wins; a delayed message is passed over in favour
    // of later ready ones (that reordering is the point of kDelay).
    auto ready = mb->queue.end();
    auto next_due = std::chrono::steady_clock::time_point::max();
    for (auto it = mb->queue.begin(); it != mb->queue.end(); ++it) {
      if (it->deliver_at <= now) {
        ready = it;
        break;
      }
      next_due = std::min(next_due, it->deliver_at);
    }
    if (ready != mb->queue.end()) {
      *from = ready->from;
      *payload = std::move(ready->payload);
      mb->queue.erase(ready);
      delivered_.fetch_add(1, std::memory_order_relaxed);
      return RecvStatus::kMessage;
    }
    if (now >= deadline) return RecvStatus::kTimeout;
    const auto wake = std::min(deadline, next_due);
    mb->cv.wait_until(lock, wake);
  }
}

void LoopbackTransport::close(int endpoint) {
  Mailbox* mb = box(endpoint);
  if (mb == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(mb->mu);
    mb->closed = true;
    mb->queue.clear();
  }
  mb->cv.notify_all();
}

}  // namespace collie::fleet
