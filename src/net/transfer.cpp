#include "net/transfer.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/contract.h"

namespace vod::net {

namespace {
// Remaining sizes at or below this are "done" (guards float drift).
constexpr double kDoneEpsilonMb = 1e-9;
// A transfer within the done epsilon of draining at any live rate (at least
// kMinFlowRate) is predicted to finish within this many seconds.
constexpr double kDueWindowSeconds =
    8.0 * kDoneEpsilonMb / kMinFlowRate.value();
constexpr double kNever = std::numeric_limits<double>::infinity();
}  // namespace

TransferManager::TransferManager(sim::Simulation& sim, FluidNetwork& network)
    : sim_(sim), network_(network) {
  network_.set_change_hook([this] { on_network_change(); });
}

TransferManager::~TransferManager() {
  network_.set_change_hook({});
  if (pending_.valid()) sim_.queue().cancel(pending_);
}

void TransferManager::on_network_change() {
  if (busy_depth_ > 0) return;
  const BusyScope guard{busy_depth_};
  absorb_rate_changes(sim_.now());
  complete_finished(sim_.now());
  reschedule(sim_.now());
}

FlowId TransferManager::start_transfer(std::vector<LinkId> path,
                                       MegaBytes size, Mbps rate_cap,
                                       CompletionCallback on_complete,
                                       std::uint32_t weight) {
  require_positive_finite(size.value(),
      "TransferManager::start_transfer: size must be positive and finite");
  require(on_complete, "TransferManager::start_transfer: empty callback");
  const SimTime now = sim_.now();
  const BusyScope guard{busy_depth_};
  // start_flow validates its arguments before it mutates anything, so a
  // rejected flow leaves the epoch empty and nothing to absorb.
  FluidNetwork::BatchGuard epoch = network_.defer_reallocate();
  const FlowId id = network_.start_flow(std::move(path), rate_cap, weight);
  if (network_.time() < now) network_.set_time(now);
  // The flow reads rate 0 until the epoch commits; the commit logs its
  // first rate, and absorbing that change predicts its finish.
  const Transfer& transfer =
      transfers_.insert(id, Transfer{size, now, std::move(on_complete), 0});
  due_.push_back(Due{predict(transfer, 0.0), id, transfers_.slot_of(id)});
  heap_sift_up(due_.size() - 1);
  epoch.release();
  absorb_rate_changes(now);
  reschedule(now);
  return id;
}

void TransferManager::cancel(FlowId id) {
  const Transfer& transfer =
      transfers_.at(id, "TransferManager::cancel: unknown transfer");
  const SimTime now = sim_.now();
  const BusyScope guard{busy_depth_};
  FluidNetwork::BatchGuard epoch = advance_progress(now);
  heap_remove(transfer.heap_pos);
  transfers_.erase(id);
  network_.stop_flow(id);
  epoch.release();
  absorb_rate_changes(now);
  reschedule(now);
}

MegaBytes TransferManager::remaining(FlowId id) const {
  const Transfer& transfer =
      transfers_.at(id, "TransferManager::remaining: unknown transfer");
  // Report progress as of "now" without mutating state.
  const double elapsed = sim_.now() - transfer.settled_at;
  const double moved_mb = network_.flow_rate(id).value() * elapsed / 8.0;
  return MegaBytes{std::max(0.0, transfer.remaining.value() - moved_mb)};
}

Mbps TransferManager::current_rate(FlowId id) const {
  require_found(transfers_.contains(id),
      "TransferManager::current_rate: unknown");
  return network_.flow_rate(id);
}

FluidNetwork::BatchGuard TransferManager::advance_progress(SimTime now) {
  FluidNetwork::BatchGuard epoch = network_.defer_reallocate();
  if (network_.time() < now) network_.set_time(now);
  return epoch;
}

SimTime TransferManager::predict(const Transfer& transfer, double rate) {
  if (rate > 0.0) {
    return SimTime{transfer.settled_at.seconds() +
                   transfer.remaining.megabits() / rate};
  }
  // A stalled transfer never finishes — unless it has already drained.
  return transfer.remaining.value() <= kDoneEpsilonMb ? transfer.settled_at
                                                      : SimTime{kNever};
}

bool TransferManager::drained(const Transfer& transfer, const Due& due,
                              double rate, SimTime now) {
  if (due.at <= now) return true;
  const double moved_mb = rate * (now - transfer.settled_at) / 8.0;
  return transfer.remaining.value() - moved_mb <= kDoneEpsilonMb;
}

void TransferManager::absorb_rate_changes(SimTime now) {
  const std::vector<FluidNetwork::RateChange>& changes =
      network_.rate_changes();
  if (changes.empty()) return;
  // When most rates moved (a saturated solve), re-predict in place and
  // re-heapify once: O(n), no dearer than a walk over every transfer.
  const bool rebuild = changes.size() * 4 >= due_.size();
  for (const FluidNetwork::RateChange& change : changes) {
    Transfer* transfer = transfers_.find(change.flow);
    if (transfer == nullptr) continue;  // a flow this manager does not own
    // Settle at the rate in force since settled_at, exactly as a per-event
    // walk would have: rate x elapsed / 8.
    const double elapsed = now - transfer->settled_at;
    if (elapsed > 0.0) {
      const double moved_mb = change.before.value() * elapsed / 8.0;
      transfer->remaining =
          MegaBytes{std::max(0.0, transfer->remaining.value() - moved_mb)};
    }
    transfer->settled_at = now;
    const std::size_t pos = transfer->heap_pos;
    due_[pos].at =
        predict(*transfer, network_.flow_rate(change.flow).value());
    if (!rebuild) {
      heap_sift_up(pos);
      heap_sift_down(transfer->heap_pos);
    }
  }
  network_.clear_rate_changes();
  if (rebuild) {
    for (std::size_t pos = due_.size() / 2; pos-- > 0;) heap_sift_down(pos);
  }
}

void TransferManager::complete_finished(SimTime now) {
  if (due_.empty() || due_.front().at.seconds() > now.seconds() +
                                                      kDueWindowSeconds) {
    return;
  }
  // One allocation epoch for the whole sweep (nested in the wake-up's own
  // epoch when called from refresh): a burst of simultaneous completions
  // and whatever transfers the callbacks start commit once when the
  // outermost guard releases, not once per stop_flow.
  FluidNetwork::BatchGuard epoch = network_.defer_reallocate();
  for (;;) {
    // Deterministic pick: the lowest flow id among the drained transfers.
    // Only heap entries predicted within the due window can have drained,
    // so the search prunes every subtree that starts later.
    std::size_t done_pos = due_.size();
    const double horizon = now.seconds() + kDueWindowSeconds;
    const auto visit = [&](const auto& self, std::size_t pos) -> void {
      if (pos >= due_.size() || due_[pos].at.seconds() > horizon) return;
      const Due& due = due_[pos];
      if ((done_pos == due_.size() || due.id < due_[done_pos].id) &&
          drained(transfers_.slot_value(due.slot), due,
                  network_.flow_rate(due.id).value(), now)) {
        done_pos = pos;
      }
      self(self, 2 * pos + 1);
      self(self, 2 * pos + 2);
    };
    visit(visit, 0);
    if (done_pos == due_.size()) break;
    const FlowId done = due_[done_pos].id;
    CompletionCallback callback =
        std::move(transfers_.slot_value(due_[done_pos].slot).on_complete);
    heap_remove(done_pos);
    transfers_.erase(done);
    network_.stop_flow(done);
    // The callback may start/cancel transfers; state is consistent here.
    callback(now);
  }
  epoch.release();
  absorb_rate_changes(now);
}

void TransferManager::reschedule(SimTime now) {
  if (pending_.valid()) {
    sim_.queue().cancel(pending_);
    pending_ = sim::EventHandle{};
  }
  if (transfers_.empty()) return;

  double next = due_.empty()
                    ? kNever
                    : std::max(due_.front().at.seconds(), now.seconds());
  // Wake at background-traffic changes too, so rates stay faithful.
  next = std::min(next, network_.next_traffic_change(now).seconds());

  if (next == kNever) return;
  pending_ =
      sim_.schedule_at(SimTime{next}, [this](SimTime t) { refresh(t); });
}

void TransferManager::refresh(SimTime now) {
  pending_ = sim::EventHandle{};
  const BusyScope guard{busy_depth_};
  FluidNetwork::BatchGuard epoch = advance_progress(now);
  complete_finished(now);
  epoch.release();
  absorb_rate_changes(now);
  reschedule(now);
}

void TransferManager::heap_place(std::size_t pos, const Due& due) {
  due_[pos] = due;
  transfers_.slot_value(due.slot).heap_pos = static_cast<std::uint32_t>(pos);
}

void TransferManager::heap_sift_up(std::size_t pos) {
  const Due moving = due_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!earlier(moving, due_[parent])) break;
    heap_place(pos, due_[parent]);
    pos = parent;
  }
  heap_place(pos, moving);
}

void TransferManager::heap_sift_down(std::size_t pos) {
  const Due moving = due_[pos];
  const std::size_t size = due_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && earlier(due_[child + 1], due_[child])) ++child;
    if (!earlier(due_[child], moving)) break;
    heap_place(pos, due_[child]);
    pos = child;
  }
  heap_place(pos, moving);
}

void TransferManager::heap_remove(std::size_t pos) {
  const Due last = due_.back();
  due_.pop_back();
  if (pos == due_.size()) return;
  heap_place(pos, last);
  heap_sift_up(pos);
  heap_sift_down(transfers_.slot_value(last.slot).heap_pos);
}

}  // namespace vod::net
