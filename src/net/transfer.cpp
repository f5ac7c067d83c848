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
}  // namespace

TransferManager::TransferManager(sim::Simulation& sim, FluidNetwork& network)
    : sim_(sim), network_(network) {
  network_.set_change_hooks([this] { on_network_pre_change(); },
                            [this] { on_network_post_change(); });
}

TransferManager::~TransferManager() {
  network_.set_change_hooks({}, {});
  if (pending_.valid()) sim_.queue().cancel(pending_);
}

void TransferManager::on_network_pre_change() {
  if (busy_depth_ > 0) return;
  settle_bytes(sim_.now());
}

void TransferManager::on_network_post_change() {
  if (busy_depth_ > 0) return;
  const BusyScope guard{busy_depth_};
  complete_finished(sim_.now());
  reschedule(sim_.now());
}

FlowId TransferManager::start_transfer(std::vector<LinkId> path,
                                       MegaBytes size, Mbps rate_cap,
                                       CompletionCallback on_complete,
                                       std::uint32_t weight) {
  require(!(size.value() <= 0.0),
      "TransferManager::start_transfer: size must be positive");
  require(on_complete, "TransferManager::start_transfer: empty callback");
  const SimTime now = sim_.now();
  const BusyScope guard{busy_depth_};
  advance_progress(now);
  const FlowId id = network_.start_flow(std::move(path), rate_cap, weight);
  transfers_.insert(id, Transfer{size, std::move(on_complete)});
  // A transfer born at or below the done epsilon never crosses it during a
  // settle, so it becomes a completion candidate outright.
  if (size.value() <= kDoneEpsilonMb) drained_.push_back(id);
  reschedule(now);
  return id;
}

void TransferManager::cancel(FlowId id) {
  require_found(transfers_.contains(id),
      "TransferManager::cancel: unknown transfer");
  const SimTime now = sim_.now();
  const BusyScope guard{busy_depth_};
  advance_progress(now);
  transfers_.erase(id);
  network_.stop_flow(id);
  reschedule(now);
}

MegaBytes TransferManager::remaining(FlowId id) const {
  const Transfer& transfer =
      transfers_.at(id, "TransferManager::remaining: unknown transfer");
  // Report progress as of "now" without mutating state.
  const double elapsed = sim_.now() - last_progress_;
  const double moved_mb =
      network_.flow_rate(id).value() * elapsed / 8.0;
  return MegaBytes{std::max(0.0, transfer.remaining.value() - moved_mb)};
}

Mbps TransferManager::current_rate(FlowId id) const {
  require_found(transfers_.contains(id),
      "TransferManager::current_rate: unknown");
  return network_.flow_rate(id);
}

void TransferManager::settle_bytes(SimTime now) {
  const double elapsed = now - last_progress_;
  if (elapsed > 0.0 && !transfers_.empty()) {
    // Ascending-id walk, so drained_ fills in a deterministic order.
    transfers_.for_each_ordered([&](FlowId id, Transfer& transfer) {
      const double moved_mb = network_.flow_rate(id).value() * elapsed / 8.0;
      const double before = transfer.remaining.value();
      transfer.remaining = MegaBytes{std::max(0.0, before - moved_mb)};
      // Record the crossing once: remaining only ever decreases, so a
      // transfer enters the candidate list exactly one time.
      if (before > kDoneEpsilonMb &&
          transfer.remaining.value() <= kDoneEpsilonMb) {
        drained_.push_back(id);
      }
    });
  }
  last_progress_ = now;
}

void TransferManager::advance_progress(SimTime now) {
  settle_bytes(now);
  if (network_.time() < now) network_.set_time(now);
}

void TransferManager::complete_finished(SimTime now) {
  // Only transfers in the drained candidate list can be done: a transfer
  // enters it when its settled remaining crosses the epsilon (or at birth,
  // for degenerate sizes), so the sweep costs O(drained), not O(active)
  // per completion.  Completion is judged on settled `remaining`, never on
  // mid-epoch rates, so the sweep finishes the same transfers the
  // per-mutation solve did.
  if (drained_.empty()) return;
  // One allocation epoch for the whole sweep: a burst of simultaneous
  // completions (and whatever transfers the callbacks start) re-solves the
  // fair shares once when the guard releases, not once per stop_flow; the
  // caller reschedules after this returns, reading the fresh rates.
  const FluidNetwork::BatchGuard epoch = network_.defer_reallocate();
  for (;;) {
    // Deterministic pick: lowest flow id among the finished candidates
    // (entries cancelled since they drained are dead and skipped).
    FlowId done;
    std::size_t done_at = 0;
    for (std::size_t i = 0; i < drained_.size(); ++i) {
      const FlowId id = drained_[i];
      const Transfer* transfer = transfers_.find(id);
      if (transfer == nullptr ||
          transfer->remaining.value() > kDoneEpsilonMb) {
        continue;
      }
      if (!done.valid() || id < done) {
        done = id;
        done_at = i;
      }
    }
    if (!done.valid()) {
      drained_.clear();
      break;
    }
    drained_.erase(drained_.begin() + static_cast<std::ptrdiff_t>(done_at));
    CompletionCallback callback =
        std::move(transfers_.at(done,
            "TransferManager: drained transfer vanished").on_complete);
    transfers_.erase(done);
    network_.stop_flow(done);
    // The callback may start/cancel transfers; state is consistent here.
    callback(now);
  }
}

void TransferManager::reschedule(SimTime now) {
  if (pending_.valid()) {
    sim_.queue().cancel(pending_);
    pending_ = sim::EventHandle{};
  }
  if (transfers_.empty()) return;

  double next = std::numeric_limits<double>::infinity();
  transfers_.for_each_ordered([&](FlowId id, const Transfer& transfer) {
    const double rate = network_.flow_rate(id).value();
    next = std::min(next,
                    now.seconds() + transfer.remaining.megabits() / rate);
  });
  // Wake at background-traffic changes too, so rates stay faithful.
  next = std::min(next, network_.next_traffic_change(now).seconds());

  if (next == std::numeric_limits<double>::infinity()) return;
  pending_ =
      sim_.schedule_at(SimTime{next}, [this](SimTime t) { refresh(t); });
}

void TransferManager::refresh(SimTime now) {
  pending_ = sim::EventHandle{};
  const BusyScope guard{busy_depth_};
  advance_progress(now);
  complete_finished(now);
  reschedule(now);
}

}  // namespace vod::net
