// Timed data transfers over the fluid network.
//
// A transfer is a flow plus a byte count: the manager tracks remaining bytes
// as rates evolve (other transfers starting/stopping, background traffic
// shifting) and fires a completion callback at the simulated instant the
// last byte lands.  The streaming layer builds cluster fetches on top of
// this.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/ids.h"
#include "common/slot_map.h"
#include "common/sim_time.h"
#include "common/units.h"
#include "net/fluid.h"
#include "sim/simulation.h"

namespace vod::net {

/// Drives transfers to completion inside a Simulation.  Progress is exact
/// and lazy: a transfer's rate is constant between the commits that change
/// it, so each transfer keeps (remaining bytes at settled_at) and is settled
/// only when the network logs a change of its rate.  Predicted finishes sit
/// in an indexed min-heap, so an operation costs O(changed flows x log n)
/// rather than a walk over every transfer.
class TransferManager {
 public:
  using CompletionCallback = std::function<void(SimTime)>;

  /// Both references must outlive the manager.
  TransferManager(sim::Simulation& sim, FluidNetwork& network);
  ~TransferManager();

  TransferManager(const TransferManager&) = delete;
  TransferManager& operator=(const TransferManager&) = delete;

  /// Starts moving `size` (positive and finite) across `path` (empty =
  /// local, runs at `rate_cap`).  `on_complete` fires exactly once unless
  /// the transfer is cancelled.
  /// `weight` is the flow's share multiplier in the fluid network's
  /// weighted max-min fill (1 = the classless default).
  FlowId start_transfer(std::vector<LinkId> path, MegaBytes size,
                        Mbps rate_cap, CompletionCallback on_complete,
                        std::uint32_t weight = 1);

  /// Aborts an in-flight transfer (no callback); throws if unknown.
  void cancel(FlowId id);

  [[nodiscard]] bool active(FlowId id) const {
    return transfers_.contains(id);
  }
  [[nodiscard]] MegaBytes remaining(FlowId id) const;
  [[nodiscard]] Mbps current_rate(FlowId id) const;
  [[nodiscard]] std::size_t active_count() const {
    return transfers_.size();
  }

  /// The network transfers run over — exposed so callers pairing a cancel
  /// with a restart (failover) can wrap both in one allocation epoch via
  /// FluidNetwork::defer_reallocate().
  [[nodiscard]] FluidNetwork& network() { return network_; }
  [[nodiscard]] const FluidNetwork& network() const { return network_; }

 private:
  struct Transfer {
    MegaBytes remaining;  // as of settled_at, at the flow's current rate
    SimTime settled_at;
    CompletionCallback on_complete;
    std::uint32_t heap_pos;  // index of this transfer's entry in due_
  };
  /// Completion-index entry: a transfer's predicted finish.  Ordered by
  /// (at, id), so same-instant completions surface in ascending id order.
  struct Due {
    SimTime at;
    FlowId id;
    std::uint32_t slot;  // the transfer's SlotMap slot (stable)
  };

  /// Opens an allocation epoch and moves the network clock inside it.  The
  /// caller applies its flow changes and releases the epoch once
  /// `transfers_` is updated, so one operation commits once.
  [[nodiscard]] FluidNetwork::BatchGuard advance_progress(SimTime now);
  /// Settles every transfer whose rate the network logged as changed (at
  /// its old rate, up to `now`) and re-predicts its finish.
  void absorb_rate_changes(SimTime now);
  /// Completes transfers that have drained; callbacks may start new ones.
  void complete_finished(SimTime now);
  /// Schedules the next wake-up (earliest completion or traffic change).
  void reschedule(SimTime now);
  void refresh(SimTime now);
  /// Runs after a mutation by something *else* (the SNMP module advancing
  /// time, a link failing): absorb its rate changes, complete and re-plan.
  void on_network_change();

  /// Finish predicted from the transfer's settled state at `rate` Mbps.
  [[nodiscard]] static SimTime predict(const Transfer& transfer, double rate);
  /// True when the transfer has drained by `now` at `rate`.
  [[nodiscard]] static bool drained(const Transfer& transfer, const Due& due,
                                    double rate, SimTime now);

  // Indexed binary min-heap over due_, keeping Transfer::heap_pos current.
  [[nodiscard]] static bool earlier(const Due& a, const Due& b) {
    return a.at < b.at || (a.at == b.at && a.id < b.id);
  }
  void heap_place(std::size_t pos, const Due& due);
  void heap_sift_up(std::size_t pos);
  void heap_sift_down(std::size_t pos);
  void heap_remove(std::size_t pos);

  /// RAII reentrancy guard: the manager's own network mutations must not
  /// re-trigger the hook.
  class BusyScope {
   public:
    explicit BusyScope(int& depth) : depth_(depth) { ++depth_; }
    ~BusyScope() { --depth_; }
    BusyScope(const BusyScope&) = delete;
    BusyScope& operator=(const BusyScope&) = delete;

   private:
    int& depth_;
  };

  sim::Simulation& sim_;
  FluidNetwork& network_;
  SlotMap<FlowId, Transfer> transfers_;
  /// Completion index: one entry per transfer, min-heap by (at, id).
  std::vector<Due> due_;
  sim::EventHandle pending_;
  int busy_depth_ = 0;
};

}  // namespace vod::net
