// Timed data transfers over the fluid network.
//
// A transfer is a flow plus a byte count: the manager tracks remaining bytes
// as rates evolve (other transfers starting/stopping, background traffic
// shifting) and fires a completion callback at the simulated instant the
// last byte lands.  The streaming layer builds cluster fetches on top of
// this.
#pragma once

#include <functional>
#include <vector>

#include "common/ids.h"
#include "common/slot_map.h"
#include "common/sim_time.h"
#include "common/units.h"
#include "net/fluid.h"
#include "sim/simulation.h"

namespace vod::net {

/// Drives transfers to completion inside a Simulation.  Progress is exact:
/// between refresh points rates are constant, so remaining bytes decrease
/// linearly and completion times are solved in closed form.
class TransferManager {
 public:
  using CompletionCallback = std::function<void(SimTime)>;

  /// Both references must outlive the manager.
  TransferManager(sim::Simulation& sim, FluidNetwork& network);
  ~TransferManager();

  TransferManager(const TransferManager&) = delete;
  TransferManager& operator=(const TransferManager&) = delete;

  /// Starts moving `size` across `path` (empty = local, runs at `rate_cap`).
  /// `on_complete` fires exactly once unless the transfer is cancelled.
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

 private:
  struct Transfer {
    MegaBytes remaining;
    CompletionCallback on_complete;
  };

  /// Applies linear progress at current rates up to `now`, without touching
  /// the network clock.
  void settle_bytes(SimTime now);
  /// settle_bytes + advance the network clock.
  void advance_progress(SimTime now);
  /// Completes transfers that have drained; callbacks may start new ones.
  void complete_finished(SimTime now);
  /// Schedules the next wake-up (earliest completion or traffic change).
  void reschedule(SimTime now);
  void refresh(SimTime now);

  /// Network change hooks: when something *else* mutates the FluidNetwork
  /// (the SNMP module advancing time, a link failing), settle progress at
  /// the old rates first and re-plan wake-ups after.
  void on_network_pre_change();
  void on_network_post_change();

  /// RAII reentrancy guard: the manager's own network mutations must not
  /// re-trigger the hooks.
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
  // Dense store; settle/complete/reschedule sweeps use the slot map's
  // ordered walk so transfers are visited ascending by FlowId (completion
  // callbacks run in id order at a tie; float progress sums stay
  // reproducible — the order the old std::map iteration had).
  SlotMap<FlowId, Transfer> transfers_;
  /// Completion candidates: transfers whose remaining crossed the done
  /// epsilon during a settle (or were born at/below it).  complete_finished
  /// drains this instead of rescanning every transfer per completion;
  /// entries cancelled in the meantime are skipped by a liveness check.
  std::vector<FlowId> drained_;
  SimTime last_progress_{0.0};
  sim::EventHandle pending_;
  int busy_depth_ = 0;
};

}  // namespace vod::net
