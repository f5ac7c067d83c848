// Fluid-flow bandwidth model.
//
// VoD transfers are modelled as fluid flows: each active flow follows a
// fixed link path and receives a max–min fair share of whatever capacity the
// background (non-VoD) traffic leaves free on every link it crosses, further
// limited by its own rate cap (the title's encoding bitrate or a server's
// NIC).  This is the standard abstraction for bandwidth-arithmetic studies —
// and the paper's evaluation is exactly bandwidth arithmetic.
//
// Class-weighted sharing: every flow carries an integer weight (default 1).
// The progressive filling grows each unfrozen flow by delta x weight per
// round, so on a contended link a weight-4 premium flow receives 4x the
// share of a weight-1 background flow.  Borrowing between classes is
// emergent: a heavy flow frozen at its rate cap stops consuming increments,
// and the remaining (lighter) flows keep filling into the capacity it left
// unused — unused premium share spills to lower classes within the same
// allocation epoch, and is reclaimed the instant the premium cap rises.
// Weights are integers so the weighted arithmetic is exact: with every
// weight at 1 each expression reduces bit-for-bit to the unweighted filler
// the paper benches were frozen against.
//
// Scaling note: the allocator keeps a per-link *flow incidence index*
// (link -> flows crossing it, ascending by id), so one progressive-filling
// pass costs O(rounds x (links + active flows) + total incidence) instead of
// the naive O(rounds x links x flows x path), and per-link queries
// (used_bandwidth, utilization) walk only the flows on that link.  The
// naive filler survives as reallocate_reference() — a bit-identical oracle
// for tests, benches and the optional self-check.
//
// Most mutations do not run the filler at all.  A pathless flow's share is
// its own cap; a clock move that leaves every link's background unchanged
// changes no share; and while the last solve froze every linked flow at its
// cap in its first round, a start or stop that keeps that round's delta
// moves no other flow.  Those commits stamp only the flows they touch, with
// the filler's own arithmetic, so the rates stay bit-identical (DESIGN §10).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/contract.h"
#include "common/ids.h"
#include "common/slot_map.h"
#include "common/sim_time.h"
#include "common/units.h"
#include "net/topology.h"
#include "net/traffic.h"

namespace vod::net {

/// Minimum rate any active flow is granted even on a saturated path, so
/// transfers degrade to "very slow" rather than "stuck forever" (a real TCP
/// flow on a congested link still trickles).
inline constexpr Mbps kMinFlowRate{1e-3};

/// The live bandwidth state of the network: background load from a
/// TrafficModel plus our own flows, shared max–min fairly.
///
/// Flow rates are piecewise constant: they change only when the network
/// mutates (time moves, flows start/stop, links fail/recover).  Components
/// that integrate rates over time (TransferManager) register a change hook
/// and read the rate-change log: every flow whose rate moved, with the rate
/// it had before, so progress is settled only where a rate changed.
class FluidNetwork {
 public:
  /// Both references must outlive the network.
  FluidNetwork(const Topology& topology, const TrafficModel& traffic);

  // The change hooks and incidence index tie the network to one identity.
  FluidNetwork(const FluidNetwork&) = delete;
  FluidNetwork& operator=(const FluidNetwork&) = delete;

  /// `hook` runs after every committed mutation (new rates in force).  While
  /// a hook is installed the network also keeps the rate-change log (see
  /// rate_changes()).  One subscriber — the transfer manager — is sufficient
  /// for this library; an empty hook unsubscribes and drops the log.
  void set_change_hook(std::function<void()> hook);

  /// One rate-change log entry: `flow`'s rate differs from `before`, the
  /// rate it had since the previous entry for it (0 for a new flow).
  struct RateChange {
    FlowId flow;
    Mbps before;
  };
  /// Flows whose rate changed since clear_rate_changes(), in commit order
  /// (a flow may appear once per commit).  Stopped flows are not logged.
  [[nodiscard]] const std::vector<RateChange>& rate_changes() const {
    return rate_changes_;
  }
  void clear_rate_changes() { rate_changes_.clear(); }

  /// Moves the background traffic clock; flow shares are re-solved.
  void set_time(SimTime t);
  [[nodiscard]] SimTime time() const { return now_; }

  /// Marks a link up or down (fiber cut, router crash).  Flows crossing a
  /// down link drop to zero rate until it recovers; background traffic on
  /// it reads as zero.
  void set_link_up(LinkId link, bool up);
  [[nodiscard]] bool link_up(LinkId link) const {
    require_found(topology_.has_link(link),
        "FluidNetwork::link_up: unknown link");
    return link.value() >= link_down_.size() || !link_down_[link.value()];
  }

  /// All currently-down links, ascending by id (fault tooling/report).
  [[nodiscard]] std::vector<LinkId> down_links() const;

  /// Starts a flow across `path` (links in order; may be empty for a purely
  /// local transfer, which then runs at `rate_cap`).  Every link must exist.
  /// `rate_cap` must be positive and finite.  `weight` (>= 1) is the flow's
  /// share of each filling increment — the class-weighted max-min knob; 1 is
  /// the classless paper behaviour.
  FlowId start_flow(std::vector<LinkId> path, Mbps rate_cap,
                    std::uint32_t weight = 1);

  /// The share weight a flow was started with.
  [[nodiscard]] std::uint32_t flow_weight(FlowId flow) const;

  /// Removes a flow; throws std::out_of_range if unknown.
  void stop_flow(FlowId flow);

  /// Changes a flow's rate cap (encoding-bitrate switch, client line
  /// upgrade); shares are re-solved.  `rate_cap` must be positive and
  /// finite; throws std::out_of_range if the flow is unknown.
  void set_flow_cap(FlowId flow, Mbps rate_cap);

  /// Current fair-share rate of a flow (at least kMinFlowRate unless its
  /// path crosses a down link).  Inside an open allocation epoch (see
  /// BatchGuard) rates are stale: they reflect the last commit, and
  /// flows started within the epoch read 0 until it closes.
  [[nodiscard]] Mbps flow_rate(FlowId flow) const;

  /// The distinct links a flow crosses, ascending by id (a path that
  /// repeats a link crosses it once).
  [[nodiscard]] const std::vector<LinkId>& flow_links(FlowId flow) const;

  /// Background-only load on a link at the current time, clamped to the
  /// link's capacity (zero while the link is down).
  [[nodiscard]] Mbps background(LinkId link) const;

  /// Background plus all flow shares crossing the link.  An incidence-index
  /// walk: O(flows on this link), not O(all flows x path length).
  [[nodiscard]] Mbps used_bandwidth(LinkId link) const;

  /// used / capacity, clamped to [0, 1].
  [[nodiscard]] double utilization(LinkId link) const;

  [[nodiscard]] std::size_t active_flow_count() const {
    return flows_.size();
  }

  [[nodiscard]] const Topology& topology() const { return topology_; }

  /// Next instant after `t` when background traffic shifts (see
  /// TrafficModel::next_change_after).
  [[nodiscard]] SimTime next_traffic_change(SimTime t) const {
    return traffic_.next_change_after(t);
  }

  // ---- coalesced allocation epochs ----

  /// RAII handle for one allocation epoch: while any guard is alive,
  /// mutations (start/stop/cap-edit/link-flap/clock moves) update state but
  /// defer the reallocation; one commit (a solve or a fast path) plus the
  /// change hook run when the last guard releases.  Callers tearing down or
  /// starting many flows at one simulated instant (failover storms,
  /// completion sweeps) pay for one commit instead of one per mutation.
  ///
  /// Mid-epoch rate reads are stale: they are the rates in force since the
  /// last commit.  Each TransferManager operation (clock move plus flow
  /// change or completion sweep) is one epoch and commits once.
  class [[nodiscard]] BatchGuard {
   public:
    BatchGuard() = default;
    BatchGuard(BatchGuard&& other) noexcept : net_(other.net_) {
      other.net_ = nullptr;
    }
    BatchGuard& operator=(BatchGuard&& other) noexcept {
      if (this != &other) {
        release();
        net_ = other.net_;
        other.net_ = nullptr;
      }
      return *this;
    }
    BatchGuard(const BatchGuard&) = delete;
    BatchGuard& operator=(const BatchGuard&) = delete;
    ~BatchGuard() { release(); }

    /// Closes the epoch early (idempotent); the destructor calls this.
    void release() {
      if (net_ != nullptr) {
        FluidNetwork* net = net_;
        net_ = nullptr;
        net->end_batch();
      }
    }

   private:
    friend class FluidNetwork;
    explicit BatchGuard(FluidNetwork* net) : net_(net) {}
    FluidNetwork* net_ = nullptr;
  };

  /// Opens (or nests into) an allocation epoch.  The guard must not outlive
  /// the network.
  BatchGuard defer_reallocate() {
    ++batch_depth_;
    return BatchGuard{this};
  }

  // ---- reference implementation & introspection ----

  /// The original naive progressive filler, kept verbatim as an oracle: a
  /// from-scratch O(rounds x links x flows x path) solve of the current
  /// state, returning (flow, rate) ascending by id.  The indexed allocator
  /// is bit-identical to it by construction; the differential tests and
  /// bench_fluid_alloc hold it to that.
  [[nodiscard]] std::vector<std::pair<FlowId, Mbps>> reallocate_reference()
      const;

  /// Debug flag: when on, every commit — full solve or fast path — re-solves
  /// with reallocate_reference() and requires bitwise-equal rates for every
  /// flow (throws std::logic_error on divergence).  Off by default — it
  /// restores the naive cost.
  void set_check_against_reference(bool on) { check_reference_ = on; }

  /// Progressive fillings performed so far (epoch coalescing and every fast
  /// path show up as this not advancing).
  [[nodiscard]] std::size_t reallocation_count() const {
    return reallocation_count_;
  }

  /// TrafficModel::background_load calls issued so far: one per
  /// background() query on an up link.
  [[nodiscard]] std::size_t traffic_query_count() const {
    return traffic_query_count_;
  }

 private:
  struct Flow {
    std::vector<LinkId> links;  // sorted unique links — the index keys
    Mbps cap;
    Mbps rate;
    /// Share weight of the progressive filling (>= 1).  Integer so per-link
    /// weight sums are exact and the all-ones case stays bit-identical to
    /// the unweighted filler.
    std::uint32_t weight = 1;
  };

  void reallocate();
  /// Marks the open epoch dirty; returns true when the mutation is deferred
  /// into it.
  bool pre_mutation();
  /// Brings every rate up to date — by a full solve or, when the state
  /// allows, by stamping only the flows touched since the last commit — and
  /// runs the change hook.
  void commit_mutation();
  void end_batch();
  void ensure_index_size();
  void index_insert(std::uint32_t slot, const Flow& flow);
  void index_remove(FlowId id, const Flow& flow);
  /// Sets a flow's rate, logging it when it changed.
  void stamp(FlowId id, Flow& flow, Mbps rate);
  /// Clamped background of an up link at the current clock (one traffic
  /// query), or 0 for a down link.
  [[nodiscard]] double read_background(std::size_t link) const;
  /// The filler's first-round residual of a link given its background.
  [[nodiscard]] double residual_of(std::size_t link, double background) const;
  /// Fast path (c): true when some link's background differs from the
  /// value the last solve read.  O(links).
  [[nodiscard]] bool background_moved() const;
  /// Fast path (b): true when the linked starts and stops since the last
  /// commit leave the last solve's first round intact (same delta, every
  /// linked flow frozen at its cap in it).  O(path) per started flow.
  [[nodiscard]] bool round_one_holds() const;
  void check_reference() const;
  void invalidate_solve() {
    stale_ = true;
    round_one_ = false;
  }

  void post_change() const {
    if (change_hook_) change_hook_();
  }

  std::function<void()> change_hook_;
  const Topology& topology_;
  const TrafficModel& traffic_;
  SimTime now_{0.0};
  // Dense slot-map store; every iteration (fair-share filling, per-link
  // sums) uses its ascending-id ordered walk, so float reductions stay
  // bit-identical across runs and to the old std::map-based code.
  SlotMap<FlowId, Flow> flows_;
  /// link id -> SlotMap slots of the flows crossing it, ascending by flow
  /// id (ids are handed out monotonically, so insertion is an append and
  /// the per-link sums reduce in exactly the order the naive full scan
  /// used).  A slot is stable for the flow's lifetime and names its id.
  std::vector<std::vector<std::uint32_t>> link_flows_;
  /// link id -> sum of the weights of the flows crossing it (exact integer
  /// sums, kept with the index; the filler starts each solve from these).
  std::vector<std::uint64_t> link_weight_;
  std::vector<bool> link_down_;  // indexed by link id; default all up
  FlowId::underlying_type next_flow_ = 0;
  /// Flows whose `links` list is non-empty.  When zero every active flow is
  /// pathless and its share is exactly its (floored) cap: nothing to solve.
  std::size_t linked_flow_count_ = 0;

  // ---- mutations since the last commit ----
  /// Pathless flows started or cap-edited (stopped ones are skipped).
  std::vector<FlowId> pending_local_;
  /// Linked flows started (stopped ones are skipped).
  std::vector<FlowId> pending_linked_;
  bool clock_moved_ = false;
  bool linked_changed_ = false;  // a linked flow started or stopped

  // ---- what the last full solve read and found ----
  /// True when no full solve describes the current linked flows: none has
  /// run yet, a link flapped, a linked cap changed, or the linked flows
  /// emptied out.  The next commit with linked flows solves in full.
  bool stale_ = true;
  /// link id -> clamped background the last solve read (0 when down).
  std::vector<double> solved_background_;
  /// The last solve froze every linked flow at its cap in round one, with
  /// delta = round_one_delta_ > 0; round_one_ties_ live linked flows have
  /// cap / weight == delta (kept up to date by start/stop while valid).
  bool round_one_ = false;
  double round_one_delta_ = 0.0;
  std::size_t round_one_ties_ = 0;

  std::vector<RateChange> rate_changes_;

  int batch_depth_ = 0;
  bool batch_dirty_ = false;
  bool check_reference_ = false;
  std::size_t reallocation_count_ = 0;

  mutable std::size_t traffic_query_count_ = 0;

  // Scratch buffers reused across reallocations (sized to flows/links) so
  // steady-state epochs allocate nothing.
  std::vector<double> scratch_residual_;
  /// Per-link sum of unfrozen-flow weights (exact: integer arithmetic).
  /// All-ones weights make this the old per-link unfrozen *count*, so the
  /// weighted filling reproduces the unweighted one bit-for-bit.
  std::vector<std::uint64_t> scratch_weight_on_;
  std::vector<FlowId> scratch_ids_;
  std::vector<Flow*> scratch_flows_;
  std::vector<double> scratch_rates_;
  std::vector<char> scratch_frozen_;
  std::vector<std::size_t> scratch_unfrozen_;
};

}  // namespace vod::net
