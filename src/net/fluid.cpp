#include "net/fluid.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/contract.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace vod::net {

FluidNetwork::FluidNetwork(const Topology& topology,
                           const TrafficModel& traffic)
    : topology_(topology), traffic_(traffic) {}

void FluidNetwork::set_change_hooks(std::function<void()> pre,
                                    std::function<void()> post) {
  pre_change_hook_ = std::move(pre);
  post_change_hook_ = std::move(post);
}

bool FluidNetwork::pre_mutation() {
  if (batch_depth_ == 0) {
    pre_change();
    return false;
  }
  if (!batch_dirty_) {
    // First mutation of the epoch: subscribers settle at the old rates
    // once, however many mutations follow before the epoch closes.
    batch_dirty_ = true;
    pre_change();
  }
  return true;
}

void FluidNetwork::commit_mutation() {
  // Empty-network fast path: with no flows there are no shares to solve,
  // so a clock move / link flap / final stop_flow skips the residual walk.
  if (flows_.empty()) {
    pending_local_.clear();
    post_change();
    return;
  }
  // All-local fast path: a pathless flow's max-min share is exactly
  // max(cap, kMinFlowRate) — independent of links, background traffic and
  // every other flow, and bit-identical to what reallocate() assigns it
  // (pathless flows are frozen at cap before any filling round).  With no
  // linked flow active, only the flows touched since the last solve need
  // their rate stamped.  Disabled under the reference self-check, which
  // wants every solve to run the full filler.
  if (linked_flow_count_ == 0 && !check_reference_) {
    for (const FlowId id : pending_local_) {
      Flow* flow = flows_.find(id);  // stopped mid-epoch -> skip
      if (flow != nullptr) flow->rate = std::max(flow->cap, kMinFlowRate);
    }
    pending_local_.clear();
    post_change();
    return;
  }
  reallocate();
  pending_local_.clear();
  post_change();
}

void FluidNetwork::end_batch() {
  require(batch_depth_ > 0, "FluidNetwork: unbalanced BatchGuard release");
  if (--batch_depth_ > 0) return;
  if (!batch_dirty_) return;
  batch_dirty_ = false;
  commit_mutation();
}

void FluidNetwork::set_time(SimTime t) {
  require(!(t < now_), "FluidNetwork::set_time: time went backward");
  if (t == now_) return;
  const bool deferred = pre_mutation();
  now_ = t;
  ++bg_gen_;  // the background cache is keyed on (link, now)
  if (!deferred) commit_mutation();
}

void FluidNetwork::ensure_index_size() {
  if (link_flows_.size() < topology_.link_count()) {
    link_flows_.resize(topology_.link_count());
  }
}

void FluidNetwork::index_insert(FlowId id, std::uint32_t slot,
                                const Flow& flow) {
  ensure_index_size();
  for (const LinkId link : flow.links) {
    // Flow ids are handed out monotonically, so appending keeps each
    // per-link list sorted ascending by id.
    link_flows_[link.value()].push_back(IndexEntry{id, slot});
  }
}

void FluidNetwork::index_remove(FlowId id, const Flow& flow) {
  for (const LinkId link : flow.links) {
    auto& list = link_flows_[link.value()];
    const auto it = std::lower_bound(
        list.begin(), list.end(), id,
        [](const IndexEntry& e, FlowId needle) { return e.id < needle; });
    ensure(it != list.end() && it->id == id,
        "FluidNetwork: incidence index out of sync");
    list.erase(it);
  }
}

FlowId FluidNetwork::start_flow(std::vector<LinkId> path, Mbps rate_cap,
                                std::uint32_t weight) {
  require(!(rate_cap.value() <= 0.0),
      "FluidNetwork::start_flow: cap must be positive");
  require(weight >= 1, "FluidNetwork::start_flow: weight must be >= 1");
  for (const LinkId link : path) {
    require(topology_.has_link(link),
        "FluidNetwork::start_flow: unknown link in path");
  }
  const bool deferred = pre_mutation();
  const FlowId id{next_flow_++};
  Flow& flow = flows_.insert(id, Flow{std::move(path), {}, rate_cap,
                                      Mbps{0.0}, weight});
  flow.links = flow.path;
  std::sort(flow.links.begin(), flow.links.end());
  flow.links.erase(std::unique(flow.links.begin(), flow.links.end()),
                   flow.links.end());
  index_insert(id, flows_.slot_of(id), flow);
  if (flow.links.empty()) {
    pending_local_.push_back(id);
  } else {
    ++linked_flow_count_;
  }
  if (!deferred) commit_mutation();
  return id;
}

void FluidNetwork::stop_flow(FlowId flow) {
  const Flow* entry = flows_.find(flow);
  require_found(entry != nullptr, "FluidNetwork::stop_flow: unknown flow");
  const bool deferred = pre_mutation();
  index_remove(flow, *entry);
  if (!entry->links.empty()) --linked_flow_count_;
  flows_.erase(flow);
  if (!deferred) commit_mutation();
}

void FluidNetwork::set_flow_cap(FlowId flow, Mbps rate_cap) {
  require(!(rate_cap.value() <= 0.0),
      "FluidNetwork::set_flow_cap: cap must be positive");
  Flow* entry = flows_.find(flow);
  require_found(entry != nullptr,
      "FluidNetwork::set_flow_cap: unknown flow");
  if (entry->cap == rate_cap) return;  // no state change
  const bool deferred = pre_mutation();
  entry->cap = rate_cap;
  if (entry->links.empty()) pending_local_.push_back(flow);
  if (!deferred) commit_mutation();
}

Mbps FluidNetwork::flow_rate(FlowId flow) const {
  const Flow* entry = flows_.find(flow);
  require_found(entry != nullptr, "FluidNetwork::flow_rate: unknown flow");
  return entry->rate;
}

std::uint32_t FluidNetwork::flow_weight(FlowId flow) const {
  const Flow* entry = flows_.find(flow);
  require_found(entry != nullptr, "FluidNetwork::flow_weight: unknown flow");
  return entry->weight;
}

const std::vector<LinkId>& FluidNetwork::flow_path(FlowId flow) const {
  const Flow* entry = flows_.find(flow);
  require_found(entry != nullptr, "FluidNetwork::flow_path: unknown flow");
  return entry->path;
}

void FluidNetwork::set_link_up(LinkId link, bool up) {
  require_found(topology_.has_link(link),
      "FluidNetwork::set_link_up: unknown link");
  if (link_down_.size() <= link.value()) {
    link_down_.resize(topology_.link_count(), false);
  }
  if (link_down_[link.value()] == !up) return;  // no state change
  const bool deferred = pre_mutation();
  link_down_[link.value()] = !up;
  if (!deferred) commit_mutation();
}

std::vector<LinkId> FluidNetwork::down_links() const {
  std::vector<LinkId> down;
  for (std::size_t i = 0; i < link_down_.size(); ++i) {
    if (link_down_[i]) {
      down.push_back(LinkId{static_cast<LinkId::underlying_type>(i)});
    }
  }
  return down;
}

Mbps FluidNetwork::background(LinkId link) const {
  require_found(topology_.has_link(link),
      "FluidNetwork::background: unknown link");
  if (!link_up(link)) return Mbps{0.0};
  const std::size_t l = link.value();
  if (bg_cache_.size() <= l) {
    bg_cache_.resize(topology_.link_count());
    bg_cache_gen_.resize(topology_.link_count(), 0);
  }
  if (bg_cache_gen_[l] == bg_gen_) return bg_cache_[l];
  // Background never exceeds the link's capacity: the trace may carry the
  // paper's raw counters, but physics caps usage at the line rate.
  ++traffic_query_count_;
  const Mbps raw = traffic_.background_load(link, now_);
  const Mbps clamped = std::min(raw, topology_.link(link).capacity);
  bg_cache_[l] = clamped;
  bg_cache_gen_[l] = bg_gen_;
  return clamped;
}

Mbps FluidNetwork::used_bandwidth(LinkId link) const {
  Mbps used = background(link);
  // Sum in ascending flow-id order — the exact reduction order the naive
  // all-flows scan used, so the result stays bit-identical to it.
  if (link.value() < link_flows_.size()) {
    for (const IndexEntry& entry : link_flows_[link.value()]) {
      used += flows_.slot_value(entry.slot).rate;
    }
  }
  return std::min(used, topology_.link(link).capacity);
}

double FluidNetwork::utilization(LinkId link) const {
  const double u =
      used_bandwidth(link) / topology_.link(link).capacity;
  return std::clamp(u, 0.0, 1.0);
}

void FluidNetwork::reallocate() {
  // Progressive filling, driven by the incidence index: grow every
  // unfrozen flow's rate by delta x weight until a flow hits its cap or a
  // link exhausts its residual capacity; freeze and repeat.  Produces the
  // weighted max–min fair allocation subject to rate caps — bit-identical
  // to reallocate_reference(), which rediscovers per-link weight sums by
  // scanning all flows each round where this maintains them as integer
  // counters and resolves freeze sets through the per-link flow lists.
  ++reallocation_count_;
  VOD_PROFILE_SCOPE("fluid.reallocate");
  ensure_index_size();
  const std::size_t link_count = topology_.link_count();

  std::vector<double>& residual = scratch_residual_;
  residual.resize(link_count);
  for (std::size_t l = 0; l < link_count; ++l) {
    const LinkId link{static_cast<LinkId::underlying_type>(l)};
    residual[l] =
        link_up(link)
            ? std::max(0.0, (topology_.link(link).capacity -
                             background(link)).value())
            : 0.0;
  }

  // Per-link sums of unfrozen-flow weights: every indexed flow starts
  // unfrozen (local/empty-path flows appear in no list).  Integer sums are
  // exact, and with all-ones weights they equal the plain unfrozen counts,
  // so the weighted arithmetic below reduces bit-for-bit to the old
  // unweighted filler.
  std::vector<std::uint64_t>& weight_on = scratch_weight_on_;
  weight_on.resize(link_count);
  for (std::size_t l = 0; l < link_count; ++l) {
    std::uint64_t sum = 0;
    for (const IndexEntry& entry : link_flows_[l]) {
      sum += flows_.slot_value(entry.slot).weight;
    }
    weight_on[l] = sum;
  }

  // Flow-parallel arrays in flows_ (ascending id) order, so fills and cap
  // minima visit flows exactly as the reference does.
  std::vector<FlowId>& ids = scratch_ids_;
  std::vector<Flow*>& flow_of = scratch_flows_;
  std::vector<double>& rate = scratch_rates_;
  std::vector<char>& frozen = scratch_frozen_;
  ids.clear();
  flow_of.clear();
  rate.clear();
  frozen.clear();
  flows_.for_each_ordered([&](FlowId id, Flow& flow) {
    ids.push_back(id);
    flow_of.push_back(&flow);
    rate.push_back(0.0);
    frozen.push_back(0);
  });
  const std::size_t flow_count = ids.size();
  std::size_t unfrozen_total = flow_count;

  // Flows with empty paths are purely local: they get their cap outright.
  for (std::size_t i = 0; i < flow_count; ++i) {
    if (flow_of[i]->links.empty()) {
      rate[i] = flow_of[i]->cap.value();
      frozen[i] = 1;
      --unfrozen_total;
    }
  }

  std::vector<std::size_t>& unfrozen = scratch_unfrozen_;
  unfrozen.clear();
  for (std::size_t i = 0; i < flow_count; ++i) {
    if (!frozen[i]) unfrozen.push_back(i);
  }

  const auto freeze = [&](std::size_t i) {
    frozen[i] = 1;
    --unfrozen_total;
    for (const LinkId link : flow_of[i]->links) {
      weight_on[link.value()] -= flow_of[i]->weight;
    }
  };
  // Index of flow `id` in the parallel arrays (ids is sorted ascending).
  const auto slot_of = [&](FlowId id) {
    const auto it = std::lower_bound(ids.begin(), ids.end(), id);
    ensure(it != ids.end() && *it == id,
        "FluidNetwork::reallocate: index entry for unknown flow");
    return static_cast<std::size_t>(it - ids.begin());
  };

  constexpr double kEps = 1e-12;
  std::uint64_t rounds = 0;
  while (unfrozen_total > 0) {
    ++rounds;
    // Largest per-weight-unit increment no constraint can absorb less of:
    // each unfrozen flow grows by delta x its weight, so a link drains at
    // delta x (sum of unfrozen weights crossing it).
    double delta = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < link_count; ++l) {
      const std::uint64_t w = weight_on[l];
      if (w > 0) delta = std::min(delta, residual[l] / static_cast<double>(w));
    }
    for (const std::size_t i : unfrozen) {
      delta = std::min(delta, (flow_of[i]->cap.value() - rate[i]) /
                                  static_cast<double>(flow_of[i]->weight));
    }

    if (delta > 0.0) {
      for (const std::size_t i : unfrozen) {
        rate[i] += delta * static_cast<double>(flow_of[i]->weight);
      }
      // Links with no unfrozen flows keep their residual bit-for-bit
      // (subtracting delta * 0 and re-clamping is the identity on the
      // non-negative values stored here), so they are skipped.
      for (std::size_t l = 0; l < link_count; ++l) {
        const std::uint64_t w = weight_on[l];
        if (w > 0) {
          residual[l] -= delta * static_cast<double>(w);
          residual[l] = std::max(residual[l], 0.0);
        }
      }
    }

    // Freeze flows at their cap, then everyone on exhausted links.  Rates
    // and residuals are fixed during this pass, so resolving the freeze
    // set link-by-link through the index matches the reference's
    // flow-by-flow path scan exactly.
    bool froze = false;
    for (const std::size_t i : unfrozen) {
      if (rate[i] >= flow_of[i]->cap.value() - kEps) {
        freeze(i);
        froze = true;
      }
    }
    for (std::size_t l = 0; l < link_count; ++l) {
      if (weight_on[l] == 0 || residual[l] > kEps) continue;
      for (const IndexEntry& entry : link_flows_[l]) {
        const std::size_t i = slot_of(entry.id);
        if (!frozen[i]) {
          freeze(i);
          froze = true;
        }
      }
    }
    if (!froze) break;  // nothing limits the remaining flows (shouldn't occur)

    unfrozen.erase(
        std::remove_if(unfrozen.begin(), unfrozen.end(),
                       [&](std::size_t i) { return frozen[i] != 0; }),
        unfrozen.end());
  }

  // Final stamp.  Flows crossing a down link are truly stuck (rate 0);
  // everyone else gets at least the trickle floor.
  for (std::size_t i = 0; i < flow_count; ++i) {
    bool severed = false;
    for (const LinkId link : flow_of[i]->links) {
      if (!link_up(link)) severed = true;
    }
    flow_of[i]->rate = severed ? Mbps{0.0}
                               : std::max(Mbps{rate[i]}, kMinFlowRate);
  }

  if (obs::TraceRecorder* tr = obs::trace_sink()) {
    tr->instant(obs::Subsystem::kFluid, "fluid.realloc",
                {{"rounds", obs::num(rounds)},
                 {"flows", obs::num(static_cast<std::uint64_t>(flow_count))}});
    tr->counter(obs::Subsystem::kFluid, "fluid.active_flows",
                static_cast<double>(flow_count));
  }

  if (check_reference_) {
    const std::vector<std::pair<FlowId, Mbps>> reference =
        reallocate_reference();
    ensure(reference.size() == flow_count,
        "FluidNetwork: reference allocation lost a flow");
    for (std::size_t i = 0; i < flow_count; ++i) {
      ensure(reference[i].first == ids[i] &&
                 reference[i].second.value() == flow_of[i]->rate.value(),
          "FluidNetwork: indexed allocation diverged from "
          "reallocate_reference()");
    }
  }
}

std::vector<std::pair<FlowId, Mbps>> FluidNetwork::reallocate_reference()
    const {
  // The original from-scratch progressive filler, preserved as the oracle
  // the indexed allocator is checked against: per-link unfrozen weight
  // sums are recomputed by scanning every flow's path each round (with
  // all-ones weights they are the old per-link unfrozen counts).
  std::vector<double> residual(topology_.link_count());
  for (std::size_t l = 0; l < residual.size(); ++l) {
    const LinkId link{static_cast<LinkId::underlying_type>(l)};
    residual[l] =
        link_up(link)
            ? std::max(0.0, (topology_.link(link).capacity -
                             background(link)).value())
            : 0.0;
  }

  struct Active {
    const Flow* flow;
    FlowId id;
    double rate = 0.0;
    bool frozen = false;
  };
  std::vector<Active> active;
  active.reserve(flows_.size());
  // The ordered walk ascends by id, so `active` is deterministically
  // ordered too.
  flows_.for_each_ordered([&](FlowId id, const Flow& flow) {
    active.push_back(Active{&flow, id});
  });

  // Flows with empty paths are purely local: they get their cap outright.
  for (Active& a : active) {
    if (a.flow->path.empty()) {
      a.rate = a.flow->cap.value();
      a.frozen = true;
    }
  }

  const auto weight_on = [&](std::size_t l) {
    std::uint64_t sum = 0;
    for (const Active& a : active) {
      if (a.frozen) continue;
      for (const LinkId link : a.flow->path) {
        if (link.value() == l) {
          sum += a.flow->weight;
          break;
        }
      }
    }
    return sum;
  };

  for (;;) {
    bool any_unfrozen = false;
    for (const Active& a : active) any_unfrozen |= !a.frozen;
    if (!any_unfrozen) break;

    // Largest per-weight-unit increment no constraint can absorb less of.
    double delta = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < residual.size(); ++l) {
      const std::uint64_t w = weight_on(l);
      if (w > 0) {
        delta = std::min(delta, residual[l] / static_cast<double>(w));
      }
    }
    for (const Active& a : active) {
      if (!a.frozen) {
        delta = std::min(delta, (a.flow->cap.value() - a.rate) /
                                    static_cast<double>(a.flow->weight));
      }
    }

    if (delta > 0.0) {
      for (Active& a : active) {
        if (!a.frozen) a.rate += delta * static_cast<double>(a.flow->weight);
      }
      for (std::size_t l = 0; l < residual.size(); ++l) {
        const std::uint64_t w = weight_on(l);
        residual[l] -= delta * static_cast<double>(w);
        residual[l] = std::max(residual[l], 0.0);
      }
    }

    // Freeze flows at their cap or on exhausted links.
    constexpr double kEps = 1e-12;
    bool froze = false;
    for (Active& a : active) {
      if (a.frozen) continue;
      if (a.rate >= a.flow->cap.value() - kEps) {
        a.frozen = true;
        froze = true;
        continue;
      }
      for (const LinkId link : a.flow->path) {
        if (residual[link.value()] <= kEps) {
          a.frozen = true;
          froze = true;
          break;
        }
      }
    }
    if (!froze) break;  // nothing limits the remaining flows (shouldn't occur)
  }

  std::vector<std::pair<FlowId, Mbps>> out;
  out.reserve(active.size());
  for (const Active& a : active) {
    // Flows crossing a down link are truly stuck (rate 0); everyone else
    // gets at least the trickle floor.
    bool severed = false;
    for (const LinkId link : a.flow->path) {
      if (!link_up(link)) severed = true;
    }
    out.emplace_back(a.id, severed ? Mbps{0.0}
                                   : std::max(Mbps{a.rate}, kMinFlowRate));
  }
  return out;
}

}  // namespace vod::net
