#include "net/fluid.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/contract.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace vod::net {

namespace {
// A flow freezes once its rate is within this of its cap, and a link
// binds once its residual falls to this (the filler's own tolerance).
constexpr double kFreezeEps = 1e-12;
}  // namespace

FluidNetwork::FluidNetwork(const Topology& topology,
                           const TrafficModel& traffic)
    : topology_(topology), traffic_(traffic) {}

void FluidNetwork::set_change_hook(std::function<void()> hook) {
  change_hook_ = std::move(hook);
  rate_changes_.clear();
}

bool FluidNetwork::pre_mutation() {
  if (batch_depth_ == 0) return false;
  batch_dirty_ = true;
  return true;
}

void FluidNetwork::stamp(FlowId id, Flow& flow, Mbps rate) {
  if (rate.value() == flow.rate.value()) return;
  if (change_hook_) rate_changes_.push_back(RateChange{id, flow.rate});
  flow.rate = rate;
}

void FluidNetwork::commit_mutation() {
  if (linked_flow_count_ == 0) {
    // All-local (or empty) network: nothing to solve.  The next linked
    // flow finds no solve describing it and solves in full.
    invalidate_solve();
  } else if (stale_ || (clock_moved_ && background_moved()) ||
             (linked_changed_ && !round_one_holds())) {
    reallocate();
  } else {
    // Fast path (b): the last solve's first round still holds, so every
    // flow started since keeps delta x weight — exactly what the filler's
    // single round would give it — and no other linked flow moves.
    for (const FlowId id : pending_linked_) {
      Flow* flow = flows_.find(id);  // stopped mid-epoch -> skip
      if (flow == nullptr) continue;
      stamp(id, *flow,
            std::max(Mbps{round_one_delta_ *
                          static_cast<double>(flow->weight)},
                     kMinFlowRate));
    }
  }
  // Fast path (a): a pathless flow's max-min share is exactly
  // max(cap, kMinFlowRate) — independent of links, background traffic and
  // every other flow (reallocate() freezes it at cap before any round).
  for (const FlowId id : pending_local_) {
    Flow* flow = flows_.find(id);  // stopped mid-epoch -> skip
    if (flow != nullptr) stamp(id, *flow, std::max(flow->cap, kMinFlowRate));
  }
  pending_local_.clear();
  pending_linked_.clear();
  clock_moved_ = false;
  linked_changed_ = false;
  if (check_reference_) check_reference();
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
  clock_moved_ = true;
  if (!deferred) commit_mutation();
}

void FluidNetwork::ensure_index_size() {
  if (link_flows_.size() < topology_.link_count()) {
    link_flows_.resize(topology_.link_count());
    link_weight_.resize(topology_.link_count(), 0);
  }
}

void FluidNetwork::index_insert(std::uint32_t slot, const Flow& flow) {
  ensure_index_size();
  for (const LinkId link : flow.links) {
    // Flow ids are handed out monotonically, so appending keeps each
    // per-link list sorted ascending by id.
    link_flows_[link.value()].push_back(slot);
    link_weight_[link.value()] += flow.weight;
  }
}

void FluidNetwork::index_remove(FlowId id, const Flow& flow) {
  for (const LinkId link : flow.links) {
    auto& list = link_flows_[link.value()];
    const auto it = std::lower_bound(
        list.begin(), list.end(), id,
        [&](std::uint32_t slot, FlowId needle) {
          return flows_.slot_id(slot) < needle;
        });
    ensure(it != list.end() && flows_.slot_id(*it) == id,
        "FluidNetwork: incidence index out of sync");
    list.erase(it);
    link_weight_[link.value()] -= flow.weight;
  }
}

FlowId FluidNetwork::start_flow(std::vector<LinkId> path, Mbps rate_cap,
                                std::uint32_t weight) {
  require_positive_finite(rate_cap.value(),
      "FluidNetwork::start_flow: cap must be positive and finite");
  require(weight >= 1, "FluidNetwork::start_flow: weight must be >= 1");
  for (const LinkId link : path) {
    require(topology_.has_link(link),
        "FluidNetwork::start_flow: unknown link in path");
  }
  const bool deferred = pre_mutation();
  const FlowId id{next_flow_++};
  std::sort(path.begin(), path.end());
  path.erase(std::unique(path.begin(), path.end()), path.end());
  Flow& flow =
      flows_.insert(id, Flow{std::move(path), rate_cap, Mbps{0.0}, weight});
  index_insert(flows_.slot_of(id), flow);
  if (flow.links.empty()) {
    pending_local_.push_back(id);
  } else {
    ++linked_flow_count_;
    linked_changed_ = true;
    pending_linked_.push_back(id);
    if (round_one_ &&
        rate_cap.value() / static_cast<double>(weight) == round_one_delta_) {
      ++round_one_ties_;
    }
  }
  if (!deferred) commit_mutation();
  return id;
}

void FluidNetwork::stop_flow(FlowId flow) {
  const Flow* entry = flows_.find(flow);
  require_found(entry != nullptr, "FluidNetwork::stop_flow: unknown flow");
  const bool deferred = pre_mutation();
  index_remove(flow, *entry);
  if (!entry->links.empty()) {
    --linked_flow_count_;
    linked_changed_ = true;
    if (round_one_ && entry->cap.value() /
                              static_cast<double>(entry->weight) ==
                          round_one_delta_) {
      --round_one_ties_;
    }
  }
  flows_.erase(flow);
  if (!deferred) commit_mutation();
}

void FluidNetwork::set_flow_cap(FlowId flow, Mbps rate_cap) {
  require_positive_finite(rate_cap.value(),
      "FluidNetwork::set_flow_cap: cap must be positive and finite");
  Flow* entry = flows_.find(flow);
  require_found(entry != nullptr,
      "FluidNetwork::set_flow_cap: unknown flow");
  if (entry->cap == rate_cap) return;  // no state change
  const bool deferred = pre_mutation();
  entry->cap = rate_cap;
  if (entry->links.empty()) {
    pending_local_.push_back(flow);
  } else {
    invalidate_solve();
  }
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

const std::vector<LinkId>& FluidNetwork::flow_links(FlowId flow) const {
  const Flow* entry = flows_.find(flow);
  require_found(entry != nullptr, "FluidNetwork::flow_links: unknown flow");
  return entry->links;
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
  invalidate_solve();
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
  // Background never exceeds the link's capacity: the trace may carry the
  // paper's raw counters, but physics caps usage at the line rate.
  ++traffic_query_count_;
  return std::min(traffic_.background_load(link, now_),
                  topology_.link(link).capacity);
}

double FluidNetwork::read_background(std::size_t link) const {
  return background(LinkId{static_cast<LinkId::underlying_type>(link)})
      .value();
}

double FluidNetwork::residual_of(std::size_t link, double background) const {
  const LinkId id{static_cast<LinkId::underlying_type>(link)};
  return link_up(id) ? std::max(0.0, (topology_.link(id).capacity -
                                      Mbps{background}).value())
                     : 0.0;
}

bool FluidNetwork::background_moved() const {
  const std::size_t link_count = topology_.link_count();
  if (solved_background_.size() != link_count) return true;
  for (std::size_t l = 0; l < link_count; ++l) {
    // Bitwise comparison: a NaN background never compares equal, so it
    // can only force a solve, never skip one.
    if (read_background(l) != solved_background_[l]) return true;
  }
  return false;
}

bool FluidNetwork::round_one_holds() const {
  // The stops since the last commit only shrank per-link weight sums, so
  // their candidates rose; a remaining flow with cap / weight == delta
  // keeps delta attained.  Each start must not lower delta — neither its
  // own cap candidate nor any of its links' residual / (W + w) — and must
  // itself freeze at its cap in the one round.
  if (!round_one_ || round_one_ties_ == 0) return false;
  const double delta = round_one_delta_;
  for (const FlowId id : pending_linked_) {
    const Flow* flow = flows_.find(id);
    if (flow == nullptr) continue;  // stopped mid-epoch
    const double weight = static_cast<double>(flow->weight);
    const double cap = flow->cap.value();
    if (!(cap / weight >= delta) || !(delta * weight >= cap - kFreezeEps)) {
      return false;
    }
    for (const LinkId link : flow->links) {
      const std::size_t l = link.value();
      if (l >= solved_background_.size() || !link_up(link)) return false;
      // link_weight_ already includes every start and stop of the epoch.
      if (!(residual_of(l, solved_background_[l]) /
                static_cast<double>(link_weight_[l]) >=
            delta)) {
        return false;
      }
    }
  }
  return true;
}

Mbps FluidNetwork::used_bandwidth(LinkId link) const {
  Mbps used = background(link);
  // Sum in ascending flow-id order — the exact reduction order the naive
  // all-flows scan used, so the result stays bit-identical to it.
  if (link.value() < link_flows_.size()) {
    for (const std::uint32_t slot : link_flows_[link.value()]) {
      used += flows_.slot_value(slot).rate;
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

  // The backgrounds read here are kept: a later clock move re-solves only
  // if one of them changed (fast path (c)).
  std::vector<double>& residual = scratch_residual_;
  residual.resize(link_count);
  solved_background_.resize(link_count);
  for (std::size_t l = 0; l < link_count; ++l) {
    solved_background_[l] = read_background(l);
    residual[l] = residual_of(l, solved_background_[l]);
  }
  stale_ = false;
  round_one_ = false;

  // Per-link sums of unfrozen-flow weights: every indexed flow starts
  // unfrozen (local/empty-path flows appear in no list).  Integer sums are
  // exact, and with all-ones weights they equal the plain unfrozen counts,
  // so the weighted arithmetic below reduces bit-for-bit to the old
  // unweighted filler.
  std::vector<std::uint64_t>& weight_on = scratch_weight_on_;
  weight_on.assign(link_weight_.begin(), link_weight_.end());

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
  const auto position_of = [&](FlowId id) {
    const auto it = std::lower_bound(ids.begin(), ids.end(), id);
    ensure(it != ids.end() && *it == id,
        "FluidNetwork::reallocate: index entry for unknown flow");
    return static_cast<std::size_t>(it - ids.begin());
  };

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
      if (rate[i] >= flow_of[i]->cap.value() - kFreezeEps) {
        freeze(i);
        froze = true;
      }
    }
    if (rounds == 1 && unfrozen_total == 0 && delta > 0.0) {
      // Every linked flow froze at its cap in round one: the state the
      // start/stop fast path (b) can extend without solving.
      round_one_ = true;
      round_one_delta_ = delta;
      round_one_ties_ = 0;
      for (const std::size_t i : unfrozen) {
        if (flow_of[i]->cap.value() /
                static_cast<double>(flow_of[i]->weight) ==
            delta) {
          ++round_one_ties_;
        }
      }
    }
    for (std::size_t l = 0; l < link_count; ++l) {
      if (weight_on[l] == 0 || residual[l] > kFreezeEps) continue;
      for (const std::uint32_t slot : link_flows_[l]) {
        const std::size_t i = position_of(flows_.slot_id(slot));
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
    stamp(ids[i], *flow_of[i],
          severed ? Mbps{0.0} : std::max(Mbps{rate[i]}, kMinFlowRate));
  }

  if (obs::TraceRecorder* tr = obs::trace_sink()) {
    tr->instant(obs::Subsystem::kFluid, "fluid.realloc",
                {{"rounds", obs::num(rounds)},
                 {"flows", obs::num(static_cast<std::uint64_t>(flow_count))}});
    tr->counter(obs::Subsystem::kFluid, "fluid.active_flows",
                static_cast<double>(flow_count));
  }
}

void FluidNetwork::check_reference() const {
  const std::vector<std::pair<FlowId, Mbps>> reference =
      reallocate_reference();
  ensure(reference.size() == flows_.size(),
      "FluidNetwork: reference allocation lost a flow");
  std::size_t i = 0;
  flows_.for_each_ordered([&](FlowId id, const Flow& flow) {
    ensure(reference[i].first == id &&
               reference[i].second.value() == flow.rate.value(),
        "FluidNetwork: indexed allocation diverged from "
        "reallocate_reference()");
    ++i;
  });
}

std::vector<std::pair<FlowId, Mbps>> FluidNetwork::reallocate_reference()
    const {
  // The original from-scratch progressive filler, preserved as the oracle
  // the indexed allocator is checked against: per-link unfrozen weight
  // sums are recomputed by scanning every flow's links each round (with
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
    if (a.flow->links.empty()) {
      a.rate = a.flow->cap.value();
      a.frozen = true;
    }
  }

  const auto weight_on = [&](std::size_t l) {
    std::uint64_t sum = 0;
    for (const Active& a : active) {
      if (a.frozen) continue;
      for (const LinkId link : a.flow->links) {
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
      for (const LinkId link : a.flow->links) {
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
    for (const LinkId link : a.flow->links) {
      if (!link_up(link)) severed = true;
    }
    out.emplace_back(a.id, severed ? Mbps{0.0}
                                   : std::max(Mbps{a.rate}, kMinFlowRate));
  }
  return out;
}

}  // namespace vod::net
