// Seeded randomized differential test: the incidence-indexed allocator must
// be *bit-identical* to reallocate_reference() — the preserved naive filler —
// on every observable (flow rates, used_bandwidth, utilization) after every
// mutation of a random start/stop/cap-edit/link-flap/time-advance script,
// including the severed-path and kMinFlowRate floor edge cases.  Flows are
// started with random class weights (1..8), so the weighted fill (integer
// weight sums, delta x weight increments) is exercised against the oracle's
// per-round recomputation on every seed.  A second script drives the same
// network through a TransferManager, whose operations each batch a settle,
// a clock move and a flow change (or completion sweep) into one allocation
// epoch.  A third script alternates quiet and saturating background phases
// with mixed caps and weights, so the fast paths (pathless stamp, unchanged
// background, unchanged first round) and the full solver both run under
// the built-in reference check.  Exact double equality throughout: the
// determinism gates depend on it.
#include "net/fluid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/transfer.h"
#include "sim/simulation.h"

namespace vod::net {
namespace {

struct Fixture {
  Topology topo;
  std::vector<LinkId> links;
  TraceTraffic traffic;

  explicit Fixture(Rng& rng) {
    // A 6-node line — every flow is a contiguous sub-path, so multi-link
    // contention and shared bottlenecks arise constantly.
    std::vector<NodeId> nodes;
    for (int i = 0; i < 6; ++i) {
      nodes.push_back(topo.add_node("n" + std::to_string(i)));
    }
    for (int i = 0; i < 5; ++i) {
      const Mbps cap{rng.uniform(5.0, 25.0)};
      links.push_back(topo.add_link(nodes[i], nodes[i + 1], cap));
      // Stepwise background trace; the last step saturates the link
      // outright on some links so the kMinFlowRate floor gets exercised.
      double t = 0.0;
      for (int s = 0; s < 4; ++s) {
        const bool saturate = s == 3 && i % 2 == 0;
        const Mbps load{saturate ? cap.value() + 1.0
                                 : rng.uniform(0.0, cap.value())};
        traffic.add_sample(links.back(), SimTime{t}, load);
        t += rng.uniform(10.0, 50.0);
      }
    }
  }
};

/// used_bandwidth the way the pre-index code computed it: background first,
/// then each flow whose path crosses the link exactly once, ascending by
/// flow id, capped at capacity.  Same reduction order -> same bits.
Mbps naive_used(const FluidNetwork& network, const Topology& topo,
                LinkId link,
                const std::vector<std::pair<FlowId, Mbps>>& rates) {
  Mbps used = network.background(link);
  for (const auto& [id, rate] : rates) {
    const std::vector<LinkId>& links = network.flow_links(id);
    if (std::find(links.begin(), links.end(), link) != links.end()) {
      used += rate;
    }
  }
  return std::min(used, topo.link(link).capacity);
}

void expect_matches_reference(const FluidNetwork& network,
                              const Topology& topo,
                              const std::vector<LinkId>& links,
                              const std::vector<FlowId>& live) {
  const std::vector<std::pair<FlowId, Mbps>> reference =
      network.reallocate_reference();
  ASSERT_EQ(reference.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(reference[i].first, live[i]);
    // Bitwise equality, not EXPECT_NEAR: the indexed filler must reproduce
    // the naive arithmetic exactly.
    EXPECT_EQ(network.flow_rate(live[i]).value(),
              reference[i].second.value())
        << "flow " << live[i].value();
  }
  for (const LinkId link : links) {
    EXPECT_EQ(network.used_bandwidth(link).value(),
              naive_used(network, topo, link, reference).value())
        << "link " << link.value();
    EXPECT_EQ(network.utilization(link),
              std::clamp(naive_used(network, topo, link, reference) /
                             topo.link(link).capacity,
                         0.0, 1.0))
        << "link " << link.value();
  }
}

/// A random contiguous sub-path of the fixture's line.
std::vector<LinkId> random_path(Rng& rng, const Fixture& fx) {
  const auto first = static_cast<std::size_t>(rng.uniform_int(0, 4));
  const auto last = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(first), 4));
  return std::vector<LinkId>(fx.links.begin() + first,
                             fx.links.begin() + last + 1);
}

class FluidDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FluidDifferential, IndexedAllocatorMatchesReferenceExactly) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 7919 + 17};
  Fixture fx{rng};
  FluidNetwork network{fx.topo, fx.traffic};
  // A third of the seeds also run the built-in self-check, so the
  // check_reference_ debug path itself stays honest.
  if (GetParam() % 3 == 0) network.set_check_against_reference(true);

  std::vector<FlowId> live;  // ascending by id (ids are monotonic)
  double now = 0.0;
  int severed_seen = 0;
  int floor_seen = 0;

  const auto start_one = [&] {
    // Mixed weights: weight 1 (the classless default) stays common so the
    // unweighted reduction keeps coverage alongside the weighted one.
    const auto weight = static_cast<std::uint32_t>(
        rng.bernoulli(0.4) ? 1 : rng.uniform_int(2, 8));
    live.push_back(network.start_flow(random_path(rng, fx),
                                      Mbps{rng.uniform(0.5, 30.0)}, weight));
  };
  const auto mutate_once = [&] {
    const std::int64_t op = rng.uniform_int(0, 5);
    switch (op) {
      case 0:
        start_one();
        break;
      case 1:
        if (!live.empty()) {
          const auto victim = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
          network.stop_flow(live[victim]);
          live.erase(live.begin() + victim);
        }
        break;
      case 2:
        if (!live.empty()) {
          const auto victim = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
          network.set_flow_cap(live[victim], Mbps{rng.uniform(0.5, 30.0)});
        }
        break;
      case 3: {
        const auto l = static_cast<std::size_t>(rng.uniform_int(0, 4));
        network.set_link_up(fx.links[l], !network.link_up(fx.links[l]));
        break;
      }
      case 4:
        now += rng.uniform(1.0, 25.0);
        network.set_time(SimTime{now});
        break;
      default: {
        // Batched burst: several mutations in one allocation epoch.
        const FluidNetwork::BatchGuard epoch = network.defer_reallocate();
        const std::int64_t burst = rng.uniform_int(2, 5);
        for (std::int64_t i = 0; i < burst; ++i) {
          if (live.empty() || rng.bernoulli(0.6)) {
            start_one();
          } else {
            network.stop_flow(live.back());
            live.pop_back();
          }
        }
        break;
      }
    }
  };

  for (int step = 0; step < 60; ++step) {
    mutate_once();
    expect_matches_reference(network, fx.topo, fx.links, live);
    for (const FlowId flow : live) {
      const double rate = network.flow_rate(flow).value();
      if (rate == 0.0) ++severed_seen;
      if (rate == kMinFlowRate.value()) ++floor_seen;
    }
  }

  // The script must actually have visited the edge cases the issue names;
  // the fixture (flappable links, saturating traces) makes both common.
  EXPECT_GT(severed_seen + floor_seen, 0)
      << "script never hit a severed or floor-rate flow; fixture too tame";
}

TEST_P(FluidDifferential, TransferDrivenStepsMatchReference) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 104729 + 3};
  Fixture fx{rng};
  FluidNetwork network{fx.topo, fx.traffic};
  // Every solve the manager's epochs trigger — start, cancel, wake-up — is
  // also re-solved by the reference inside reallocate().
  network.set_check_against_reference(true);
  sim::Simulation sim;
  TransferManager manager{sim, network};

  std::vector<FlowId> live;  // ascending by id (ids are monotonic)
  int completed = 0;
  const auto retire = [&](FlowId id) {
    live.erase(std::find(live.begin(), live.end(), id));
  };
  const auto start_one = [&] {
    // The completion callback needs the id start_transfer returns; it can
    // only fire from a later event, after the box is filled.
    auto id = std::make_shared<FlowId>();
    *id = manager.start_transfer(
        random_path(rng, fx), MegaBytes{rng.uniform(0.5, 20.0)},
        Mbps{rng.uniform(0.5, 30.0)},
        [&, id](SimTime) {
          retire(*id);
          ++completed;
        },
        static_cast<std::uint32_t>(rng.uniform_int(1, 4)));
    live.push_back(*id);
  };

  for (int step = 0; step < 40; ++step) {
    // Wake-ups in between settle, complete and cross background steps.
    sim.run_until(sim.now() + Duration{rng.uniform(0.5, 15.0)});
    if (!live.empty() && rng.bernoulli(0.3)) {
      const auto victim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const FlowId id = live[victim];
      manager.cancel(id);
      retire(id);
    } else {
      start_one();
    }
    ASSERT_EQ(manager.active_count(), live.size());
    expect_matches_reference(network, fx.topo, fx.links, live);
  }
  // Drain: every transfer not cancelled completes (no link ever goes down
  // here, so each keeps at least the trickle rate).
  sim.run();
  EXPECT_TRUE(live.empty());
  EXPECT_EQ(network.active_flow_count(), 0u);
  EXPECT_GT(completed, 0);
}

/// A wide line whose background alternates between quiet phases (no link
/// binds: the fast paths apply) and busy ones (links saturate: full solves).
struct PhasedFixture {
  Topology topo;
  std::vector<LinkId> links;
  TraceTraffic traffic;

  explicit PhasedFixture(Rng& rng) {
    std::vector<NodeId> nodes;
    for (int i = 0; i < 5; ++i) {
      nodes.push_back(topo.add_node("p" + std::to_string(i)));
    }
    for (int i = 0; i < 4; ++i) {
      const Mbps cap{40.0};
      links.push_back(topo.add_link(nodes[i], nodes[i + 1], cap));
      double t = 0.0;
      for (int phase = 0; phase < 8; ++phase) {
        const bool busy = phase % 2 == 1;
        traffic.add_sample(links.back(), SimTime{t},
                           Mbps{busy ? rng.uniform(30.0, 45.0)
                                     : rng.uniform(0.0, 5.0)});
        t += rng.uniform(20.0, 40.0);
      }
    }
  }
};

TEST_P(FluidDifferential, FastPathsMatchReferenceAcrossPhases) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 6151 + 29};
  PhasedFixture fx{rng};
  FluidNetwork network{fx.topo, fx.traffic};
  // Every commit — full solve or fast path — is re-solved by the oracle.
  network.set_check_against_reference(true);

  std::vector<FlowId> live;
  double now = 0.0;
  std::size_t commits = 0;
  const auto path = [&] {
    if (rng.bernoulli(0.15)) return std::vector<LinkId>{};  // pathless
    const auto first = static_cast<std::size_t>(rng.uniform_int(0, 3));
    const auto last = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(first), 3));
    return std::vector<LinkId>(fx.links.begin() + first,
                               fx.links.begin() + last + 1);
  };
  const auto start_one = [&] {
    // Mostly cap / weight == 2, so new flows tie the first round's delta;
    // the others (cap 3.5, weight 1) cannot freeze in round one.
    const bool heavy = rng.bernoulli(0.3);
    const bool odd = rng.bernoulli(0.15);
    const Mbps cap{odd ? 3.5 : heavy ? 4.0 : 2.0};
    live.push_back(network.start_flow(path(), cap, heavy && !odd ? 2 : 1));
  };
  const auto stop_one = [&] {
    const auto victim = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
    network.stop_flow(live[victim]);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
  };

  for (int k = 0; k < 6; ++k) start_one();
  const std::size_t solves_before = network.reallocation_count();
  for (int step = 0; step < 120; ++step) {
    const std::int64_t op = rng.uniform_int(0, 9);
    if (op <= 3) {
      start_one();
    } else if (op <= 5) {
      if (!live.empty()) stop_one();
    } else if (op == 6) {
      now += rng.uniform(1.0, 12.0);
      network.set_time(SimTime{now});
    } else {
      // One epoch: a clock move plus starts and stops, sometimes with a
      // link flap or a cap edit mixed in.
      const FluidNetwork::BatchGuard epoch = network.defer_reallocate();
      now += rng.uniform(0.0, 3.0);
      network.set_time(SimTime{now});
      const std::int64_t burst = rng.uniform_int(1, 4);
      for (std::int64_t i = 0; i < burst; ++i) {
        if (live.empty() || rng.bernoulli(0.6)) {
          start_one();
        } else {
          stop_one();
        }
      }
      if (op == 8 && !live.empty()) {
        network.set_flow_cap(live.front(), Mbps{rng.bernoulli(0.5) ? 2.0
                                                                  : 3.0});
      }
      if (op == 9) {
        const auto l = static_cast<std::size_t>(rng.uniform_int(0, 3));
        network.set_link_up(fx.links[l], !network.link_up(fx.links[l]));
      }
    }
    ++commits;
    expect_matches_reference(network, fx.topo, fx.links, live);
  }
  // Both sides must have run: some commits solved in full, and some were
  // answered by a fast path without a progressive filling.
  const std::size_t solves = network.reallocation_count() - solves_before;
  EXPECT_GT(solves, 0u);
  EXPECT_LT(solves, commits);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidDifferential, ::testing::Range(0, 24));

}  // namespace
}  // namespace vod::net
