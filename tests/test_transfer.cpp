#include "net/transfer.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

namespace vod::net {
namespace {

struct Fixture {
  Topology topo;
  NodeId a, b, c;
  LinkId ab, bc;
  NoTraffic no_traffic;

  Fixture() {
    a = topo.add_node("a");
    b = topo.add_node("b");
    c = topo.add_node("c");
    ab = topo.add_link(a, b, Mbps{8.0});
    bc = topo.add_link(b, c, Mbps{8.0});
  }
};

TEST(TransferManager, SingleTransferCompletesAtExactTime) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  std::optional<double> done_at;
  // 8 MB = 64 megabits over 8 Mbps -> 8 s.
  manager.start_transfer({fx.ab}, MegaBytes{8.0}, Mbps{100.0},
                         [&](SimTime t) { done_at = t.seconds(); });
  sim.run();
  ASSERT_TRUE(done_at.has_value());
  EXPECT_NEAR(*done_at, 8.0, 1e-9);
}

TEST(TransferManager, RateCapSlowsTransfer) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  std::optional<double> done_at;
  manager.start_transfer({fx.ab}, MegaBytes{8.0}, Mbps{4.0},
                         [&](SimTime t) { done_at = t.seconds(); });
  sim.run();
  EXPECT_NEAR(*done_at, 16.0, 1e-9);
}

TEST(TransferManager, LocalTransferUsesOwnCap) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  std::optional<double> done_at;
  manager.start_transfer({}, MegaBytes{80.0}, Mbps{80.0},
                         [&](SimTime t) { done_at = t.seconds(); });
  sim.run();
  EXPECT_NEAR(*done_at, 8.0, 1e-9);
}

TEST(TransferManager, TwoTransfersShareThenSpeedUp) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  // Both on ab (8 Mbps): 4 Mbps each. First moves 4 MB (32 Mb) -> done at
  // t=8.  Second (8 MB) has 4 MB left at t=8, then full 8 Mbps -> +4 s.
  std::optional<double> first_done, second_done;
  manager.start_transfer({fx.ab}, MegaBytes{4.0}, Mbps{100.0},
                         [&](SimTime t) { first_done = t.seconds(); });
  manager.start_transfer({fx.ab}, MegaBytes{8.0}, Mbps{100.0},
                         [&](SimTime t) { second_done = t.seconds(); });
  sim.run();
  ASSERT_TRUE(first_done && second_done);
  EXPECT_NEAR(*first_done, 8.0, 1e-9);
  EXPECT_NEAR(*second_done, 12.0, 1e-9);
}

TEST(TransferManager, StaggeredStartAccountsEarlierProgress) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  std::optional<double> done_at;
  manager.start_transfer({fx.ab}, MegaBytes{8.0}, Mbps{100.0},
                         [&](SimTime t) { done_at = t.seconds(); });
  // At t=4 the first transfer has 4 MB left; a second joins and halves the
  // rate: remaining 32 Mb at 4 Mbps -> done at t=12.
  sim.schedule_at(SimTime{4.0}, [&](SimTime) {
    manager.start_transfer({fx.ab}, MegaBytes{100.0}, Mbps{100.0},
                           [](SimTime) {});
  });
  sim.run_until(SimTime{50.0});
  ASSERT_TRUE(done_at.has_value());
  EXPECT_NEAR(*done_at, 12.0, 1e-9);
}

TEST(TransferManager, BackgroundTrafficChangeReschedules) {
  Fixture fx;
  TraceTraffic trace;
  trace.add_sample(fx.ab, SimTime{0.0}, Mbps{0.0});
  trace.add_sample(fx.ab, SimTime{4.0}, Mbps{4.0});
  FluidNetwork network{fx.topo, trace};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  // 8 Mbps for 4 s (4 MB moved), then 4 Mbps: remaining 4 MB takes 8 s.
  std::optional<double> done_at;
  manager.start_transfer({fx.ab}, MegaBytes{8.0}, Mbps{100.0},
                         [&](SimTime t) { done_at = t.seconds(); });
  sim.run();
  ASSERT_TRUE(done_at.has_value());
  EXPECT_NEAR(*done_at, 12.0, 1e-9);
}

TEST(TransferManager, CancelPreventsCompletion) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  bool completed = false;
  const FlowId id = manager.start_transfer(
      {fx.ab}, MegaBytes{8.0}, Mbps{100.0},
      [&](SimTime) { completed = true; });
  sim.schedule_at(SimTime{2.0}, [&](SimTime) { manager.cancel(id); });
  sim.run();
  EXPECT_FALSE(completed);
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_EQ(network.active_flow_count(), 0u);
}

TEST(TransferManager, CancelUnknownThrows) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};
  EXPECT_THROW(manager.cancel(FlowId{9}), std::out_of_range);
}

TEST(TransferManager, RemainingReportsLiveProgress) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  const FlowId id = manager.start_transfer({fx.ab}, MegaBytes{8.0},
                                           Mbps{100.0}, [](SimTime) {});
  EXPECT_NEAR(manager.remaining(id).value(), 8.0, 1e-9);
  sim.schedule_at(SimTime{4.0}, [&](SimTime) {
    EXPECT_NEAR(manager.remaining(id).value(), 4.0, 1e-6);
  });
  sim.run_until(SimTime{4.0});
  ASSERT_TRUE(manager.active(id));
}

TEST(TransferManager, CompletionCallbackMayStartNextTransfer) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  // Chain two 4 MB transfers (the cluster-fetch pattern).
  std::vector<double> completions;
  manager.start_transfer({fx.ab}, MegaBytes{4.0}, Mbps{100.0},
                         [&](SimTime t1) {
                           completions.push_back(t1.seconds());
                           manager.start_transfer(
                               {fx.ab, fx.bc}, MegaBytes{4.0}, Mbps{100.0},
                               [&](SimTime t2) {
                                 completions.push_back(t2.seconds());
                               });
                         });
  sim.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_NEAR(completions[0], 4.0, 1e-9);
  EXPECT_NEAR(completions[1], 8.0, 1e-9);
}

TEST(TransferManager, RejectsBadArguments) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};
  for (const double bad : {0.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(manager.start_transfer({fx.ab}, MegaBytes{bad}, Mbps{1.0},
                                        [](SimTime) {}),
                 std::invalid_argument) << bad;
  }
  EXPECT_THROW(manager.start_transfer({fx.ab}, MegaBytes{1.0}, Mbps{1.0},
                                      TransferManager::CompletionCallback{}),
               std::invalid_argument);
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_EQ(network.active_flow_count(), 0u);
}

TEST(TransferManager, RejectedFlowLeavesProgressExact) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  // A start the network rejects (zero cap) at t = 2 must not disturb the
  // running transfer: 8 MB alone on the 8 Mbps link still lands at t = 8.
  std::optional<double> done_at;
  manager.start_transfer({fx.ab}, MegaBytes{8.0}, Mbps{100.0},
                         [&](SimTime t) { done_at = t.seconds(); });
  sim.schedule_at(SimTime{2.0}, [&](SimTime) {
    EXPECT_THROW(manager.start_transfer({fx.ab}, MegaBytes{1.0}, Mbps{0.0},
                                        [](SimTime) {}),
                 std::invalid_argument);
  });
  sim.run();
  ASSERT_TRUE(done_at.has_value());
  EXPECT_NEAR(*done_at, 8.0, 1e-9);
  EXPECT_EQ(manager.active_count(), 0u);
}

TEST(TransferManager, ManySequentialTransfersStayExact) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  int completed = 0;
  std::function<void(SimTime)> chain = [&](SimTime) {
    if (++completed < 10) {
      manager.start_transfer({fx.ab}, MegaBytes{1.0}, Mbps{8.0}, chain);
    }
  };
  manager.start_transfer({fx.ab}, MegaBytes{1.0}, Mbps{8.0}, chain);
  sim.run();
  EXPECT_EQ(completed, 10);
  // Each 1 MB at 8 Mbps takes exactly 1 s.
  EXPECT_NEAR(sim.now().seconds(), 10.0, 1e-9);
}

TEST(TransferManager, SimultaneousCompletionsShareOneReallocation) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  // Four identical transfers on the same link share fairly and all finish
  // at the same instant; the completion sweep tears down all four flows in
  // one allocation epoch.
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    manager.start_transfer({fx.ab}, MegaBytes{2.0}, Mbps{100.0},
                           [&](SimTime) { ++completed; });
  }
  const std::size_t before = network.reallocation_count();
  sim.run();
  EXPECT_EQ(completed, 4);
  // The wake-up's clock move and the four-flow teardown share one epoch,
  // which closes on an empty network, so no progressive filling runs at
  // all — not one per stop_flow, nor one for the clock move.  (Exact count:
  // 0, as before the fast paths; the shared link binds, so each start
  // above solved in full.)
  EXPECT_EQ(network.reallocation_count() - before, 0u);
  EXPECT_EQ(network.active_flow_count(), 0u);
}

TEST(TransferManager, StartAtNewInstantCostsOneReallocation) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  // 8 MB alone on the 8 Mbps link a-b; at t = 2 a 1 MB transfer joins it
  // across a-b-c.  The clock move, the settle and the new flow are one
  // allocation epoch: one progressive filling, not one per mutation.
  std::vector<double> completions;
  const auto record = [&](SimTime t) { completions.push_back(t.seconds()); };
  manager.start_transfer({fx.ab}, MegaBytes{8.0}, Mbps{100.0}, record);
  std::optional<std::size_t> cost;
  sim.schedule_at(SimTime{2.0}, [&](SimTime) {
    const std::size_t before = network.reallocation_count();
    manager.start_transfer({fx.ab, fx.bc}, MegaBytes{1.0}, Mbps{100.0},
                           record);
    cost = network.reallocation_count() - before;
  });
  sim.run();
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(*cost, 1u);
  // Shares stay exact: 4 Mbps each from t = 2, so the 1 MB finishes at
  // t = 4; the 8 MB has 5 MB left then and finishes at t = 9.
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_NEAR(completions[0], 4.0, 1e-9);
  EXPECT_NEAR(completions[1], 9.0, 1e-9);
}

/// A fat link that no handful of capped flows can saturate: every solve
/// freezes each flow at its cap in the filler's first round.
struct WideFixture {
  Topology topo;
  NodeId a, b, c;
  LinkId ab, bc;
  NoTraffic no_traffic;

  WideFixture() {
    a = topo.add_node("a");
    b = topo.add_node("b");
    c = topo.add_node("c");
    ab = topo.add_link(a, b, Mbps{100.0});
    bc = topo.add_link(b, c, Mbps{100.0});
  }
};

TEST(TransferManager, UnchangedRateCompletesAtClosedFormTime) {
  WideFixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  network.set_check_against_reference(true);
  sim::Simulation sim;
  TransferManager manager{sim, network};

  // 10 MB at a 2 Mbps cap: 40 s, whatever starts and stops around it.
  std::optional<double> done_at;
  manager.start_transfer({fx.ab, fx.bc}, MegaBytes{10.0}, Mbps{2.0},
                         [&](SimTime t) { done_at = t.seconds(); });
  std::vector<FlowId> others;
  for (int k = 1; k <= 5; ++k) {
    sim.schedule_at(SimTime{3.0 * k}, [&](SimTime) {
      others.push_back(manager.start_transfer(
          {fx.ab}, MegaBytes{100.0}, Mbps{2.0}, [](SimTime) {}));
    });
  }
  sim.schedule_at(SimTime{20.5}, [&](SimTime) { manager.cancel(others[1]); });
  sim.run_until(SimTime{60.0});
  ASSERT_TRUE(done_at.has_value());
  // Settled once, at its start: 0 + 80 Mb / 2 Mbps, exactly.
  EXPECT_EQ(*done_at, 40.0);
}

TEST(TransferManager, SameInstantCompletionsRunInFlowIdOrder) {
  WideFixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  // All three finish at t = 8: two start at 0 and one at 4 with half the
  // bytes.  The callbacks must run by ascending flow id.
  std::vector<FlowId> order;
  std::vector<FlowId> ids;
  const auto record = [&](std::size_t k) {
    return [&, k](SimTime) { order.push_back(ids[k]); };
  };
  ids.push_back(manager.start_transfer({fx.ab}, MegaBytes{2.0}, Mbps{2.0},
                                       record(0)));
  ids.push_back(manager.start_transfer({}, MegaBytes{8.0}, Mbps{8.0},
                                       record(1)));
  sim.schedule_at(SimTime{4.0}, [&](SimTime) {
    ids.push_back(manager.start_transfer({fx.bc}, MegaBytes{1.0},
                                         Mbps{2.0}, record(2)));
  });
  sim.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, ids);
  EXPECT_EQ(sim.now().seconds(), 8.0);
}

TEST(TransferManager, CancelRemovesTransferFromCompletionIndex) {
  WideFixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  bool early_fired = false;
  std::optional<double> late_done;
  const FlowId early = manager.start_transfer(
      {fx.ab}, MegaBytes{2.0}, Mbps{2.0}, [&](SimTime) { early_fired = true; });
  manager.start_transfer({fx.ab}, MegaBytes{4.0}, Mbps{2.0},
                         [&](SimTime t) { late_done = t.seconds(); });
  sim.schedule_at(SimTime{2.0}, [&](SimTime) { manager.cancel(early); });
  sim.run_until(SimTime{2.0});
  // The wake-up now targets the survivor's finish (t = 16), not the
  // cancelled transfer's (t = 8).
  ASSERT_TRUE(sim.queue().next_time().has_value());
  EXPECT_EQ(sim.queue().next_time()->seconds(), 16.0);
  sim.run();
  EXPECT_FALSE(early_fired);
  ASSERT_TRUE(late_done.has_value());
  EXPECT_EQ(*late_done, 16.0);
  EXPECT_EQ(manager.active_count(), 0u);
}

TEST(TransferManager, UnsaturatedStartAndStopCostNoReallocation) {
  WideFixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  network.set_check_against_reference(true);
  sim::Simulation sim;
  TransferManager manager{sim, network};

  // The first linked flow solves once; after that every start or stop
  // keeps the first round's delta and is stamped without a solve.
  manager.start_transfer({fx.ab, fx.bc}, MegaBytes{50.0}, Mbps{2.0},
                         [](SimTime) {});
  const std::size_t before = network.reallocation_count();
  EXPECT_EQ(before, 1u);
  std::vector<FlowId> started;
  for (int k = 1; k <= 6; ++k) {
    sim.schedule_at(SimTime{1.0 * k}, [&](SimTime) {
      started.push_back(manager.start_transfer(
          {fx.ab}, MegaBytes{50.0}, Mbps{2.0}, [](SimTime) {}));
    });
  }
  sim.schedule_at(SimTime{7.5}, [&](SimTime) {
    manager.cancel(started[2]);
    manager.cancel(started[4]);
  });
  sim.run_until(SimTime{10.0});
  EXPECT_EQ(network.reallocation_count(), before);
  EXPECT_EQ(manager.active_count(), 5u);
  EXPECT_EQ(manager.current_rate(started[0]), Mbps{2.0});
}

}  // namespace
}  // namespace vod::net
