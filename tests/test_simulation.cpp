#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

namespace vod::sim {
namespace {

TEST(Simulation, RunExecutesEverything) {
  Simulation sim;
  int count = 0;
  sim.schedule_in(Duration{1.0}, [&](SimTime) { ++count; });
  sim.schedule_in(Duration{2.0}, [&](SimTime) { ++count; });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(count, 2);
}

TEST(Simulation, RunRespectsMaxEvents) {
  Simulation sim;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_in(Duration{static_cast<double>(i + 1)}, [](SimTime) {});
  }
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(sim.queue().pending_count(), 7u);
}

TEST(Simulation, RunUntilStopsAtHorizon) {
  Simulation sim;
  std::vector<double> fired;
  sim.schedule_at(SimTime{1.0}, [&](SimTime t) { fired.push_back(t.seconds()); });
  sim.schedule_at(SimTime{5.0}, [&](SimTime t) { fired.push_back(t.seconds()); });
  sim.run_until(SimTime{3.0});
  EXPECT_EQ(fired, std::vector<double>{1.0});
  EXPECT_EQ(sim.now(), SimTime{3.0});
  sim.run();
  EXPECT_EQ(fired, (std::vector<double>{1.0, 5.0}));
}

TEST(Simulation, RunUntilIncludesEventsAtHorizon) {
  Simulation sim;
  bool fired = false;
  sim.schedule_at(SimTime{3.0}, [&](SimTime) { fired = true; });
  sim.run_until(SimTime{3.0});
  EXPECT_TRUE(fired);
}

TEST(Simulation, RunUntilAdvancesClockOnEmptyQueue) {
  Simulation sim;
  sim.run_until(SimTime{42.0});
  EXPECT_EQ(sim.now(), SimTime{42.0});
}

TEST(Simulation, ScheduleInIsRelativeToNow) {
  Simulation sim;
  sim.run_until(SimTime{10.0});
  SimTime fired_at{0.0};
  sim.schedule_in(Duration{5.0}, [&](SimTime t) { fired_at = t; });
  sim.run();
  EXPECT_EQ(fired_at, SimTime{15.0});
}

TEST(PeriodicTask, FiresAtEachPeriod) {
  Simulation sim;
  std::vector<double> fired;
  PeriodicTask task{sim, Duration{10.0},
                    [&](SimTime t) { fired.push_back(t.seconds()); }};
  task.start();
  sim.run_until(SimTime{35.0});
  task.stop();
  EXPECT_EQ(fired, (std::vector<double>{10.0, 20.0, 30.0}));
}

TEST(PeriodicTask, StopHaltsFiring) {
  Simulation sim;
  int count = 0;
  PeriodicTask task{sim, Duration{1.0}, [&](SimTime) { ++count; }};
  task.start();
  sim.run_until(SimTime{2.5});
  task.stop();
  sim.run_until(SimTime{10.0});
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTask, RestartResumesFromCurrentTime) {
  Simulation sim;
  std::vector<double> fired;
  PeriodicTask task{sim, Duration{5.0},
                    [&](SimTime t) { fired.push_back(t.seconds()); }};
  task.start();
  sim.run_until(SimTime{6.0});
  task.stop();
  sim.run_until(SimTime{20.0});
  task.start();
  sim.run_until(SimTime{26.0});
  task.stop();
  EXPECT_EQ(fired, (std::vector<double>{5.0, 25.0}));
}

TEST(PeriodicTask, BodyMayStopTheTask) {
  Simulation sim;
  int count = 0;
  PeriodicTask task{sim, Duration{1.0}, [&](SimTime) {
                      if (++count == 2) task.stop();
                    }};
  task.start();
  sim.run_until(SimTime{10.0});
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTask, DoubleStartIsIdempotent) {
  Simulation sim;
  int count = 0;
  PeriodicTask task{sim, Duration{1.0}, [&](SimTime) { ++count; }};
  task.start();
  task.start();
  sim.run_until(SimTime{1.0});
  EXPECT_EQ(count, 1);
}

TEST(PeriodicTask, RejectsBadArguments) {
  Simulation sim;
  EXPECT_THROW(PeriodicTask(sim, Duration{0.0}, [](SimTime) {}),
               std::invalid_argument);
  EXPECT_THROW(PeriodicTask(sim, Duration{-1.0}, [](SimTime) {}),
               std::invalid_argument);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(PeriodicTask(sim, Duration{bad}, [](SimTime) {}),
                 std::invalid_argument);
  }
  EXPECT_THROW(PeriodicTask(sim, Duration{1.0}, std::function<void(SimTime)>{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace vod::sim
