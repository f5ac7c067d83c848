#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

namespace vod::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(SimTime{3.0}, [&](SimTime) { fired.push_back(3); });
  queue.schedule(SimTime{1.0}, [&](SimTime) { fired.push_back(1); });
  queue.schedule(SimTime{2.0}, [&](SimTime) { fired.push_back(2); });
  while (queue.run_next()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeFiresInScheduleOrder) {
  EventQueue queue;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    queue.schedule(SimTime{1.0}, [&, i](SimTime) { fired.push_back(i); });
  }
  while (queue.run_next()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

// Regression (determinism audit): cancelling some of a same-time batch must
// not disturb the schedule order of the survivors — the sequence tiebreak
// is assigned at schedule time and cancellation only removes entries.
TEST(EventQueue, SameTimeOrderSurvivesInterleavedCancels) {
  EventQueue queue;
  std::vector<int> fired;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(
        queue.schedule(SimTime{1.0}, [&, i](SimTime) { fired.push_back(i); }));
  }
  EXPECT_TRUE(queue.cancel(handles[1]));
  EXPECT_TRUE(queue.cancel(handles[4]));
  while (queue.run_next()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 2, 3, 5}));
}

// An event scheduled *during* a same-time batch (for the same instant) fires
// after the whole batch: its sequence number is necessarily larger.
TEST(EventQueue, SameTimeEventScheduledMidBatchFiresLast) {
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(SimTime{1.0}, [&](SimTime) {
    fired.push_back(0);
    queue.schedule(SimTime{1.0}, [&](SimTime) { fired.push_back(9); });
  });
  queue.schedule(SimTime{1.0}, [&](SimTime) { fired.push_back(1); });
  while (queue.run_next()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 9}));
}

TEST(EventQueue, CallbackReceivesEventTime) {
  EventQueue queue;
  SimTime seen{0.0};
  queue.schedule(SimTime{7.5}, [&](SimTime t) { seen = t; });
  queue.run_next();
  EXPECT_EQ(seen, SimTime{7.5});
}

TEST(EventQueue, NowAdvancesWithEvents) {
  EventQueue queue;
  queue.schedule(SimTime{2.0}, [](SimTime) {});
  EXPECT_EQ(queue.now(), SimTime{0.0});
  queue.run_next();
  EXPECT_EQ(queue.now(), SimTime{2.0});
}

TEST(EventQueue, RejectsSchedulingInThePast) {
  EventQueue queue;
  queue.schedule(SimTime{5.0}, [](SimTime) {});
  queue.run_next();
  EXPECT_THROW(queue.schedule(SimTime{4.0}, [](SimTime) {}),
               std::invalid_argument);
  // Non-finite times are rejected too: NaN would break the heap's strict
  // weak ordering, and +inf would drag now() to infinity.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(queue.schedule(SimTime{bad}, [](SimTime) {}),
                 std::invalid_argument);
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.now(), SimTime{5.0});
}

TEST(EventQueue, SchedulingAtNowIsAllowed) {
  EventQueue queue;
  queue.schedule(SimTime{5.0}, [](SimTime) {});
  queue.run_next();
  EXPECT_NO_THROW(queue.schedule(SimTime{5.0}, [](SimTime) {}));
}

TEST(EventQueue, RejectsEmptyCallback) {
  EventQueue queue;
  EXPECT_THROW(queue.schedule(SimTime{1.0}, EventQueue::Callback{}),
               std::invalid_argument);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue queue;
  bool fired = false;
  const EventHandle handle =
      queue.schedule(SimTime{1.0}, [&](SimTime) { fired = true; });
  EXPECT_TRUE(queue.cancel(handle));
  while (queue.run_next()) {
  }
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue queue;
  const EventHandle handle = queue.schedule(SimTime{1.0}, [](SimTime) {});
  EXPECT_TRUE(queue.cancel(handle));
  EXPECT_FALSE(queue.cancel(handle));
}

TEST(EventQueue, CancelAfterFiringFails) {
  EventQueue queue;
  const EventHandle handle = queue.schedule(SimTime{1.0}, [](SimTime) {});
  queue.run_next();
  EXPECT_FALSE(queue.cancel(handle));
}

// Regression: the seed accepted cancels of already-fired handles whenever
// any other event was live, decrementing the live count and leaking the
// sequence into the cancelled set forever.
TEST(EventQueue, CancelOfFiredHandleWithOthersPendingIsRejected) {
  EventQueue queue;
  bool survivor_fired = false;
  const EventHandle first = queue.schedule(SimTime{1.0}, [](SimTime) {});
  queue.schedule(SimTime{2.0}, [&](SimTime) { survivor_fired = true; });
  queue.run_next();  // fires `first`
  EXPECT_FALSE(queue.cancel(first));
  EXPECT_EQ(queue.pending_count(), 1u);
  EXPECT_FALSE(queue.empty());
  EXPECT_TRUE(queue.run_next());
  EXPECT_TRUE(survivor_fired);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, RepeatedStaleCancelsNeverCorruptCounts) {
  EventQueue queue;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(queue.schedule(SimTime{1.0 + i}, [](SimTime) {}));
  }
  queue.run_next();
  queue.run_next();
  // Both fired handles must be rejected, twice, without touching the count.
  for (int round = 0; round < 2; ++round) {
    EXPECT_FALSE(queue.cancel(handles[0]));
    EXPECT_FALSE(queue.cancel(handles[1]));
  }
  EXPECT_EQ(queue.pending_count(), 2u);
  EXPECT_TRUE(queue.cancel(handles[2]));
  EXPECT_EQ(queue.pending_count(), 1u);
  while (queue.run_next()) {
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.pending_count(), 0u);
}

TEST(EventQueue, StaleHandleCannotCancelTheSlotsNextEvent) {
  // A cancelled or fired event frees its pending-table slot at once; the
  // next event reuses it, and the old handle must not reach that event.
  EventQueue queue;
  int fired = 0;
  const EventHandle cancelled =
      queue.schedule(SimTime{1.0}, [&](SimTime) { fired += 1; });
  EXPECT_TRUE(queue.cancel(cancelled));
  const EventHandle fires =
      queue.schedule(SimTime{2.0}, [&](SimTime) { fired += 10; });
  EXPECT_FALSE(queue.cancel(cancelled));
  ASSERT_TRUE(queue.run_next());
  const EventHandle later =
      queue.schedule(SimTime{3.0}, [&](SimTime) { fired += 100; });
  EXPECT_FALSE(queue.cancel(fires));
  EXPECT_EQ(queue.pending_count(), 1u);
  EXPECT_TRUE(queue.run_next());
  EXPECT_FALSE(queue.run_next());
  EXPECT_EQ(fired, 110);
  EXPECT_FALSE(queue.cancel(later));
}

TEST(EventQueue, NextTimeOnConstQueueSkipsCancelled) {
  EventQueue queue;
  const EventHandle a = queue.schedule(SimTime{1.0}, [](SimTime) {});
  queue.schedule(SimTime{2.0}, [](SimTime) {});
  queue.cancel(a);
  const EventQueue& view = queue;
  ASSERT_TRUE(view.next_time().has_value());
  EXPECT_EQ(*view.next_time(), SimTime{2.0});
  EXPECT_EQ(view.pending_count(), 1u);
}

TEST(EventQueue, CancelInvalidHandleFails) {
  EventQueue queue;
  EXPECT_FALSE(queue.cancel(EventHandle{}));
}

TEST(EventQueue, PendingCountTracksLiveEvents) {
  EventQueue queue;
  EXPECT_EQ(queue.pending_count(), 0u);
  const EventHandle a = queue.schedule(SimTime{1.0}, [](SimTime) {});
  queue.schedule(SimTime{2.0}, [](SimTime) {});
  EXPECT_EQ(queue.pending_count(), 2u);
  queue.cancel(a);
  EXPECT_EQ(queue.pending_count(), 1u);
  queue.run_next();
  EXPECT_EQ(queue.pending_count(), 0u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue queue;
  const EventHandle a = queue.schedule(SimTime{1.0}, [](SimTime) {});
  queue.schedule(SimTime{2.0}, [](SimTime) {});
  queue.cancel(a);
  ASSERT_TRUE(queue.next_time().has_value());
  EXPECT_EQ(*queue.next_time(), SimTime{2.0});
}

TEST(EventQueue, NextTimeEmptyWhenDrained) {
  EventQueue queue;
  EXPECT_FALSE(queue.next_time().has_value());
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue queue;
  std::vector<double> fired;
  queue.schedule(SimTime{1.0}, [&](SimTime t) {
    fired.push_back(t.seconds());
    queue.schedule(SimTime{2.0},
                   [&](SimTime t2) { fired.push_back(t2.seconds()); });
  });
  while (queue.run_next()) {
  }
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
}

TEST(EventQueue, RunNextReturnsFalseWhenEmpty) {
  EventQueue queue;
  EXPECT_FALSE(queue.run_next());
}

TEST(EventQueue, HeavyCancellationCompactsHeap) {
  // Fault storms cancel whole batches of watchdogs; once cancelled entries
  // outnumber live ones the heap is compacted so memory stays bounded at
  // ~2x the live events instead of growing with cancellation history.
  EventQueue queue;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(
        queue.schedule(SimTime{static_cast<double>(i + 1)}, [](SimTime) {}));
  }
  for (int i = 0; i < 999; ++i) queue.cancel(handles[i]);
  EXPECT_EQ(queue.pending_count(), 1u);
  EXPECT_LE(queue.heap_size(), 2u);
}

TEST(EventQueue, CompactionPreservesSameTimeScheduleOrder) {
  // Regression: compaction rebuilds the heap; same-time events must still
  // fire in their original scheduling order afterwards.
  EventQueue queue;
  std::vector<int> fired;
  // Ten same-time survivors interleaved with enough doomed events that
  // cancelling them triggers (several) compactions.
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 10; ++i) {
    queue.schedule(SimTime{5.0}, [&fired, i](SimTime) { fired.push_back(i); });
    for (int j = 0; j < 4; ++j) {
      doomed.push_back(queue.schedule(SimTime{3.0}, [](SimTime) {}));
    }
  }
  for (const EventHandle handle : doomed) queue.cancel(handle);
  EXPECT_LE(queue.heap_size(), 20u);  // compaction actually happened
  while (queue.run_next()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

}  // namespace
}  // namespace vod::sim
