// Discrete-event queue.
//
// A min-heap of (time, sequence, callback).  The sequence number makes
// same-time events fire in scheduling order, which keeps the whole simulator
// deterministic.  Events can be cancelled through the handle returned at
// scheduling time.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/sim_time.h"

namespace vod::sim {

/// Opaque handle identifying a scheduled event (for cancellation).
class EventHandle {
 public:
  constexpr EventHandle() = default;

  [[nodiscard]] constexpr bool valid() const { return sequence_ != 0; }

  friend constexpr bool operator==(EventHandle, EventHandle) = default;

 private:
  friend class EventQueue;
  constexpr explicit EventHandle(std::uint64_t sequence)
      : sequence_(sequence) {}
  std::uint64_t sequence_ = 0;
};

/// Priority queue of timed callbacks.
class EventQueue {
 public:
  using Callback = std::function<void(SimTime)>;

  /// Schedules `callback` to fire at `when`.  A non-finite time, or one in
  /// the past (before the last popped event), throws std::invalid_argument.
  EventHandle schedule(SimTime when, Callback callback);

  /// Cancels a pending event; returns false if it already fired, was
  /// already cancelled, or the handle is invalid.
  bool cancel(EventHandle handle);

  /// Time of the earliest pending event, if any.
  [[nodiscard]] std::optional<SimTime> next_time() const;

  /// Pops and runs the earliest event; returns false when empty.
  /// Cancelled events are skipped silently.
  bool run_next();

  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::size_t pending_count() const;

  /// Raw heap size, cancelled entries included (observability for the
  /// compaction policy — see cancel()).
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }

  /// The time of the most recently fired event (simulation "now").
  [[nodiscard]] SimTime now() const { return now_; }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t sequence;
    Callback callback;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };

  void drop_cancelled_head() const;
  void compact();

  // Cancellation is lazy: a cancelled event usually stays in the heap until
  // it reaches the top, where drop_cancelled_head() discards it.  When
  // cancelled entries come to outnumber live ones (long fault storms cancel
  // whole batches of watchdogs), cancel() compacts: it erases every
  // cancelled entry and re-heapifies, bounding memory at ~2x the live
  // events.  Ordering is untouched — (when, sequence) is a total order, so
  // the heap's firing order is independent of its internal layout.  Purging
  // is logically const (it never changes which events are pending), so the
  // heap and the cancelled set are mutable and next_time() stays honest.
  // The heap is a std::vector managed with the <algorithm> heap primitives
  // rather than std::priority_queue so compaction can walk and rebuild it.
  mutable std::vector<Entry> heap_;
  mutable std::unordered_set<std::uint64_t> cancelled_;
  /// Sequences scheduled, not yet fired and not cancelled.  Membership here
  /// is what distinguishes a cancellable event from one that already fired
  /// (both have sequence < next_sequence_).
  std::unordered_set<std::uint64_t> pending_;
  std::uint64_t next_sequence_ = 1;
  SimTime now_{0.0};
};

}  // namespace vod::sim
