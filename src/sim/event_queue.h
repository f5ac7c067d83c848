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
#include <vector>

#include "common/sim_time.h"

namespace vod::sim {

/// Opaque handle identifying a scheduled event (for cancellation).
class EventHandle {
 public:
  constexpr EventHandle() = default;

  [[nodiscard]] constexpr bool valid() const { return key_ != 0; }

  friend constexpr bool operator==(EventHandle, EventHandle) = default;

 private:
  friend class EventQueue;
  constexpr explicit EventHandle(std::uint64_t key) : key_(key) {}
  std::uint64_t key_ = 0;  // the event's key (see EventQueue)
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
  /// An event's key packs its scheduling sequence number (high bits) with
  /// the slot it occupies in the pending table (low kSlotBits).  Sequences
  /// are unique and increasing, so ordering by key is ordering by sequence.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;

  struct Entry {
    SimTime when;
    std::uint64_t key;
    Callback callback;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.key > b.key;
    }
  };

  /// True while the entry's event is still pending (neither fired nor
  /// cancelled): its slot still holds its key.
  [[nodiscard]] bool live(const Entry& entry) const {
    return pending_keys_[entry.key & kSlotMask] == entry.key;
  }
  void release_slot(std::uint64_t key);
  void drop_cancelled_head() const;
  void compact();

  // Cancellation is lazy: cancel() frees the event's slot at once, and the
  // heap entry — no longer live, since its slot no longer holds its key —
  // stays until it reaches the top, where drop_cancelled_head() discards
  // it.  Once cancelled entries pass a quarter of the heap (long fault
  // storms cancel whole batches of watchdogs), cancel() compacts: it erases
  // them and re-heapifies, bounding the heap at 4/3 of the live events.
  // Ordering is untouched — (when, key) is a total order, so the heap's
  // firing order is independent of its internal layout.  Purging is
  // logically const (it never changes which events are pending), so the
  // heap and its cancelled count are mutable and next_time() stays honest.
  // The heap is a std::vector managed with the <algorithm> heap primitives
  // rather than std::priority_queue so compaction can walk and rebuild it.
  mutable std::vector<Entry> heap_;
  mutable std::size_t cancelled_in_heap_ = 0;
  /// Slot -> key of the pending event occupying it (0 = free).  This is
  /// what distinguishes a cancellable event from one that already fired or
  /// was cancelled, with no per-event node and no hashing.
  std::vector<std::uint64_t> pending_keys_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t pending_count_ = 0;
  std::uint64_t next_sequence_ = 1;
  SimTime now_{0.0};
};

}  // namespace vod::sim
