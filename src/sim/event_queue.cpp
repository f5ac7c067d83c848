#include "sim/event_queue.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/contract.h"
#include "obs/profile.h"

namespace vod::sim {

EventHandle EventQueue::schedule(SimTime when, Callback callback) {
  require(std::isfinite(when.seconds()),
      "EventQueue::schedule: time must be finite");
  require(!(when < now_), "EventQueue::schedule: time is in the past");
  require(callback, "EventQueue::schedule: empty callback");
  require(next_sequence_ < (std::uint64_t{1} << (64 - kSlotBits)),
      "EventQueue::schedule: sequence numbers exhausted");
  std::uint64_t slot;
  if (free_slots_.empty()) {
    slot = pending_keys_.size();
    require(slot <= kSlotMask,
        "EventQueue::schedule: too many pending events");
    pending_keys_.push_back(0);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const std::uint64_t sequence = next_sequence_++;
  const std::uint64_t key = (sequence << kSlotBits) | slot;
  pending_keys_[slot] = key;
  ++pending_count_;
  heap_.push_back(Entry{when, key, std::move(callback)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return EventHandle{key};
}

void EventQueue::release_slot(std::uint64_t key) {
  const auto slot = static_cast<std::uint32_t>(key & kSlotMask);
  pending_keys_[slot] = 0;
  free_slots_.push_back(slot);
  --pending_count_;
}

bool EventQueue::cancel(EventHandle handle) {
  // Only events still waiting may be cancelled; a handle whose event
  // already fired (or was cancelled before) no longer owns its slot and is
  // rejected, leaving the counters untouched.
  const std::uint64_t slot = handle.key_ & kSlotMask;
  if (!handle.valid() || slot >= pending_keys_.size() ||
      pending_keys_[slot] != handle.key_) {
    return false;
  }
  release_slot(handle.key_);
  ++cancelled_in_heap_;
  if (cancelled_in_heap_ * 4 > heap_.size()) compact();
  return true;
}

void EventQueue::compact() {
  std::erase_if(heap_, [&](const Entry& e) { return !live(e); });
  cancelled_in_heap_ = 0;
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::drop_cancelled_head() const {
  while (!heap_.empty() && !live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --cancelled_in_heap_;
  }
}

std::optional<SimTime> EventQueue::next_time() const {
  drop_cancelled_head();
  if (heap_.empty()) return std::nullopt;
  return heap_.front().when;
}

bool EventQueue::run_next() {
  VOD_PROFILE_SCOPE("sim.run_next");
  drop_cancelled_head();
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry entry = std::move(heap_.back());
  heap_.pop_back();
  release_slot(entry.key);
  now_ = entry.when;
  entry.callback(now_);
  return true;
}

bool EventQueue::empty() const { return pending_count_ == 0; }

std::size_t EventQueue::pending_count() const { return pending_count_; }

}  // namespace vod::sim
