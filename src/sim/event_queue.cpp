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
  const std::uint64_t sequence = next_sequence_++;
  heap_.push_back(Entry{when, sequence, std::move(callback)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  pending_.insert(sequence);
  return EventHandle{sequence};
}

bool EventQueue::cancel(EventHandle handle) {
  // Only events still waiting may be cancelled; a handle whose event
  // already fired (or was cancelled before) is not pending and is
  // rejected, leaving the counters untouched.
  if (!handle.valid() || pending_.erase(handle.sequence_) == 0) return false;
  cancelled_.insert(handle.sequence_);
  if (cancelled_.size() * 2 > heap_.size()) compact();
  return true;
}

void EventQueue::compact() {
  std::erase_if(heap_, [&](const Entry& e) {
    return cancelled_.contains(e.sequence);
  });
  cancelled_.clear();
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::drop_cancelled_head() const {
  while (!heap_.empty()) {
    auto it = cancelled_.find(heap_.front().sequence);
    if (it == cancelled_.end()) return;
    cancelled_.erase(it);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
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
  pending_.erase(entry.sequence);
  now_ = entry.when;
  entry.callback(now_);
  return true;
}

bool EventQueue::empty() const { return pending_.empty(); }

std::size_t EventQueue::pending_count() const { return pending_.size(); }

}  // namespace vod::sim
