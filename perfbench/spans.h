// In-memory span recorder and the timed traffic decorator of the traced run.
//
// Spans come from the benchmark's own calls into the program: one per
// front-door request, one per Simulation::run_until slice and one per
// background-traffic query.  Each span has a name, start, end, the span
// open around it (its cause) and the request/session it belongs to.  They
// stay in memory, capped, and are written once when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "net/traffic.h"

namespace vodbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

enum class SpanKind : std::uint8_t { kRunUntil, kRequest, kTrafficQuery };

inline const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRunUntil:
      return "sim.run_until";
    case SpanKind::kRequest:
      return "service.request";
    case SpanKind::kTrafficQuery:
      return "traffic.query";
  }
  return "?";
}

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  static constexpr std::uint64_t kNoId = UINT64_MAX;

  explicit SpanRecorder(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }
  // TimedTraffic holds a reference to its recorder.
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span under the innermost open one; returns its handle
  /// (kNone when the buffer is full — the span is then only counted).
  std::uint32_t begin(SpanKind kind, std::uint64_t request = kNoId) {
    const std::uint32_t parent = stack_.empty() ? kNone : stack_.back();
    std::uint32_t handle = kNone;
    if (spans_.size() < capacity_) {
      handle = static_cast<std::uint32_t>(spans_.size());
      spans_.push_back(Span{kind, parent, request, kNoId, ns_now(), 0});
    } else {
      ++dropped_;
    }
    stack_.push_back(handle == kNone ? parent : handle);
    return handle;
  }

  void end(std::uint32_t handle, std::uint64_t session = kNoId) {
    stack_.pop_back();
    if (handle == kNone) return;
    spans_[handle].end_ns = ns_now();
    spans_[handle].session = session;
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// `id,name,start_ns,end_ns,parent,request,session` rows; -1 = none.
  bool write_csv(const std::string& path) const {
    std::ofstream out{path};
    out << "id,name,start_ns,end_ns,parent,request,session\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << ',' << span_name(s.kind) << ',' << s.start_ns << ','
          << s.end_ns << ',' << signed_id(s.parent, kNone) << ','
          << signed_id(s.request, kNoId) << ','
          << signed_id(s.session, kNoId) << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    SpanKind kind;
    std::uint32_t parent;
    std::uint64_t request;
    std::uint64_t session;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  template <typename T>
  static long long signed_id(T value, T none) {
    return value == none ? -1 : static_cast<long long>(value);
  }

  std::int64_t ns_now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  std::size_t capacity_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::uint64_t dropped_ = 0;
};

/// Forwards to the workload's traffic model, timing every query.  The
/// program only sees a TrafficModel, so the answers are unchanged.
class TimedTraffic final : public vod::net::TrafficModel {
 public:
  TimedTraffic(const vod::net::TrafficModel& inner, SpanRecorder& spans)
      : inner_(inner), spans_(spans) {}

  [[nodiscard]] vod::Mbps background_load(vod::LinkId link,
                                          vod::SimTime t) const override {
    const std::uint32_t span = spans_.begin(SpanKind::kTrafficQuery);
    const Clock::time_point start = Clock::now();
    const vod::Mbps load = inner_.background_load(link, t);
    total_s_ += seconds_since(start);
    spans_.end(span);
    return load;
  }

  [[nodiscard]] vod::SimTime next_change_after(vod::SimTime t) const override {
    return inner_.next_change_after(t);
  }

  [[nodiscard]] double total_seconds() const { return total_s_; }

 private:
  const vod::net::TrafficModel& inner_;
  SpanRecorder& spans_;
  mutable double total_s_ = 0.0;
};

}  // namespace vodbench
