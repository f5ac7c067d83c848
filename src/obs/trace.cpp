#include "obs/trace.h"

#include <array>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/contract.h"

namespace vod::obs {

namespace {

// vodlint:allow(shared-mutable-global: trace sink pointers are installed
// before a run and cleared after; the simulation core only reads them
// (DESIGN.md §11))
TraceRecorder* g_sink = nullptr;  // effective sink read by call sites

// vodlint:allow(shared-mutable-global: same installer-owned lifecycle as
// g_sink — these two feed the effective-sink rewiring below)
TraceRecorder* g_user_sink = nullptr;

// vodlint:allow(shared-mutable-global: same installer-owned lifecycle as
// g_sink; owned by the FlightRecorder (obs/flight.h))
TraceRecorder* g_flight_ring = nullptr;

/// Recomputes the effective sink: the user recorder wins and mirrors into
/// the flight ring; with no user recorder the ring records directly.
void rewire_sink() {
  if (g_user_sink != nullptr) {
    g_user_sink->set_mirror(g_flight_ring);
    g_sink = g_user_sink;
  } else {
    g_sink = g_flight_ring;
  }
}

/// JSON string escaping for names/arg values (control chars, quote,
/// backslash).
std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 2);
  for (const char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::ostringstream hex;
          hex << "\\u00" << std::hex << (c < 16 ? "0" : "")
              << static_cast<int>(c);
          out += hex.str();
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// A reused formatting stream: constructing an ostringstream per value
/// (locale setup each time) dominates rendering cost at trace/flight event
/// volume.
std::ostringstream& scratch_stream() {
  // vodlint:allow(shared-mutable-global: a formatting buffer cleared on
  // every use; reuse only skips the per-value locale setup of a fresh
  // ostringstream)
  static std::ostringstream os;
  os.str(std::string());
  return os;
}

/// Simulated seconds -> trace microseconds, rendered without a fractional
/// part when whole (the common case) so the JSON stays tidy and stable.
std::string to_ts(SimTime at) {
  const double us = at.seconds() * 1e6;
  std::ostringstream& os = scratch_stream();
  if (us == std::floor(us) && std::abs(us) < 9e15) {
    os << static_cast<long long>(us);
  } else {
    os << us;
  }
  return os.str();
}

}  // namespace

const char* to_string(Subsystem subsystem) {
  switch (subsystem) {
    case Subsystem::kSession:
      return "session";
    case Subsystem::kVra:
      return "vra";
    case Subsystem::kDma:
      return "dma";
    case Subsystem::kFluid:
      return "fluid";
    case Subsystem::kSnmp:
      return "snmp";
    case Subsystem::kFault:
      return "fault";
    case Subsystem::kService:
      return "service";
    case Subsystem::kSim:
      return "sim";
    case Subsystem::kSlo:
      return "slo";
  }
  return "?";
}

std::string num(double value) {
  std::ostringstream& os = scratch_stream();
  os << value;
  return os.str();
}

std::string num(std::uint64_t value) { return std::to_string(value); }

TraceRecorder* trace_sink() { return g_sink; }

void set_trace_sink(TraceRecorder* recorder) {
  if (g_user_sink != nullptr && g_user_sink != recorder) {
    g_user_sink->set_mirror(nullptr);
  }
  g_user_sink = recorder;
  rewire_sink();
}

void set_flight_ring(TraceRecorder* ring) {
  g_flight_ring = ring;
  rewire_sink();
}

TraceRecorder::TraceRecorder(std::size_t max_events, OverflowPolicy policy)
    : max_events_(max_events), policy_(policy) {
  require(policy == OverflowPolicy::kDrop || max_events != 0,
      "TraceRecorder: kRing requires a finite capacity");
}

void TraceRecorder::set_clock(std::function<SimTime()> clock) {
  clock_ = std::move(clock);
}

void TraceRecorder::push(TraceEvent event) {
  if (mirror_ != nullptr) {
    mirror_->push(event);  // copy: the mirror sees every event, cap or not
  }
  if (max_events_ != 0 && events_.size() >= max_events_) {
    if (policy_ == OverflowPolicy::kRing) {
      events_[head_] = std::move(event);
      head_ = (head_ + 1) % max_events_;
      ++overwritten_;
      return;
    }
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

void TraceRecorder::instant(Subsystem subsystem, std::string name,
                            std::vector<TraceArg> args) {
  push(TraceEvent{now(), subsystem, 'i', std::move(name), 0, 0.0,
                  std::move(args)});
}

void TraceRecorder::counter(Subsystem subsystem, std::string name,
                            double value) {
  push(TraceEvent{now(), subsystem, 'C', std::move(name), 0, value, {}});
}

void TraceRecorder::begin(Subsystem subsystem, std::string name,
                          std::vector<TraceArg> args) {
  push(TraceEvent{now(), subsystem, 'B', std::move(name), 0, 0.0,
                  std::move(args)});
}

void TraceRecorder::end(Subsystem subsystem, std::string name) {
  push(TraceEvent{now(), subsystem, 'E', std::move(name), 0, 0.0, {}});
}

void TraceRecorder::async_begin(Subsystem subsystem, std::string name,
                                std::uint64_t id,
                                std::vector<TraceArg> args) {
  push(TraceEvent{now(), subsystem, 'b', std::move(name), id, 0.0,
                  std::move(args)});
}

void TraceRecorder::async_end(Subsystem subsystem, std::string name,
                              std::uint64_t id) {
  push(TraceEvent{now(), subsystem, 'e', std::move(name), id, 0.0, {}});
}

void TraceRecorder::clear() {
  events_.clear();
  head_ = 0;
  dropped_ = 0;
  overwritten_ = 0;
}

std::size_t TraceRecorder::subsystem_count() const {
  std::array<bool, kSubsystemCount> seen{};
  for (const TraceEvent& event : events_) {
    seen[static_cast<std::size_t>(event.subsystem)] = true;
  }
  std::size_t count = 0;
  for (const bool s : seen) count += s ? 1 : 0;
  return count;
}

std::string TraceRecorder::to_chrome_json() const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"args\":{\"name\":\"vod-sim\"}}";
  // One named thread track per subsystem that actually produced events,
  // emitted in enum order so the output is deterministic.
  std::array<bool, kSubsystemCount> seen{};
  for (const TraceEvent& event : events_) {
    seen[static_cast<std::size_t>(event.subsystem)] = true;
  }
  for (std::size_t s = 0; s < kSubsystemCount; ++s) {
    if (!seen[s]) continue;
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
       << s + 1 << ",\"args\":{\"name\":\""
       << to_string(static_cast<Subsystem>(s)) << "\"}}";
  }
  for_each_event([&](const TraceEvent& event) {
    const std::size_t tid = static_cast<std::size_t>(event.subsystem) + 1;
    os << ",\n{\"name\":\"" << json_escape(event.name) << "\",\"cat\":\""
       << to_string(event.subsystem) << "\",\"ph\":\"" << event.phase
       << "\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << to_ts(event.at);
    if (event.phase == 'b' || event.phase == 'e') {
      os << ",\"id\":" << event.id;
    }
    if (event.phase == 'i') {
      os << ",\"s\":\"t\"";
    }
    if (event.phase == 'C') {
      os << ",\"args\":{\"value\":" << num(event.value) << "}";
    } else if (!event.args.empty()) {
      os << ",\"args\":{";
      bool first = true;
      for (const TraceArg& arg : event.args) {
        if (!first) os << ",";
        first = false;
        os << "\"" << json_escape(arg.key) << "\":\""
           << json_escape(arg.value) << "\"";
      }
      os << "}";
    }
    os << "}";
  });
  os << "\n]";
  if (dropped_ != 0) {
    os << ",\"vodDroppedEvents\":" << dropped_;
  }
  os << "}\n";
  return os.str();
}

std::string TraceRecorder::to_text() const {
  std::ostringstream os;
  for_each_event([&](const TraceEvent& event) {
    os << "t=" << event.at.seconds() << ' ' << to_string(event.subsystem)
       << ' ' << event.phase << ' ' << event.name;
    if (event.phase == 'b' || event.phase == 'e') {
      os << " id=" << event.id;
    }
    if (event.phase == 'C') {
      os << " value=" << num(event.value);
    }
    for (const TraceArg& arg : event.args) {
      os << ' ' << arg.key << '=' << arg.value;
    }
    os << '\n';
  });
  if (dropped_ != 0) {
    os << "# dropped " << dropped_ << " event(s) past the capacity cap\n";
  }
  if (overwritten_ != 0) {
    os << "# ring overwrote " << overwritten_ << " older event(s)\n";
  }
  return os.str();
}

}  // namespace vod::obs
