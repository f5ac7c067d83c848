// End-to-end benchmark of the real VodService.
//
//   vodbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]
//
// Builds one workload (scenario.cpp) from the seed, drives its generated
// requests through the service's front door from one self-rescheduling
// arrival event, runs the simulation to drain, checks the outcome and
// repeats the whole run ("rep") until S wall seconds have passed.  Host
// metrics are medians over reps; simulated metrics and counts must repeat
// exactly in every rep (their digest is compared).
//
// --trace 1 alternates untraced and traced reps.  Traced reps enable the
// program's profiler scopes, time every front-door call and traffic query
// and record spans; per-layer metrics come from them, and the traced over
// untraced wall ratio is the tracing overhead.  Untraced reps install none
// of that.
//
// The last stdout line is one JSON object (run.py turns it into the
// benchmark result); the lines before it are a readable table.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "obs/profile.h"
#include "scenario.h"
#include "sim/simulation.h"
#include "spans.h"

namespace vodbench {
namespace {

using namespace vod;

constexpr double kSliceSeconds = 10.0;      // simulated time per run_until
constexpr std::size_t kSetupSamplesPerRep = 4;  // extra set-up samples
constexpr std::size_t kSpanCapacity = 200'000;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of an unsorted sample (0 when empty).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Unit of a metric, from its name's suffix.
std::string unit_of(const std::string& name, bool wall) {
  const auto ends = [&name](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_share") || ends("_ratio") || ends("_frac") || ends("overhead")) {
    return "ratio";
  }
  if (ends("_per_session")) return "count/session";
  if (ends("_ms")) return "ms";
  if (ends("ns_per_event")) return "ns";
  if (name.find("_us_") != std::string::npos) return "us";
  if (ends("_s") || name.find("_s_") != std::string::npos) {
    return wall ? "s" : "sim_s";
  }
  return "count";
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Everything one rep measured.  `exact` holds simulated metrics and work
/// counts (identical in every rep of a seed, digested); `timed` holds
/// wall-clock figures.
struct RepResult {
  bool traced = false;
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t op_failures = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, double> exact;
  std::map<std::string, double> timed;
  std::string profile_csv;
  std::string metrics_csv;
};

std::uint64_t digest(const std::map<std::string, double>& exact) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const auto& [name, value] : exact) {
    for (const char c : name + "=" + fmt(value) + ";") {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
  }
  return h;
}

/// Feeds the request schedule to the service from one self-rescheduling
/// event and tallies every request's terminal outcome.
class ArrivalFeed {
 public:
  enum State : std::uint8_t { kPending, kFinished, kFailed, kRefused };

  ArrivalFeed(Scenario& s, SpanRecorder* spans)
      : s_(s), spans_(spans), state_(s.requests.size(), kPending),
        terminal_requested_at_(s.requests.size(), -1.0),
        open_(s.requests.size()) {}
  // Scheduled events and session callbacks hold `this`.
  ArrivalFeed(const ArrivalFeed&) = delete;
  ArrivalFeed& operator=(const ArrivalFeed&) = delete;

  void arm() {
    if (next_ >= s_.requests.size()) return;
    s_.sim.schedule_at(SimTime{s_.requests[next_].at},
                       [this](SimTime now) { fire(now); });
  }

  [[nodiscard]] bool done() const { return open_ == 0; }

  // Outcome tallies.
  std::uint64_t finished = 0, failed = 0, rejected = 0, no_server = 0;
  std::uint64_t admitted = 0, errors = 0, double_terminal = 0;
  std::uint64_t late_sessions = 0;
  double lateness_max_s = 0.0;
  // Viewer experience over sessions that started playback.
  std::vector<double> startup_delays;
  double rebuffer_s = 0.0, played_s = 0.0;
  std::uint64_t switches = 0, stall_retries = 0, proactive_failovers = 0;
  std::vector<double> failover_latencies;
  // Peaks sampled at every arrival.
  std::size_t peak_sessions = 0, peak_flows = 0;
  // Front-door call durations (traced reps only).
  std::vector<double> request_us;

 private:
  void fire(SimTime now) {
    const std::size_t i = next_++;
    const Request& r = s_.requests[i];
    lateness_max_s = std::max(lateness_max_s, std::abs(now.seconds() - r.at));
    service::VodService& service = *s_.service;
    std::optional<SessionId> sid;
    const std::uint32_t span =
        spans_ != nullptr ? spans_->begin(SpanKind::kRequest, i) : 0;
    const Clock::time_point start =
        spans_ != nullptr ? Clock::now() : Clock::time_point{};
    try {
      auto on_done = [this, i](const stream::Session& session) {
        on_terminal(i, session);
      };
      if (s_.classed) {
        const auto outcome = service.request_classed(
            r.home, s_.titles[r.title], r.cls, 1.0, std::move(on_done));
        using A = service::VodService::Admission;
        if (outcome.verdict == A::kRejected ||
            outcome.verdict == A::kNoServer) {
          ++(outcome.verdict == A::kRejected ? rejected : no_server);
          settle(i, kRefused);
        } else {
          ++admitted;
          sid = outcome.session;
        }
      } else {
        sid = service.request_at(r.home, s_.titles[r.title],
                                 std::move(on_done));
      }
    } catch (const std::exception& e) {
      ++errors;
      std::cerr << "request " << i << " threw: " << e.what() << "\n";
      if (state_[i] == kPending) settle(i, kFailed);
    }
    if (spans_ != nullptr) {
      request_us.push_back(seconds_since(start) * 1e6);
      spans_->end(span, sid ? sid->value() : SpanRecorder::kNoId);
    }
    // Generator lateness: the session must be stamped with its due time.
    double stamped = r.at;
    if (state_[i] == kPending && sid) {
      stamped = service.session_metrics(*sid).requested_at.seconds();
    } else if (state_[i] != kRefused && sid) {
      stamped = terminal_requested_at_[i];
    }
    if (stamped != r.at) ++late_sessions;
    peak_sessions = std::max(peak_sessions, service.active_session_count());
    peak_flows = std::max(peak_flows, s_.network->active_flow_count());
    arm();
  }

  void on_terminal(std::size_t i, const stream::Session& session) {
    if (state_[i] != kPending) {
      ++double_terminal;
      return;
    }
    const stream::SessionMetrics& m = session.metrics();
    terminal_requested_at_[i] = m.requested_at.seconds();
    settle(i, m.failed ? kFailed : kFinished);
    if (m.playback_started_at) {
      startup_delays.push_back(m.playback_started_at->seconds() -
                               s_.requests[i].at);
      rebuffer_s += m.rebuffer_seconds;
      played_s += session.video().duration_seconds() *
                  static_cast<double>(m.cluster_completed.size()) /
                  static_cast<double>(session.cluster_count());
    }
    switches += static_cast<std::uint64_t>(m.server_switches);
    stall_retries += static_cast<std::uint64_t>(m.stall_retries);
    proactive_failovers += static_cast<std::uint64_t>(m.proactive_failovers);
    failover_latencies.insert(failover_latencies.end(),
                              m.failover_latencies.begin(),
                              m.failover_latencies.end());
  }

  void settle(std::size_t i, State state) {
    state_[i] = state;
    --open_;
    if (state == kFinished) ++finished;
    if (state == kFailed) ++failed;
  }

  Scenario& s_;
  SpanRecorder* spans_;
  std::vector<State> state_;
  std::vector<double> terminal_requested_at_;
  std::size_t open_;
  std::size_t next_ = 0;
};

RepResult run_rep(Workload workload, std::uint64_t seed, bool traced,
                  std::unique_ptr<SpanRecorder>& spans_out) {
  RepResult rep;
  rep.traced = traced;
  auto spans = traced ? std::make_unique<SpanRecorder>(kSpanCapacity)
                      : nullptr;

  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<Scenario> s = build_scenario(workload, seed, spans.get());
  rep.setup_s = seconds_since(setup_start);

  ArrivalFeed feed{*s, spans.get()};
  feed.arm();
  obs::Profiler& profiler = obs::Profiler::instance();
  if (traced) {
    profiler.reset();
    profiler.set_enabled(true);
  }
  std::uint64_t events = 0;
  const Clock::time_point run_start = Clock::now();
  for (double horizon = kSliceSeconds;; horizon += kSliceSeconds) {
    const std::uint32_t span =
        traced ? spans->begin(SpanKind::kRunUntil) : 0;
    events += s->sim.run_until(SimTime{horizon});
    if (traced) spans->end(span);
    if ((feed.done() && s->service->active_session_count() == 0) ||
        horizon >= s->drain_limit_s) {
      break;
    }
  }
  rep.run_s = seconds_since(run_start);
  profiler.set_enabled(false);

  service::VodService& service = *s->service;
  const obs::MetricsSnapshot snap = service.metrics_snapshot();
  const auto counter = [&snap](const char* name) {
    return static_cast<double>(snap.value_u64(name));
  };
  const std::uint64_t sent = s->requests.size();
  const std::uint64_t refused = feed.rejected + feed.no_server;
  const std::uint64_t unfinished =
      sent - std::min(sent, feed.finished + feed.failed + refused);
  rep.sent = sent;
  rep.op_failures = feed.errors + feed.double_terminal + unfinished;

  // ---- correctness checks ----
  const auto check = [&rep](bool ok, const std::string& what) {
    if (!ok) rep.check_failures.push_back(what);
  };
  check(feed.finished + feed.failed + refused == sent &&
            feed.double_terminal == 0,
        "each request ends in exactly one outcome");
  check(unfinished == 0, "no request unfinished at drain");
  check(feed.errors == 0, "no front-door call threw");
  check(service.active_session_count() == 0, "active_session_count() == 0");
  check(s->network->active_flow_count() == 0, "active_flow_count() == 0");
  check(counter("service.sessions_finished") ==
            static_cast<double>(feed.finished),
        "finished tally == service.sessions_finished");
  check(counter("service.sessions_failed") ==
            static_cast<double>(feed.failed) + counter("service.retries"),
        "failed tally + retries == service.sessions_failed");
  check(counter("service.rejected") == static_cast<double>(feed.rejected),
        "rejected tally == service.rejected");
  check(feed.lateness_max_s == 0.0 && feed.late_sessions == 0,
        "generator lateness is zero");

  // ---- simulated (viewer) metrics and work counts ----
  auto& x = rep.exact;
  const double started = static_cast<double>(feed.startup_delays.size());
  const double failed_requests =
      static_cast<double>(feed.failed + refused + unfinished);
  x["requests.sent"] = static_cast<double>(sent);
  x["requests.finished"] = static_cast<double>(feed.finished);
  x["requests.failed"] = static_cast<double>(feed.failed);
  x["requests.refused"] = static_cast<double>(refused);
  x["requests.unfinished"] = static_cast<double>(unfinished);
  x["gen.lateness_max_s"] = feed.lateness_max_s;
  x["startup_delay_p50_s"] = quantile(feed.startup_delays, 0.50);
  x["startup_delay_p99_s"] = quantile(feed.startup_delays, 0.99);
  x["startup_delay_samples"] = started;
  x["failed_frac"] = ratio(failed_requests, static_cast<double>(sent));
  x["completed_frac"] =
      ratio(static_cast<double>(feed.finished), static_cast<double>(sent));
  x["rebuffer_s_mean"] = ratio(feed.rebuffer_s, started);
  x["continuity"] =
      ratio(feed.played_s, feed.played_s + feed.rebuffer_s);
  x["sim.events"] = static_cast<double>(events);
  x["sim.end_s"] = s->sim.now().seconds();
  x["fluid.reallocations"] = counter("fluid.reallocations");
  x["fluid.reallocations_per_session"] =
      ratio(counter("fluid.reallocations"), static_cast<double>(sent));
  x["fluid.traffic_queries"] = counter("fluid.traffic_queries");
  x["fluid.peak_flows"] = static_cast<double>(feed.peak_flows);
  x["vra.spt_hits"] = counter("vra.spt_hits");
  x["vra.spt_misses"] = counter("vra.spt_misses");
  x["vra.spt_hit_ratio"] =
      ratio(counter("vra.spt_hits"),
            counter("vra.spt_hits") + counter("vra.spt_misses"));
  x["vra.graph_rebuilds"] = counter("vra.graph_rebuilds");
  x["vra.graph_incremental"] = counter("vra.graph_incremental");
  x["vra.degraded_selections"] = counter("vra.degraded_selections");
  x["snmp.polls"] = counter("snmp.polls");
  x["dma.requests"] = counter("dma.requests");
  x["dma.hits"] = counter("dma.hits");
  x["dma.stores"] = counter("dma.stores");
  x["dma.evictions"] = counter("dma.evictions");
  x["dma.hit_ratio"] = ratio(counter("dma.hits"), counter("dma.requests"));
  x["service.admitted"] = static_cast<double>(feed.admitted);
  x["service.rejected"] = counter("service.rejected");
  x["service.no_server"] = static_cast<double>(feed.no_server);
  x["service.retries"] = counter("service.retries");
  x["service.sessions_finished"] = counter("service.sessions_finished");
  x["service.sessions_failed"] = counter("service.sessions_failed");
  x["service.preemption_victims"] =
      static_cast<double>(service.preemption_victim_count());
  x["service.peak_active_sessions"] =
      static_cast<double>(feed.peak_sessions);
  x["stream.server_switches"] = static_cast<double>(feed.switches);
  x["stream.server_switches_per_session"] =
      ratio(static_cast<double>(feed.switches), started);
  x["stream.stall_retries"] = static_cast<double>(feed.stall_retries);
  x["stream.proactive_failovers"] =
      static_cast<double>(feed.proactive_failovers);
  x["stream.failover_latency_p99_s"] =
      quantile(feed.failover_latencies, 0.99);
  x["fault.applied"] =
      s->faults ? static_cast<double>(s->faults->trace().size()) : 0.0;

  // ---- wall-clock split (traced reps) ----
  if (traced) {
    auto& t = rep.timed;
    t["run_s"] = rep.run_s;
    t["sim.ns_per_event"] =
        ratio(rep.run_s * 1e9, static_cast<double>(events));
    const auto site = [&profiler](const char* name) {
      const auto& sites = profiler.sites();
      const auto it = sites.find(name);
      return it == sites.end() ? obs::Profiler::SiteStats{} : it->second;
    };
    const auto run_next = site("sim.run_next");
    const auto fluid = site("fluid.reallocate");
    const auto vra = site("vra.select_server");
    const double fluid_ms = static_cast<double>(fluid.total_ns) / 1e6;
    const double vra_ms = static_cast<double>(vra.total_ns) / 1e6;
    const double run_ms = rep.run_s * 1e3;
    const double self_ms =
        static_cast<double>(run_next.total_ns) / 1e6 - fluid_ms - vra_ms;
    const double traffic_ms = s->timed_traffic->total_seconds() * 1e3;
    t["sim.self_ms"] = self_ms;
    t["sim.self_share"] = ratio(self_ms, run_ms);
    t["fluid.reallocate_ms"] = fluid_ms;
    t["fluid.reallocate_us_mean"] =
        ratio(fluid_ms * 1e3, static_cast<double>(fluid.calls));
    t["fluid.wall_share"] = ratio(fluid_ms, run_ms);
    t["traffic.query_ms"] = traffic_ms;
    t["traffic.wall_share"] = ratio(traffic_ms, run_ms);
    t["vra.selections"] = static_cast<double>(vra.calls);
    t["vra.select_ms"] = vra_ms;
    t["vra.select_us_mean"] =
        ratio(vra_ms * 1e3, static_cast<double>(vra.calls));
    t["vra.wall_share"] = ratio(vra_ms, run_ms);
    t["service.request_us_p50"] = quantile(feed.request_us, 0.50);
    t["service.request_us_p99"] = quantile(feed.request_us, 0.99);
    t["service.request_samples"] =
        static_cast<double>(feed.request_us.size());
    t["trace.spans"] = static_cast<double>(spans->size());
    t["trace.spans_dropped"] = static_cast<double>(spans->dropped());
    rep.profile_csv = profiler.report_csv();
    rep.metrics_csv = snap.to_csv();
    profiler.reset();
  }
  s.reset();
  if (traced) spans_out = std::move(spans);
  return rep;
}

struct Args {
  std::optional<Workload> workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = parse_workload(value);
        if (!args.workload) return std::nullopt;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = value == "1";
      } else if (key == "--out-dir") {
        args.out_dir = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (!args.workload || argc % 2 == 0 || !(args.seconds > 0.0)) {
    return std::nullopt;
  }
  return args;
}

int run(const Args& args) {
  Logger::instance().set_level(LogLevel::kError);
  sim::set_simulation_config({});  // serial: workers 1, epoch barrier off
  const sim::SimulationConfig& stepping = sim::simulation_config();
  const Workload workload = *args.workload;

  // Set-up is milliseconds: besides each rep's own, a few set-up-only
  // samples before every rep spread the median over the whole run.
  std::vector<double> setup_samples;
  const auto sample_setups = [&] {
    for (std::size_t k = 0; k < kSetupSamplesPerRep; ++k) {
      const Clock::time_point start = Clock::now();
      const auto s = build_scenario(workload, args.seed, nullptr);
      setup_samples.push_back(seconds_since(start));
    }
  };

  std::vector<RepResult> reps;
  std::unique_ptr<SpanRecorder> spans;
  const Clock::time_point start = Clock::now();
  const auto have = [&reps](bool traced) {
    return std::any_of(reps.begin(), reps.end(),
                       [traced](const RepResult& r) {
                         return r.traced == traced;
                       });
  };
  // Reps continue while the next one (as long as the longest so far) still
  // ends within --seconds; a traced run has at least one of each kind.
  double longest_rep = 0.0;
  while (reps.empty() || (args.trace && !have(true)) ||
         seconds_since(start) + longest_rep <= args.seconds) {
    const bool traced = args.trace && reps.size() % 2 == 1;
    const Clock::time_point rep_start = Clock::now();
    if (!traced) sample_setups();
    reps.push_back(run_rep(workload, args.seed, traced, spans));
    longest_rep = std::max(longest_rep, seconds_since(rep_start));
  }

  // Every rep must reproduce the first one's simulated behaviour exactly,
  // traced or not (tracing is observe-only).
  const std::uint64_t first_digest = digest(reps.front().exact);
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(first_digest));
  std::set<std::string> failures;
  std::uint64_t attempted = 0, op_failures = 0;
  std::vector<double> throughput, untraced_run, traced_run;
  std::map<std::string, std::vector<double>> layer_times;
  for (const RepResult& r : reps) {
    attempted += r.sent;
    op_failures += r.op_failures;
    failures.insert(r.check_failures.begin(), r.check_failures.end());
    if (digest(r.exact) != first_digest) {
      failures.insert("simulated metrics repeat exactly in every rep");
    }
    if (r.traced) {
      traced_run.push_back(r.run_s);
      for (const auto& [name, value] : r.timed) {
        layer_times[name].push_back(value);
      }
    } else {
      untraced_run.push_back(r.run_s);
      throughput.push_back(static_cast<double>(r.sent) / r.run_s);
      setup_samples.push_back(r.setup_s);
    }
  }
  const auto& x = reps.front().exact;

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> e2e = {
      {"sessions_per_s", median(throughput), "1/s"},
      {"setup_s", median(setup_samples), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"startup_delay_p50_s", x.at("startup_delay_p50_s"), "sim_s"},
      {"startup_delay_p99_s", x.at("startup_delay_p99_s"), "sim_s"},
      {"completed_frac", x.at("completed_frac"), "ratio"},
      {"continuity", x.at("continuity"), "ratio"},
  };
  std::vector<Metric> layers;
  for (const auto& [name, value] : x) {
    const bool is_e2e = std::any_of(
        e2e.begin(), e2e.end(), [&name](const Metric& m) {
          return m.name == name;
        });
    if (!is_e2e) layers.push_back({name, value, unit_of(name, false)});
  }
  for (const auto& [name, values] : layer_times) {
    layers.push_back({name, median(values), unit_of(name, true)});
  }
  const double overhead = ratio(median(traced_run), median(untraced_run));
  if (args.trace) layers.push_back({"obs.trace_overhead", overhead, "ratio"});

  // ---- traced-run files: spans + per-layer table ----
  if (args.trace) {
    const std::string prefix = args.out_dir + "/" + workload_name(workload) +
                               "-seed" + std::to_string(args.seed);
    const RepResult& last_traced = *std::find_if(
        reps.rbegin(), reps.rend(), [](const RepResult& r) {
          return r.traced;
        });
    bool written = spans->write_csv(prefix + ".spans.csv");
    std::ofstream layers_out{prefix + ".layers.csv"};
    layers_out << "metric,value,unit\n";
    for (const Metric& m : layers) {
      layers_out << m.name << ',' << fmt(m.value) << ',' << m.unit << '\n';
    }
    std::ofstream{prefix + ".profile.csv"} << last_traced.profile_csv;
    std::ofstream{prefix + ".metrics.csv"} << last_traced.metrics_csv;
    written = written && static_cast<bool>(layers_out);
    if (!written) failures.insert("traced-run files written");
  }

  // ---- readable table ----
  std::printf("workload %s  seed %llu  reps %zu (%zu traced)  nproc %u  "
              "stepping workers=%u epoch_barrier=%d\n",
              workload_name(workload),
              static_cast<unsigned long long>(args.seed), reps.size(),
              traced_run.size(), std::thread::hardware_concurrency(),
              stepping.parallel.workers, stepping.epoch_barrier ? 1 : 0);
  std::printf("input: %llu requests per rep\n",
              static_cast<unsigned long long>(reps.front().sent));
  for (const Metric& m : e2e) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : layers) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("digest %s\n", digest_hex);

  // ---- machine-readable line ----
  std::ostringstream json;
  json << "{\"correct\": " << (failures.empty() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << op_failures
       << ", \"digest\": \"" << digest_hex << "\""
       << ", \"reps\": " << reps.size() << ", \"nproc\": "
       << std::thread::hardware_concurrency() << ", \"workers\": "
       << stepping.parallel.workers << ", \"epoch_barrier\": "
       << (stepping.epoch_barrier ? "true" : "false") << ", \"metrics\": {";
  bool first = true;
  for (const auto* group : {&e2e, &layers}) {
    for (const Metric& m : *group) {
      json << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
           << fmt(m.value) << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace
}  // namespace vodbench

int main(int argc, char** argv) {
  const auto args = vodbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: vodbench --workload remote_wide|local_churn|"
                 "contended_storm --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n");
    return 2;
  }
  try {
    return vodbench::run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vodbench: %s\n", e.what());
    return 1;
  }
}
