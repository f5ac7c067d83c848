// Shared scaffolding for the table-regeneration benches.
#pragma once

#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "grnet/grnet.h"
#include "net/topology.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/series.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "sim/simulation.h"

namespace vod::bench {

inline const db::AdminCredential kAdmin{"bench-admin"};

/// The case-study database: all six servers, all seven links, one movie,
/// Table 2 statistics for the chosen instant.
struct CaseDb {
  grnet::CaseStudy g = grnet::build_case_study();
  db::Database db{kAdmin};
  VideoId movie;

  explicit CaseDb(grnet::TimeOfDay t) {
    for (std::size_t n = 0; n < g.topology.node_count(); ++n) {
      const NodeId node{static_cast<NodeId::underlying_type>(n)};
      db.register_server(node, g.topology.node_name(node), {});
    }
    for (const net::LinkInfo& info : g.topology.links()) {
      db.register_link(info.id, info.name, info.capacity);
    }
    movie = db.register_video("movie", MegaBytes{900.0}, Mbps{2.0});
    auto view = db.limited_view(kAdmin);
    for (const LinkId link : g.links_in_paper_order()) {
      const grnet::LinkSample sample = grnet::table2_sample(g, link, t);
      view.update_link_stats(link, sample.used, sample.utilization,
                             grnet::time_of(t));
    }
  }

  void place(NodeId server) {
    db.limited_view(kAdmin).add_title(server, movie);
  }
};

inline void heading(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n\n";
}

/// Observability plumbing shared by the benches:
///
///   --trace-out FILE      record a Chrome trace (Perfetto-loadable) and
///                         write it to FILE on exit
///   --metrics-out FILE    write a metrics-snapshot CSV via write_metrics()
///   --profile             enable the wall-clock profiler; its CSV goes to
///                         stderr on exit (timings are observe-only, so the
///                         bench's stdout stays byte-identical either way)
///
/// Telemetry v2 (DESIGN.md §16) — all observe-only, all sim-time:
///
///   --series-out FILE     sample the bound registry on the series cadence
///                         and write the series on exit (.json = JSON,
///                         anything else = CSV)
///   --series-cadence S    sim-seconds between samples (default 30)
///   --flight-out PREFIX   install the always-on flight recorder; anomaly
///                         dumps go to PREFIX<seq>.json
///
/// Construct at the top of main(); the destructor flushes everything and
/// clears every global sink.  Benches that drive a Simulation should call
/// bind_clock() so events carry simulated timestamps, and — for v2 —
/// bind_registry() on the observed run's service registry.  SLO specs
/// added with add_slo() are evaluated on the series cadence but only when
/// v2 is active (a flag was given), so default runs stay byte-identical.
class ObsScope {
 public:
  ObsScope(int argc, char** argv) {
    double cadence_s = 30.0;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--trace-out" && i + 1 < argc) {
        trace_path_ = argv[++i];
      } else if (arg == "--metrics-out" && i + 1 < argc) {
        metrics_path_ = argv[++i];
      } else if (arg == "--series-out" && i + 1 < argc) {
        series_path_ = argv[++i];
      } else if (arg == "--series-cadence" && i + 1 < argc) {
        cadence_s = std::atof(argv[++i]);
      } else if (arg == "--flight-out" && i + 1 < argc) {
        flight_prefix_ = argv[++i];
      } else if (arg == "--profile") {
        obs::Profiler::instance().set_enabled(true);
        profile_ = true;
      }
    }
    if (!trace_path_.empty()) obs::set_trace_sink(&recorder_);
    // The v2 recorders exist from here but install as global sinks only at
    // bind_registry(): multi-run benches (bench_qos baseline vs tiered)
    // observe exactly the bound run, not the warm-up sibling.
    if (v2_active()) {
      obs::SeriesOptions series_options;
      if (cadence_s > 0.0) series_options.cadence = Duration{cadence_s};
      series_ = std::make_unique<obs::TimeSeriesRecorder>(series_options);
    }
    if (!flight_prefix_.empty()) {
      obs::FlightOptions flight_options;
      flight_options.dump_path_prefix = flight_prefix_;
      flight_ = std::make_unique<obs::FlightRecorder>(flight_options);
    }
  }

  ~ObsScope() {
    if (series_) {
      obs::set_series_sink(nullptr);
      if (!series_path_.empty()) {
        const bool json = series_path_.size() >= 5 &&
                          series_path_.compare(series_path_.size() - 5, 5,
                                               ".json") == 0;
        std::ofstream out{series_path_};
        out << (json ? series_->to_json() : series_->to_csv());
        std::cerr << "series: " << series_->series().size()
                  << " series, " << series_->sample_count()
                  << " sample tick(s) -> " << series_path_ << "\n";
      }
    }
    if (flight_) {
      obs::set_flight_recorder(nullptr);
      std::cerr << "flight: " << flight_->dump_count() << " dump(s), "
                << flight_->suppressed_count() << " suppressed -> "
                << flight_prefix_ << "<seq>.json\n";
    }
    if (!trace_path_.empty()) {
      obs::set_trace_sink(nullptr);
      std::ofstream out{trace_path_};
      out << recorder_.to_chrome_json();
      std::cerr << "trace: " << recorder_.events().size() << " event(s) from "
                << recorder_.subsystem_count() << " subsystem(s) -> "
                << trace_path_ << "\n";
    }
    if (profile_) {
      std::cerr << obs::Profiler::instance().report_csv();
      obs::Profiler::instance().set_enabled(false);
      obs::Profiler::instance().reset();
    }
  }

  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

  /// Wire event timestamps to a simulation clock (or any SimTime source).
  /// Also feeds the flight recorder's ring and dump clock.
  void bind_clock(std::function<SimTime()> clock) {
    if (flight_) flight_->set_clock(clock);
    recorder_.set_clock(std::move(clock));
  }

  /// Activate the v2 subsystems on the observed run's registry: the
  /// series sampler restarts its grid and snapshots it each tick, SLO
  /// specs evaluate against it (breach counters registered into it),
  /// flight dumps embed it — and the global sinks install so the sim loop
  /// and the anomaly triggers see them.  No-op when v2 is off; call
  /// unbind_registry() before the run's service is destroyed.
  void bind_registry(obs::MetricsRegistry& registry) {
    if (series_) {
      series_->restart();
      series_->bind_registry(&registry);
      if (!pending_slos_.empty()) {
        slo_ = std::make_unique<obs::SloMonitor>(&registry);
        for (obs::SloSpec& spec : pending_slos_) slo_->add(std::move(spec));
        pending_slos_.clear();
        series_->set_on_sample(
            [this](SimTime at, const obs::MetricsSnapshot& snap) {
              slo_->evaluate(at, snap);
            });
      }
      obs::set_series_sink(series_.get());
    }
    if (flight_) {
      flight_->bind_registry(&registry);
      obs::set_flight_recorder(flight_.get());
    }
  }

  /// Detach the v2 subsystems from a registry about to be destroyed and
  /// uninstall the global sinks.
  void unbind_registry() {
    if (series_) {
      obs::set_series_sink(nullptr);
      series_->bind_registry(nullptr);
      series_->set_on_sample({});
    }
    slo_.reset();
    if (flight_) {
      obs::set_flight_recorder(nullptr);
      flight_->bind_registry(nullptr);
    }
  }

  /// Queue an SLO spec; it becomes live at the next bind_registry().
  /// Inert when v2 is off, so gate runs stay byte-identical by default.
  void add_slo(obs::SloSpec spec) {
    if (!v2_active()) return;
    pending_slos_.push_back(std::move(spec));
  }

  /// Writes the snapshot CSV to --metrics-out (no-op when the flag was not
  /// given).  Call once, after the run.
  void write_metrics(const obs::MetricsSnapshot& snapshot) {
    if (metrics_path_.empty()) return;
    std::ofstream out{metrics_path_};
    out << snapshot.to_csv();
    std::cerr << "metrics: " << snapshot.scalars().size() << " scalar(s) -> "
              << metrics_path_ << "\n";
  }

  /// Telemetry v2 is on when any of its flags was given.
  [[nodiscard]] bool v2_active() const {
    return !series_path_.empty() || !flight_prefix_.empty();
  }

  [[nodiscard]] bool tracing() const { return !trace_path_.empty(); }
  [[nodiscard]] obs::TraceRecorder& recorder() { return recorder_; }
  [[nodiscard]] obs::TimeSeriesRecorder* series() { return series_.get(); }
  [[nodiscard]] obs::SloMonitor* slo() { return slo_.get(); }
  [[nodiscard]] obs::FlightRecorder* flight() { return flight_.get(); }

 private:
  obs::TraceRecorder recorder_;
  std::unique_ptr<obs::TimeSeriesRecorder> series_;
  std::unique_ptr<obs::SloMonitor> slo_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::vector<obs::SloSpec> pending_slos_;
  std::string trace_path_;
  std::string metrics_path_;
  std::string series_path_;
  std::string flight_prefix_;
  bool profile_ = false;
};

}  // namespace vod::bench
