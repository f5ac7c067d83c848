// Sim-time metric time series.
//
// The TimeSeriesRecorder turns the end-of-run MetricsRegistry snapshot into
// trajectories: on a fixed sim-time cadence it snapshots the registry and
// appends one point per selected metric into a bounded ring-buffer series,
// keeping both the raw value and the per-window rate (delta / cadence) so
// utilization ramps, stall growth and preemption storms are visible while
// they happen, not just in aggregate.  Histograms contribute their [count]
// and [sum] scalars as series (the full bucket vector stays a snapshot
// concern).
//
// Determinism contract (DESIGN.md §16): sampling is observe-only and driven
// entirely by simulated time.  The simulation loops consult series_sink()
// (a global pointer, null when recording is off — one load+branch) and pump
// on_instant(next_event_time) BEFORE executing each instant, so a sample at
// cadence tick T reflects exactly the events strictly before T; the event
// stream itself is never perturbed (no sampling events are scheduled).
// Identical runs therefore produce byte-identical exports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "obs/metrics.h"

namespace vod::obs {

struct SeriesOptions {
  /// Sim-time spacing between samples; ticks land on multiples of the
  /// cadence starting at first_sample (so runs of different lengths share
  /// a grid and double-runs align trivially).
  Duration cadence = Duration{30.0};
  /// Sim time of the first tick.
  SimTime first_sample{0.0};
  /// Per-series point cap; once full the oldest points are overwritten
  /// (ring), keeping the most recent window and counting evictions.
  /// 0 = unlimited.
  std::size_t capacity = 4096;
  /// Metric-name prefixes to record; empty records everything.  A name is
  /// kept when it starts with any prefix (exact names work as prefixes).
  std::vector<std::string> include;
};

/// One sampled point: the raw value and the per-second rate over the
/// window since the previous sample (0 for the first point and for
/// gauge-style values moving backwards is fine — rate is signed).
struct SeriesPoint {
  SimTime at{0.0};
  double value = 0.0;
  double rate = 0.0;
};

/// A bounded ring of points for one metric.
class Series {
 public:
  explicit Series(std::size_t capacity) : capacity_(capacity) {}

  void append(SeriesPoint point);

  /// Oldest-to-newest (wrap-aware).
  template <class Fn>
  void for_each_point(Fn&& fn) const {
    const std::size_t n = points_.size();
    for (std::size_t i = 0; i < n; ++i) {
      fn(points_[(head_ + i) % n]);
    }
  }
  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] std::size_t evicted() const { return evicted_; }
  [[nodiscard]] const SeriesPoint& back() const;

 private:
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  // oldest element / next overwrite slot
  std::size_t evicted_ = 0;
  std::vector<SeriesPoint> points_;
};

/// Registry-driven sampler.  Bind a registry, install as the global
/// series_sink(), and the simulation loops pump on_instant(); sample() can
/// also be called directly (tests, explicit flushes).
class TimeSeriesRecorder {
 public:
  explicit TimeSeriesRecorder(SeriesOptions options = {});

  /// The registry sampled at each tick.  Must outlive the recorder or be
  /// unbound first; nullptr disables sampling (ticks still advance).
  /// Rebinding drops the warm scratch snapshot — registry keys only grow,
  /// so stale entries can only come from a different registry.
  void bind_registry(const MetricsRegistry* registry) {
    if (registry != registry_) scratch_ = MetricsSnapshot{};
    registry_ = registry;
  }

  /// Pump: takes every cadence tick <= `upcoming` that has not fired yet.
  /// The simulation calls this with the next instant's timestamp before
  /// executing it, so each sample sees the state strictly before its tick.
  void on_instant(SimTime upcoming);

  /// Drops every recorded point and rewinds the tick grid to
  /// first_sample — multi-run benches call this (via ObsScope's
  /// bind_registry) so the series cover exactly the observed run.
  void restart();

  /// Samples the bound registry once at `at` (normally driven by
  /// on_instant; exposed for tests and end-of-run flushes).
  void sample(SimTime at);

  /// Invoked after every sample tick with the tick time and the snapshot
  /// just taken — the hook the SloMonitor rides so SLO evaluation shares
  /// both the series cadence and the sampled snapshot instead of
  /// scheduling its own events and re-snapshotting the registry.  With no
  /// registry bound the snapshot is empty.  Empty function disables.
  void set_on_sample(std::function<void(SimTime, const MetricsSnapshot&)> hook) {
    on_sample_ = std::move(hook);
  }

  [[nodiscard]] const std::map<std::string, Series>& series() const {
    return series_;
  }
  [[nodiscard]] std::size_t sample_count() const { return samples_taken_; }
  [[nodiscard]] SimTime next_tick() const { return next_tick_; }

  /// Name-sorted exports.  CSV: `series,t,value,rate` rows; JSON: one
  /// object per series with point arrays plus cadence/eviction metadata.
  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] std::string to_json() const;

 private:
  [[nodiscard]] bool selected(const std::string& name) const;
  Series& series_slot(const std::string& name);
  static void record_into(Series& series, SimTime at, double value);
  void record(const std::string& name, SimTime at, double value);
  void rebuild_plan();

  SeriesOptions options_;
  const MetricsRegistry* registry_ = nullptr;
  std::function<void(SimTime, const MetricsSnapshot&)> on_sample_;
  SimTime next_tick_{0.0};
  std::size_t samples_taken_ = 0;
  std::map<std::string, Series> series_;
  /// Reused across ticks (snapshot_into): after the first sample the maps
  /// are warm and a tick allocates no snapshot nodes.
  MetricsSnapshot scratch_;
  /// One Series per scratch entry in map-iteration order (nullptr =
  /// filtered out by `include`); histograms pin their [count]/[sum] pair.
  /// Series map nodes are stable, so the pointers survive growth; the
  /// plan is rebuilt whenever the scratch shape (sizes) changes.
  std::vector<Series*> scalar_plan_;
  std::vector<std::pair<Series*, Series*>> hist_plan_;
};

/// The process-global series sink pumped by the simulation loops; nullptr
/// (the default) disables sampling at one load+branch, mirroring
/// trace_sink().  Installer owns the recorder and must clear the sink
/// before destroying it.
[[nodiscard]] TimeSeriesRecorder* series_sink();
void set_series_sink(TimeSeriesRecorder* recorder);

}  // namespace vod::obs
