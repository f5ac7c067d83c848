// The three benchmark workloads: topology, catalog, placement, service
// options, background traffic, fault storm and the seeded request
// schedule.  Everything here is set-up; nothing simulates yet.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/user_class.h"
#include "fault/fault_injector.h"
#include "net/fluid.h"
#include "net/topology.h"
#include "net/traffic.h"
#include "service/vod_service.h"
#include "sim/simulation.h"
#include "spans.h"

namespace vodbench {

enum class Workload { kRemoteWide, kLocalChurn, kContendedStorm };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload workload);

/// One viewer request, due at simulated time `at`.
struct Request {
  double at = 0.0;
  vod::NodeId home;
  std::size_t title = 0;  // index into Scenario::titles
  vod::UserClass cls = vod::UserClass::kStandard;
};

/// A fully built, started service with its inputs, up to the first event.
/// Members are declared in dependency order (destroyed in reverse).
struct Scenario {
  /// Requests reach the program through request_classed (true) or
  /// request_at (false).
  bool classed = false;
  /// Latest simulated time the run phase may reach; requests still open
  /// by then count as unfinished.
  double drain_limit_s = 0.0;
  vod::net::Topology topology;
  std::unique_ptr<vod::net::TrafficModel> traffic;
  std::unique_ptr<TimedTraffic> timed_traffic;  // traced run only
  vod::sim::Simulation sim;
  std::unique_ptr<vod::net::FluidNetwork> network;
  std::unique_ptr<vod::service::VodService> service;
  std::unique_ptr<vod::fault::FaultInjector> faults;
  std::vector<vod::VideoId> titles;
  std::vector<Request> requests;
};

/// Builds the workload for `seed`.  With `spans` set (the traced run) the
/// fluid network sees the workload's traffic model through a TimedTraffic
/// decorator recording into `spans`, which must outlive the scenario.
std::unique_ptr<Scenario> build_scenario(Workload workload,
                                         std::uint64_t seed,
                                         SpanRecorder* spans);

}  // namespace vodbench
