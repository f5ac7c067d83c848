// Admission control vs best-effort overload — the enforcement half of the
// paper's QoS goal.
//
// The offered load is swept past what the GRNET backbone can carry.  Without
// admission every request is started and all sessions degrade together; with
// the residual-bandwidth check the service sheds the excess and the admitted
// sessions keep the paper's "minimum decent" rate.
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "service/vod_service.h"
#include "workload/request_gen.h"

using namespace vod;

namespace {

struct RunResult {
  int offered = 0;
  int started = 0;
  int rejected = 0;
  int qos_ok = 0;  // finished sessions meeting the bitrate floor
  double mean_rate_mbps = 0.0;
};

RunResult run(bool with_admission, int request_count) {
  const grnet::CaseStudy g = grnet::build_case_study();
  const net::TraceTraffic trace = grnet::table2_trace(g);
  sim::Simulation sim;
  net::FluidNetwork network{g.topology, trace};

  service::ServiceOptions options;
  options.cluster_size = MegaBytes{25.0};
  options.dma.admission_threshold = 1'000'000;  // isolate routing effects
  service::VodService service{sim, g.topology, network, options,
                              bench::kAdmin};

  std::vector<VideoId> videos;
  for (int v = 0; v < 10; ++v) {
    videos.push_back(service.add_video("t" + std::to_string(v),
                                       MegaBytes{100.0}, Mbps{1.5}));
  }
  for (int v = 0; v < 10; ++v) {
    service.place_initial_copy(
        NodeId{static_cast<NodeId::underlying_type>(v % 6)}, videos[v]);
    service.place_initial_copy(
        NodeId{static_cast<NodeId::underlying_type>((v + 2) % 6)},
        videos[v]);
  }
  service.start();

  std::vector<NodeId> homes;
  for (std::size_t n = 0; n < 6; ++n) {
    homes.push_back(NodeId{static_cast<NodeId::underlying_type>(n)});
  }
  workload::RequestGenerator gen{videos, 1.0, homes};
  Rng rng{11};
  const auto requests = gen.generate_count(
      from_hours(9.0), hours(2.0), static_cast<std::size_t>(request_count),
      rng);

  RunResult result;
  result.offered = request_count;
  std::vector<SessionId> ids;
  for (const workload::Request& request : requests) {
    sim.schedule_at(request.at, [&, request](SimTime) {
      if (with_admission) {
        const auto outcome =
            service.request_classed(request.home, request.video,
                                    UserClass::kStandard, /*headroom=*/1.0);
        if (outcome.session) {
          ids.push_back(*outcome.session);
        } else {
          ++result.rejected;
        }
      } else {
        ids.push_back(service.request_at(request.home, request.video));
      }
    });
  }
  sim.run_until(from_hours(30.0));

  result.started = static_cast<int>(ids.size());
  for (const SessionId id : ids) {
    const stream::SessionMetrics& m = service.session_metrics(id);
    if (!m.finished) continue;
    result.mean_rate_mbps += m.mean_delivered_rate.value();
    if (m.meets_qos_floor(Mbps{1.5})) ++result.qos_ok;
  }
  if (result.started > 0) result.mean_rate_mbps /= result.started;
  return result;
}

}  // namespace

int main() {
  bench::heading("Admission control vs best-effort overload");
  std::cout << "10 titles x 100 MB @1.5 Mbps, 2 replicas; requests packed "
               "into 9-11am;\nQoS floor = the encoding bitrate (no "
               "rebuffer, mean rate >= 1.5 Mbps)\n\n";

  TextTable table{{"Offered", "mode", "started", "rejected", "QoS-ok",
                   "QoS-ok %", "mean rate (Mbps)"}};
  for (const int offered : {5, 15, 30, 60}) {
    for (const bool with_admission : {false, true}) {
      const RunResult r = run(with_admission, offered);
      const double share =
          r.started > 0
              ? 100.0 * static_cast<double>(r.qos_ok) / r.started
              : 0.0;
      table.add_row({std::to_string(r.offered),
                     with_admission ? "admission" : "best-effort",
                     std::to_string(r.started),
                     std::to_string(r.rejected),
                     std::to_string(r.qos_ok), TextTable::num(share, 0),
                     TextTable::num(r.mean_rate_mbps, 2)});
    }
  }
  std::cout << table.render();
  std::cout << "\nExpected shape: identical at light load; past the knee "
               "the best-effort\nservice starts everything and the QoS-ok "
               "share collapses, while admission\ntrades rejections for "
               "keeping the admitted sessions above the floor.\n";
  return 0;
}
