// Scale study: beyond the paper's 6-node case.
//
// Default mode: a 12-node two-tier national backbone (3 core nodes in a
// 34 Mbps triangle, 9 access sites on 2-10 Mbps spurs), synthetic diurnal
// background traffic, a Zipf catalog with 2 replicas per title, and one
// day of diurnally-arriving requests — comparing the VRA against the
// baselines at a size the authors' testbed could not reach.
//
// --scale-gate [--full] [--out PATH]: the resident-memory gate.  The real
// VodService under kCountersOnly retention streams local titles in waves
// (100k sessions, 1M with --full); VmRSS is sampled at each wave boundary
// and must stay flat (O(active), not O(total)).  Emits BENCH_scale.json
// and exits non-zero when the gate fails, so scripts/ci.sh runs it as part
// of the perf tier.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/selection_baselines.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "grnet/grnet.h"
#include "net/transfer.h"
#include "service/vod_service.h"
#include "snmp/snmp_module.h"
#include "stream/session.h"
#include "workload/request_gen.h"

using namespace vod;

namespace {

struct Network {
  net::Topology topo;
  std::vector<NodeId> cores;
  std::vector<NodeId> edges;
};

Network build_network() {
  Network n;
  for (int c = 0; c < 3; ++c) {
    n.cores.push_back(n.topo.add_node("core" + std::to_string(c)));
  }
  n.topo.add_link(n.cores[0], n.cores[1], Mbps{34.0});
  n.topo.add_link(n.cores[1], n.cores[2], Mbps{34.0});
  n.topo.add_link(n.cores[2], n.cores[0], Mbps{34.0});
  for (int e = 0; e < 9; ++e) {
    const NodeId edge = n.topo.add_node("edge" + std::to_string(e));
    n.edges.push_back(edge);
    // Mixed access speeds: 2, 6, 10 Mbps.
    const double capacity = 2.0 + 4.0 * (e % 3);
    n.topo.add_link(n.cores[e % 3], edge, Mbps{capacity});
  }
  return n;
}

struct RunResult {
  SampleSet download_seconds;
  int qos_ok = 0;
  int finished = 0;
  int failed = 0;
  int switches = 0;
};

enum class Policy { kVra, kNearest, kRandom };

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kVra:
      return "VRA (+50% hysteresis)";
    case Policy::kNearest:
      return "nearest-by-hops";
    case Policy::kRandom:
      return "random holder";
  }
  return "?";
}

RunResult run(Policy which, bench::ObsScope& obs) {
  const Network n = build_network();
  net::DiurnalTraffic traffic{14.0};
  for (const net::LinkInfo& info : n.topo.links()) {
    traffic.set_shape(info.id, {.capacity = info.capacity,
                                .base_fraction = 0.10,
                                .peak_fraction = 0.60});
  }
  // One hot core trunk (a transit exchange): hop-count routing keeps
  // using it; load-aware routing detours over the other two core links.
  const LinkId hot = *n.topo.find_link(n.cores[0], n.cores[1]);
  traffic.set_shape(hot, {.capacity = Mbps{34.0},
                          .base_fraction = 0.55,
                          .peak_fraction = 0.97});
  sim::Simulation sim;
  obs.bind_clock([&sim] { return sim.now(); });
  net::FluidNetwork network{n.topo, traffic};
  net::TransferManager transfers{sim, network};

  db::Database db{bench::kAdmin};
  for (std::size_t i = 0; i < n.topo.node_count(); ++i) {
    const NodeId node{static_cast<NodeId::underlying_type>(i)};
    db.register_server(node, n.topo.node_name(node), {});
  }
  for (const net::LinkInfo& info : n.topo.links()) {
    db.register_link(info.id, info.name, info.capacity);
  }
  snmp::SnmpModule snmp{sim, network, db.limited_view(bench::kAdmin), Duration{90.0}};
  snmp.poll_now(SimTime{0.0});
  snmp.start();

  // 30 titles, 2 replicas, placed round-robin with a rank offset so
  // popular titles sit on different servers.
  std::vector<VideoId> videos;
  std::vector<db::VideoInfo> infos;
  auto view = db.limited_view(bench::kAdmin);
  for (int v = 0; v < 30; ++v) {
    const VideoId id = db.register_video("t" + std::to_string(v),
                                         MegaBytes{120.0}, Mbps{1.5});
    videos.push_back(id);
    infos.push_back(*db.full_view().video(id));
    view.add_title(NodeId{static_cast<NodeId::underlying_type>(v % 12)},
                   id);
    view.add_title(
        NodeId{static_cast<NodeId::underlying_type>((v + 5) % 12)}, id);
  }

  vra::Vra vra{n.topo, db.full_view(), db.limited_view(bench::kAdmin), {}};
  stream::VraPolicy vra_policy{vra, 0.5};
  baselines::NearestByHopsPolicy nearest{n.topo, db.full_view(),
                                         db.limited_view(bench::kAdmin)};
  baselines::RandomHolderPolicy random{n.topo, db.full_view(),
                                       db.limited_view(bench::kAdmin),
                                       Rng{4242}};
  stream::ServerSelectionPolicy* policy = nullptr;
  switch (which) {
    case Policy::kVra:
      policy = &vra_policy;
      break;
    case Policy::kNearest:
      policy = &nearest;
      break;
    case Policy::kRandom:
      policy = &random;
      break;
  }

  // One day of requests, evening-peaked, from the edge sites only.
  workload::RequestGenerator gen{videos, 1.0, n.edges};
  Rng rng{77};
  const auto requests = gen.generate_diurnal(
      from_hours(0.0), hours(24.0), 80.0 / 86400.0, 20.0, 4.0, rng);

  std::vector<std::unique_ptr<stream::Session>> sessions;
  for (const workload::Request& request : requests) {
    sim.schedule_at(request.at, [&, request](SimTime) {
      auto session = std::make_unique<stream::Session>(
          sim, transfers, *policy, infos[request.video.value()],
          request.home, MegaBytes{30.0});
      session->start();
      sessions.push_back(std::move(session));
    });
  }
  sim.run_until(from_hours(48.0));
  snmp.stop();
  obs.bind_clock(nullptr);

  RunResult result;
  for (const auto& session : sessions) {
    const stream::SessionMetrics& m = session->metrics();
    if (m.failed || !m.finished) {
      ++result.failed;
      continue;
    }
    ++result.finished;
    result.download_seconds.add(*m.download_completed_at - m.requested_at);
    result.switches += m.server_switches;
    if (m.meets_qos_floor(Mbps{1.5})) ++result.qos_ok;
  }
  return result;
}

// ---------------------------------------------------------------------
// --scale-gate: resident memory across real-service churn.
// ---------------------------------------------------------------------

/// VmRSS / VmHWM (kB) from /proc/self/status; 0 when unavailable.
std::size_t proc_status_kb(const char* key) {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      std::size_t kb = 0;
      for (const char c : line) {
        if (c >= '0' && c <= '9') kb = kb * 10 + static_cast<std::size_t>(c - '0');
      }
      return kb;
    }
  }
  return 0;
}

struct ChurnResult {
  std::size_t total_sessions = 0;
  std::vector<std::size_t> wave_rss_kb;  // sampled at each wave boundary
  std::size_t peak_rss_kb = 0;
  std::size_t growth_kb = 0;  // wave 2 boundary -> last boundary
  bool flat = false;
};

/// Real-service churn: waves of local streams under kCountersOnly
/// retention.  Home holds the title, so every flow is pathless (the
/// all-local fast path) and the run measures the session machinery, not
/// the fluid solver.  Memory must be O(active ~2k), not O(total).
ChurnResult run_service_churn(std::size_t total_sessions,
                              bench::ObsScope& obs) {
  grnet::CaseStudy g = grnet::build_case_study();
  net::NoTraffic traffic;
  sim::Simulation sim;
  obs.bind_clock([&sim] { return sim.now(); });
  net::FluidNetwork network{g.topology, traffic};
  service::ServiceOptions options;
  options.cluster_size = MegaBytes{10.0};
  options.dma.admission_threshold = 1'000'000;
  options.retention = service::SessionRetention::kCountersOnly;
  service::VodService service{sim, g.topology, network, options,
                              bench::kAdmin};
  // Telemetry v2 watches the churn phase: --series-out turns the
  // service.active_sessions gauge into a trajectory that shows the
  // O(active) plateau the RSS gate asserts numerically.  No-op without a
  // v2 flag.
  obs.bind_registry(service.metrics());
  const VideoId movie =
      service.add_video("movie", MegaBytes{10.0}, Mbps{2.0});
  service.place_initial_copy(g.patra, movie);
  service.start();

  // 10 MB @ 2 Mbps = 40 s playback; one request every 20 ms holds ~2000
  // sessions concurrent regardless of the total churned through.
  constexpr double kSpacing = 0.02;
  constexpr std::size_t kWaves = 5;
  const std::size_t per_wave = total_sessions / kWaves;

  ChurnResult result;
  result.total_sessions = per_wave * kWaves;
  double t = 1.0;
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    for (std::size_t s = 0; s < per_wave; ++s) {
      sim.schedule_at(SimTime{t}, [&service, &g, movie](SimTime) {
        service.request_at(g.patra, movie);
      });
      t += kSpacing;
    }
    // Sample resident memory at the wave boundary (steady-state churn).
    sim.schedule_at(SimTime{t}, [&result](SimTime) {
      result.wave_rss_kb.push_back(proc_status_kb("VmRSS:"));
    });
  }
  sim.run_until(SimTime{t + 100.0});
  obs.unbind_registry();
  obs.bind_clock(nullptr);

  result.peak_rss_kb = proc_status_kb("VmHWM:");
  // Wave 1 still pays one-time warm-up (pools, allocator arenas, metric
  // registries); flatness is judged from the second boundary on.
  const std::size_t base = result.wave_rss_kb[1];
  const std::size_t last = result.wave_rss_kb.back();
  result.growth_kb = last > base ? last - base : 0;
  // "Flat": the remaining waves (3/5 of all sessions) add less than 10% of
  // steady state plus a fixed allowance for allocator noise.
  result.flat = result.growth_kb < base / 10 + 4096;
  return result;
}

void write_gate_json(const std::string& path, const ChurnResult& churn) {
  std::ofstream out{path};
  out << "{\n  \"service_churn\": {\"total_sessions\": "
      << churn.total_sessions << ", \"wave_rss_kb\": [";
  for (std::size_t i = 0; i < churn.wave_rss_kb.size(); ++i) {
    out << (i > 0 ? ", " : "") << churn.wave_rss_kb[i];
  }
  out << "], \"growth_kb\": " << churn.growth_kb
      << ", \"peak_rss_kb\": " << churn.peak_rss_kb
      << ", \"flat\": " << (churn.flat ? "true" : "false") << "},\n";
  out << "  \"gates\": {\"pass\": " << (churn.flat ? "true" : "false")
      << "}\n}\n";
}

int run_scale_gate(bool full, const std::string& out_path,
                   bench::ObsScope& obs) {
  bench::heading("Session-store scale gate: resident memory under churn");
  const std::size_t churn_total = full ? 1'000'000 : 100'000;
  const ChurnResult churn = run_service_churn(churn_total, obs);
  std::cout << "Service churn (" << churn.total_sessions
            << " sessions, kCountersOnly, ~2k concurrent):\n  RSS at wave "
               "boundaries (kB):";
  for (const std::size_t kb : churn.wave_rss_kb) std::cout << " " << kb;
  std::cout << "\n  growth after warm-up: " << churn.growth_kb
            << " kB; peak RSS " << churn.peak_rss_kb << " kB\n";

  if (!churn.flat) {
    std::cerr << "FAIL: resident memory grew " << churn.growth_kb
              << " kB across post-warm-up churn waves (not O(active))\n";
  }
  write_gate_json(out_path, churn);
  std::cout << (churn.flat ? "\nPASS" : "\nFAIL") << " — wrote " << out_path
            << "\n";
  return churn.flat ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsScope obs{argc, argv};
  bool scale_gate = false;
  bool full = false;
  std::string out_path = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg{argv[i]};
    if (arg == "--scale-gate") scale_gate = true;
    if (arg == "--full") full = true;
    if (arg == "--out" && i + 1 < argc) out_path = argv[++i];
  }
  if (scale_gate) return run_scale_gate(full, out_path, obs);

  bench::heading("Scale study: 12-node two-tier backbone, one day");
  std::cout << "30 titles x 120 MB @1.5 Mbps, 2 replicas; ~80 "
               "evening-peaked requests from\n9 access sites; diurnal "
               "background 10-60% of capacity; cluster 30 MB\n\n";

  TextTable table{{"Policy", "finished", "failed", "DL median (s)",
                   "DL p95 (s)", "QoS-ok %", "switches"}};
  for (const Policy policy :
       {Policy::kVra, Policy::kNearest, Policy::kRandom}) {
    const RunResult r = run(policy, obs);
    const double qos_share =
        r.finished > 0 ? 100.0 * r.qos_ok / r.finished : 0.0;
    table.add_row({policy_name(policy), std::to_string(r.finished),
                   std::to_string(r.failed),
                   TextTable::num(r.download_seconds.median(), 0),
                   TextTable::num(r.download_seconds.quantile(0.95), 0),
                   TextTable::num(qos_share, 0),
                   std::to_string(r.switches)});
  }
  std::cout << table.render();
  std::cout << "\nExpected shape: at this scale the tail (p95) separates "
               "the policies — the\nVRA's load awareness avoids the slow "
               "2 Mbps spurs when a core replica is\nreachable, while "
               "random selection keeps landing on them.\n";
  return 0;
}
