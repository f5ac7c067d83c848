#include "scenario.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>

namespace vodbench {

using namespace vod;

namespace {

// Shared shape of every workload: a 24-site ring with 8 chords, 50 titles
// of 40 MB at 2 Mbps, each seeded at two sites twelve hops apart on the
// ring.  Placement is fixed; the seed only drives arrivals and faults.
constexpr std::size_t kSites = 24;
constexpr std::size_t kTitles = 50;
constexpr double kTitleMb = 40.0;
constexpr double kTitleMbps = 2.0;
// The fault storm is part of the contended scenario, like its topology:
// one fixed script for every seed, so seeds vary only the viewers.
constexpr std::uint64_t kStormSeed = 4242;

/// Open-loop arrivals: Poisson in simulated time, uniform homes, Zipf
/// titles (and, when classed, a fixed class mix), all drawn from the seed.
struct LoadShape {
  double start_s = 0.0;
  double window_s = 0.0;
  double rate_per_s = 0.0;
  bool classed = false;
};

struct WorkloadSpec {
  double link_mbps = 10'000.0;
  double cluster_mb = 10.0;
  double snmp_interval_s = 90.0;
  std::uint64_t dma_threshold = std::numeric_limits<std::uint64_t>::max();
  LoadShape load;
  bool contended = false;
};

WorkloadSpec spec_of(Workload workload) {
  WorkloadSpec spec;
  switch (workload) {
    case Workload::kRemoteWide:
      // ~35 req/s x 40 s remote downloads: ~1.3k concurrent flows.
      spec.load = {.start_s = 1.0, .window_s = 150.0, .rate_per_s = 35.0};
      break;
    case Workload::kLocalChurn:
      // Every home stores a title on its first request there, so sessions
      // are local and pathless: 4 s downloads at 100 req/s.
      spec.dma_threshold = 0;
      spec.load = {.start_s = 1.0, .window_s = 400.0, .rate_per_s = 100.0};
      break;
    case Workload::kContendedStorm:
      spec.link_mbps = 155.0;
      spec.cluster_mb = 4.0;
      spec.snmp_interval_s = 30.0;
      spec.dma_threshold = 3;
      spec.load = {.start_s = 60.0,
                   .window_s = 4800.0,
                   .rate_per_s = 4.0,
                   .classed = true};
      spec.contended = true;
      break;
  }
  return spec;
}

/// splitmix64: decorrelates the sub-seeds derived from the run seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform [0, 1) from the top 53 bits (portable, unlike std::*_distribution).
double unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

std::vector<Request> generate_requests(const LoadShape& shape,
                                       std::size_t homes, std::size_t titles,
                                       std::uint64_t seed) {
  constexpr double kZipfAlpha = 0.8;
  std::mt19937_64 rng{mix(seed)};
  std::vector<double> cdf(titles);
  double total = 0.0;
  for (std::size_t r = 0; r < titles; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfAlpha);
    cdf[r] = total;
  }
  // Premium 20%, standard 50%, background 30%.
  constexpr double kPremium = 0.2;
  constexpr double kStandard = 0.7;

  std::vector<Request> requests;
  requests.reserve(static_cast<std::size_t>(shape.rate_per_s *
                                            shape.window_s * 1.1));
  const double end = shape.start_s + shape.window_s;
  double t = shape.start_s;
  for (;;) {
    t += -std::log1p(-unit(rng)) / shape.rate_per_s;
    if (t >= end) break;
    Request r;
    r.at = t;
    r.home = NodeId{static_cast<NodeId::underlying_type>(
        std::min(homes - 1, static_cast<std::size_t>(unit(rng) * homes)))};
    const double z = unit(rng) * total;
    r.title = std::min<std::size_t>(
        titles - 1, static_cast<std::size_t>(
                        std::upper_bound(cdf.begin(), cdf.end(), z) -
                        cdf.begin()));
    if (shape.classed) {
      const double c = unit(rng);
      r.cls = c < kPremium    ? UserClass::kPremium
              : c < kStandard ? UserClass::kStandard
                              : UserClass::kBackground;
    }
    requests.push_back(r);
  }
  return requests;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::kRemoteWide, Workload::kLocalChurn,
                           Workload::kContendedStorm}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kRemoteWide:
      return "remote_wide";
    case Workload::kLocalChurn:
      return "local_churn";
    case Workload::kContendedStorm:
      return "contended_storm";
  }
  return "?";
}

std::unique_ptr<Scenario> build_scenario(Workload workload,
                                         std::uint64_t seed,
                                         SpanRecorder* spans) {
  const WorkloadSpec spec = spec_of(workload);
  auto s = std::make_unique<Scenario>();
  s->classed = spec.load.classed;

  std::vector<NodeId> sites;
  for (std::size_t i = 0; i < kSites; ++i) {
    sites.push_back(s->topology.add_node("s" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < kSites; ++i) {
    s->topology.add_link(sites[i], sites[(i + 1) % kSites],
                         Mbps{spec.link_mbps});
  }
  for (std::size_t i = 0; i < kSites; i += 3) {
    s->topology.add_link(sites[i], sites[(i + 7) % kSites],
                         Mbps{spec.link_mbps});
  }

  if (spec.contended) {
    // Background load peaks mid-window: the busiest links saturate there.
    auto diurnal = std::make_unique<net::DiurnalTraffic>(
        (spec.load.start_s + spec.load.window_s / 2.0) / 3600.0);
    for (const net::LinkInfo& link : s->topology.links()) {
      diurnal->set_shape(link.id, {link.capacity, 0.25, 0.6});
    }
    s->traffic = std::move(diurnal);
  } else {
    s->traffic = std::make_unique<net::NoTraffic>();
  }
  const net::TrafficModel* traffic = s->traffic.get();
  if (spans != nullptr) {
    s->timed_traffic = std::make_unique<TimedTraffic>(*s->traffic, *spans);
    traffic = s->timed_traffic.get();
  }
  s->network = std::make_unique<net::FluidNetwork>(s->topology, *traffic);

  service::ServiceOptions options;
  options.cluster_size = MegaBytes{spec.cluster_mb};
  options.snmp_interval_seconds = spec.snmp_interval_s;
  options.dma.admission_threshold = spec.dma_threshold;
  options.retention = service::SessionRetention::kCountersOnly;
  if (spec.contended) {
    // Small disks so DMA stores evict; QoS classes with preemption; failed
    // sessions retry twice.
    options.server.disk_count = 4;
    options.server.disk_profile.capacity = MegaBytes{200.0};
    options.qos.enabled = true;
    options.failover.retry_limit = 2;
    options.failover.retry_backoff_seconds = 20.0;
  }
  s->service = std::make_unique<service::VodService>(
      s->sim, s->topology, *s->network, options,
      db::AdminCredential{"perfbench"});
  for (std::size_t v = 0; v < kTitles; ++v) {
    const VideoId id = s->service->add_video(
        "title" + std::to_string(v), MegaBytes{kTitleMb}, Mbps{kTitleMbps});
    s->service->place_initial_copy(sites[(7 * v) % kSites], id);
    s->service->place_initial_copy(sites[(7 * v + 12) % kSites], id);
    s->titles.push_back(id);
  }
  s->service->start();

  s->requests = generate_requests(spec.load, kSites, kTitles, seed);
  const double window_end = spec.load.start_s + spec.load.window_s;
  s->drain_limit_s = window_end + 3600.0;
  if (spec.contended) {
    s->faults = std::make_unique<fault::FaultInjector>(s->sim, *s->service);
    fault::FaultScheduleOptions storm;
    storm.horizon_seconds = window_end;
    storm.link_mtbf_seconds = 900.0;
    storm.link_mttr_seconds = 60.0;
    storm.server_mtbf_seconds = 1800.0;
    storm.server_mttr_seconds = 120.0;
    s->faults->schedule_random(storm, kStormSeed);
  }
  return s;
}

}  // namespace vodbench
