// Fluid-allocator scale bench: indexed progressive filling vs. the naive
// reference, plus indexed vs. naive SNMP link sweeps, at 100 / 1k / 10k
// concurrent flows on a 132-link backbone under diurnal background traffic.
//
// Reports the median ns per full reallocation and per SNMP sweep at each
// scale, asserts the indexed allocator's rates are *bit-identical* to
// reallocate_reference(), and gates on >=5x reallocation speedup and >=10x
// sweep speedup at 10k flows.  Exits non-zero when equality or a floor
// fails, so scripts/ci.sh can use it as the perf tier.
//
// Usage: bench_fluid_alloc [--out PATH]   (default: BENCH_fluid.json)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "net/fluid.h"

using namespace vod;

namespace {

// vodlint:entropy-ok(benchmark harness measures real elapsed time; timings
// are reported, never fed back into simulation state)
using Clock = std::chrono::steady_clock;

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// The bench_vra_incremental backbone: a 24-core ring with cross-chords and
/// four access spurs per core — 132 links.
struct Backbone {
  net::Topology topo;
  std::vector<LinkId> ring;                 // ring[c]: core c -> core c+1
  std::vector<std::vector<LinkId>> spurs;   // spurs[c][s]: core c -> edge
};

Backbone build_backbone() {
  Backbone n;
  constexpr int kCores = 24;
  std::vector<NodeId> cores;
  for (int c = 0; c < kCores; ++c) {
    cores.push_back(n.topo.add_node("core" + std::to_string(c)));
  }
  for (int c = 0; c < kCores; ++c) {
    n.ring.push_back(
        n.topo.add_link(cores[c], cores[(c + 1) % kCores], Mbps{34.0}));
  }
  for (int c = 0; c < kCores; c += 2) {  // chords (background load only)
    n.topo.add_link(cores[c], cores[(c + kCores / 2) % kCores], Mbps{18.0});
  }
  n.spurs.resize(kCores);
  for (int c = 0; c < kCores; ++c) {
    for (int s = 0; s < 4; ++s) {
      const NodeId edge =
          n.topo.add_node("edge" + std::to_string(c) + "_" + std::to_string(s));
      n.spurs[c].push_back(
          n.topo.add_link(cores[c], edge, Mbps{2.0 + 4.0 * (s % 3)}));
    }
  }
  return n;
}

/// Server spur -> clockwise along the ring -> client spur.
std::vector<LinkId> random_path(const Backbone& n, Rng& rng) {
  const auto c1 = static_cast<std::size_t>(rng.uniform_int(0, 23));
  const auto c2 = static_cast<std::size_t>(rng.uniform_int(0, 23));
  std::vector<LinkId> path;
  path.push_back(n.spurs[c1][static_cast<std::size_t>(rng.uniform_int(0, 3))]);
  for (std::size_t c = c1; c != c2; c = (c + 1) % 24) path.push_back(n.ring[c]);
  path.push_back(n.spurs[c2][static_cast<std::size_t>(rng.uniform_int(0, 3))]);
  return path;
}

struct ScaleResult {
  int flows = 0;
  double realloc_indexed_ns = 0.0;
  double realloc_reference_ns = 0.0;
  double snmp_indexed_ns = 0.0;
  double snmp_naive_ns = 0.0;
  bool identical = false;

  [[nodiscard]] double realloc_speedup() const {
    return realloc_reference_ns / realloc_indexed_ns;
  }
  [[nodiscard]] double snmp_speedup() const {
    return snmp_naive_ns / snmp_indexed_ns;
  }
};

ScaleResult run_scale(int flow_count) {
  const Backbone n = build_backbone();
  net::DiurnalTraffic traffic;
  Rng shapes{42};
  for (const net::LinkInfo& info : n.topo.links()) {
    traffic.set_shape(info.id,
                      net::DiurnalTraffic::LinkShape{
                          info.capacity, shapes.uniform(0.05, 0.2),
                          shapes.uniform(0.4, 0.8)});
  }
  net::FluidNetwork network{n.topo, traffic};

  Rng rng{static_cast<std::uint64_t>(flow_count) * 1009 + 1};
  std::vector<std::pair<FlowId, std::vector<LinkId>>> specs;
  {
    // One allocation epoch for the whole ramp-up.
    const net::FluidNetwork::BatchGuard epoch = network.defer_reallocate();
    for (int f = 0; f < flow_count; ++f) {
      std::vector<LinkId> path = random_path(n, rng);
      const Mbps cap{rng.uniform(1.5, 8.0)};
      specs.emplace_back(network.start_flow(path, cap), std::move(path));
    }
  }

  ScaleResult result;
  result.flows = flow_count;

  // --- reallocation: indexed (via clock moves, traffic cache cold each
  // step) vs. the naive reference filler (same state, traffic cache warm —
  // a bias in the reference's favor). ---
  const int indexed_reps = flow_count >= 10000 ? 9 : 25;
  const int reference_reps = flow_count >= 10000 ? 3 : 9;
  double t = 8.0 * 3600.0;
  std::vector<double> samples;
  for (int rep = 0; rep < indexed_reps; ++rep) {
    t += 60.0;
    const auto start = Clock::now();
    network.set_time(SimTime{t});
    samples.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count());
  }
  result.realloc_indexed_ns = median(samples);

  samples.clear();
  std::vector<std::pair<FlowId, Mbps>> reference;
  for (int rep = 0; rep < reference_reps; ++rep) {
    const auto start = Clock::now();
    reference = network.reallocate_reference();
    samples.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count());
  }
  result.realloc_reference_ns = median(samples);

  // Bit-identical rates: the gate that makes the speedup legitimate.
  result.identical = reference.size() == specs.size();
  for (std::size_t i = 0; result.identical && i < specs.size(); ++i) {
    result.identical =
        reference[i].first == specs[i].first &&
        reference[i].second.value() ==
            network.flow_rate(specs[i].first).value();
  }

  // --- SNMP sweep: every link's used_bandwidth, indexed walk vs. the
  // pre-index all-flows scan (background + each crossing flow once, in
  // ascending id order — the identical reduction). ---
  std::vector<Mbps> rates;
  rates.reserve(specs.size());
  for (const auto& [id, path] : specs) rates.push_back(network.flow_rate(id));

  const int sweep_reps = flow_count >= 10000 ? 5 : 25;
  std::vector<Mbps> indexed_used(n.topo.link_count());
  samples.clear();
  for (int rep = 0; rep < sweep_reps; ++rep) {
    const auto start = Clock::now();
    for (const net::LinkInfo& info : n.topo.links()) {
      indexed_used[info.id.value()] = network.used_bandwidth(info.id);
    }
    samples.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count());
  }
  result.snmp_indexed_ns = median(samples);

  std::vector<Mbps> naive_used(n.topo.link_count());
  samples.clear();
  for (int rep = 0; rep < sweep_reps; ++rep) {
    const auto start = Clock::now();
    for (const net::LinkInfo& info : n.topo.links()) {
      Mbps used = network.background(info.id);
      for (std::size_t f = 0; f < specs.size(); ++f) {
        for (const LinkId link : specs[f].second) {
          if (link == info.id) {
            used += rates[f];
            break;
          }
        }
      }
      naive_used[info.id.value()] = std::min(used, info.capacity);
    }
    samples.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count());
  }
  result.snmp_naive_ns = median(samples);

  for (std::size_t l = 0; result.identical && l < naive_used.size(); ++l) {
    result.identical = indexed_used[l].value() == naive_used[l].value();
  }
  return result;
}

void write_json(const std::string& path,
                const std::vector<ScaleResult>& results, bool gates_pass) {
  std::ofstream out{path};
  out << "{\n  \"scales\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScaleResult& r = results[i];
    out << "    {\"flows\": " << r.flows
        << ", \"realloc_indexed_ns\": " << r.realloc_indexed_ns
        << ", \"realloc_reference_ns\": " << r.realloc_reference_ns
        << ", \"realloc_speedup\": " << r.realloc_speedup()
        << ", \"snmp_indexed_ns\": " << r.snmp_indexed_ns
        << ", \"snmp_naive_ns\": " << r.snmp_naive_ns
        << ", \"snmp_speedup\": " << r.snmp_speedup()
        << ", \"bit_identical\": " << (r.identical ? "true" : "false")
        << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"gates\": {\"realloc_floor\": 5.0, \"snmp_floor\": 10.0, "
      << "\"pass\": " << (gates_pass ? "true" : "false") << "}\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  // With --trace-out the timed sections run with the recorder installed,
  // so diffing the timing table against an untraced run measures the
  // tracing overhead at 1k/10k flows (EXPERIMENTS.md quotes it).
  bench::ObsScope obs{argc, argv};
  // --flight-out installs the always-on flight ring as the effective sink
  // instead: the same instrumentation events land in the bounded ring
  // (overwrite-oldest), measuring the black-box recorder's steady-state
  // cost at 1k/10k flows.  No sim clock or registry here — the ring only
  // appends; nothing triggers a dump.  The ObsScope destructor uninstalls.
  if (obs.flight() != nullptr) obs::set_flight_recorder(obs.flight());
  std::string out_path = "BENCH_fluid.json";
  for (int i = 1; i < argc; ++i) {
    if (std::string{argv[i]} == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  bench::heading(
      "Fluid allocator at scale: incidence index vs. naive reference");

  std::vector<ScaleResult> results;
  for (const int flows : {100, 1000, 10000}) {
    results.push_back(run_scale(flows));
  }

  TextTable table{{"flows", "realloc idx (us)", "realloc ref (us)", "speedup",
                   "sweep idx (us)", "sweep naive (us)", "speedup",
                   "bit-identical"}};
  for (const ScaleResult& r : results) {
    table.add_row({std::to_string(r.flows),
                   TextTable::num(r.realloc_indexed_ns / 1e3, 1),
                   TextTable::num(r.realloc_reference_ns / 1e3, 1),
                   TextTable::num(r.realloc_speedup(), 1) + "x",
                   TextTable::num(r.snmp_indexed_ns / 1e3, 1),
                   TextTable::num(r.snmp_naive_ns / 1e3, 1),
                   TextTable::num(r.snmp_speedup(), 1) + "x",
                   r.identical ? "yes" : "NO"});
  }
  std::cout << table.render() << "\n";
  std::cout << "132-link backbone, diurnal background, medians of repeated "
               "solves/sweeps\n";

  const ScaleResult& at_scale = results.back();
  bool ok = true;
  for (const ScaleResult& r : results) {
    if (!r.identical) {
      std::cerr << "FAIL: allocations diverged from reallocate_reference() "
                   "at "
                << r.flows << " flows\n";
      ok = false;
    }
  }
  if (at_scale.realloc_speedup() < 5.0) {
    std::cerr << "FAIL: reallocation speedup "
              << TextTable::num(at_scale.realloc_speedup(), 2)
              << "x below the 5x floor at 10k flows\n";
    ok = false;
  }
  if (at_scale.snmp_speedup() < 10.0) {
    std::cerr << "FAIL: SNMP sweep speedup "
              << TextTable::num(at_scale.snmp_speedup(), 2)
              << "x below the 10x floor at 10k flows\n";
    ok = false;
  }
  std::cout << "reallocation speedup at 10k flows: "
            << TextTable::num(at_scale.realloc_speedup(), 1)
            << "x (floor: 5x); SNMP sweep: "
            << TextTable::num(at_scale.snmp_speedup(), 1)
            << "x (floor: 10x)\n";

  write_json(out_path, results, ok);
  std::cout << "wrote " << out_path << "\n";
  return ok ? 0 : 1;
}
