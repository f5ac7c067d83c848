#include "service/spec.h"

#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "common/contract.h"

namespace vod::service {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  fail_require("line " + std::to_string(line) + ": " + message);
}

/// Splits a line into tokens; double-quoted tokens may contain spaces.
std::vector<std::string> tokenize(const std::string& line, int line_no) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    if (std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
      continue;
    }
    if (line[i] == '#') break;  // comment to end of line
    if (line[i] == '"') {
      const std::size_t close = line.find('"', i + 1);
      if (close == std::string::npos) fail(line_no, "unterminated quote");
      tokens.push_back(line.substr(i + 1, close - i - 1));
      i = close + 1;
    } else {
      std::size_t end = i;
      while (end < line.size() &&
             !std::isspace(static_cast<unsigned char>(line[end])) &&
             line[end] != '#') {
        ++end;
      }
      tokens.push_back(line.substr(i, end - i));
      i = end;
    }
  }
  return tokens;
}

double parse_number(const std::string& token, int line_no,
                    const char* what) {
  double value = 0.0;
  try {
    std::size_t used = 0;
    value = std::stod(token, &used);
    require(used == token.size(), "trailing");
  } catch (const std::exception&) {
    fail(line_no, std::string("bad ") + what + " '" + token + "'");
  }
  // std::stod accepts "nan" and "inf"; no field of a spec may be either
  // (NaN would slip past every `<= 0` range check below).
  if (!std::isfinite(value)) {
    fail(line_no, std::string(what) + " must be finite, got '" + token + "'");
  }
  return value;
}

/// Parses "key=value", checking the key.
double parse_kv(const std::string& token, const char* key, int line_no) {
  const std::string prefix = std::string(key) + "=";
  if (token.rfind(prefix, 0) != 0) {
    fail(line_no, "expected " + prefix + "<number>, got '" + token + "'");
  }
  return parse_number(token.substr(prefix.size()), line_no, key);
}

}  // namespace

ServiceSpec parse_service_spec(const std::string& text) {
  ServiceSpec spec;
  std::map<std::string, NodeId> nodes;
  std::map<std::string, std::size_t> titles;  // -> index into spec.videos

  auto node_of = [&](const std::string& name, int line_no) {
    const auto it = nodes.find(name);
    if (it == nodes.end()) fail(line_no, "unknown node '" + name + "'");
    return it->second;
  };

  std::istringstream in{text};
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::vector<std::string> tokens = tokenize(line, line_no);
    if (tokens.empty()) continue;
    const std::string& keyword = tokens[0];

    if (keyword == "node") {
      if (tokens.size() != 2) fail(line_no, "usage: node <name>");
      if (nodes.contains(tokens[1])) {
        fail(line_no, "duplicate node '" + tokens[1] + "'");
      }
      nodes.emplace(tokens[1], spec.topology.add_node(tokens[1]));
    } else if (keyword == "link") {
      if (tokens.size() != 4) {
        fail(line_no, "usage: link <a> <b> <capacity Mbps>");
      }
      const NodeId a = node_of(tokens[1], line_no);
      const NodeId b = node_of(tokens[2], line_no);
      const double capacity = parse_number(tokens[3], line_no, "capacity");
      if (capacity <= 0.0) fail(line_no, "capacity must be positive");
      spec.topology.add_link(a, b, Mbps{capacity});
    } else if (keyword == "server_defaults" || keyword == "server") {
      // server_defaults disks=N disk_mb=M  — all servers
      // server <node> disks=N disk_mb=M   — one node's override
      const bool per_node = keyword == "server";
      const std::size_t expected = per_node ? 4u : 3u;
      if (tokens.size() != expected) {
        fail(line_no, per_node
                          ? "usage: server <node> disks=<n> disk_mb=<mb>"
                          : "usage: server_defaults disks=<n> disk_mb=<mb>");
      }
      const std::size_t base = per_node ? 2 : 1;
      const double disks = parse_kv(tokens[base], "disks", line_no);
      const double disk_mb = parse_kv(tokens[base + 1], "disk_mb", line_no);
      if (disks < 1.0 || disks != static_cast<int>(disks)) {
        fail(line_no, "disks must be a positive integer");
      }
      if (disk_mb <= 0.0) fail(line_no, "disk_mb must be positive");
      ServerSetup setup;
      setup.disk_count = static_cast<std::size_t>(disks);
      setup.disk_profile.capacity = MegaBytes{disk_mb};
      if (per_node) {
        spec.options.server_overrides[node_of(tokens[1], line_no)] = setup;
      } else {
        setup.disk_profile.transfer_rate =
            spec.options.server.disk_profile.transfer_rate;
        spec.options.server = setup;
      }
    } else if (keyword == "cluster_mb") {
      if (tokens.size() != 2) fail(line_no, "usage: cluster_mb <mb>");
      const double mb = parse_number(tokens[1], line_no, "cluster size");
      if (mb <= 0.0) fail(line_no, "cluster size must be positive");
      spec.options.cluster_size = MegaBytes{mb};
    } else if (keyword == "snmp_interval") {
      if (tokens.size() != 2) fail(line_no, "usage: snmp_interval <s>");
      const double s = parse_number(tokens[1], line_no, "interval");
      if (s <= 0.0) fail(line_no, "interval must be positive");
      spec.options.snmp_interval_seconds = s;
    } else if (keyword == "parity") {
      if (tokens.size() != 2 || (tokens[1] != "on" && tokens[1] != "off")) {
        fail(line_no, "usage: parity on|off");
      }
      spec.options.server.striping = tokens[1] == "on"
                                         ? storage::StripingMode::kParity
                                         : storage::StripingMode::kPlain;
    } else if (keyword == "dma_threshold") {
      if (tokens.size() != 2) fail(line_no, "usage: dma_threshold <n>");
      const double n = parse_number(tokens[1], line_no, "threshold");
      if (n < 0.0 || n != static_cast<std::uint64_t>(n)) {
        fail(line_no, "threshold must be a non-negative integer");
      }
      spec.options.dma.admission_threshold =
          static_cast<std::uint64_t>(n);
    } else if (keyword == "subnet") {
      if (tokens.size() != 3) fail(line_no, "usage: subnet <cidr> <node>");
      node_of(tokens[2], line_no);  // validate now
      spec.subnets.emplace_back(tokens[1], tokens[2]);
    } else if (keyword == "video") {
      if (tokens.size() != 4) {
        fail(line_no, "usage: video \"title\" size_mb=<mb> bitrate=<Mbps>");
      }
      if (titles.contains(tokens[1])) {
        fail(line_no, "duplicate title '" + tokens[1] + "'");
      }
      const double size_mb = parse_kv(tokens[2], "size_mb", line_no);
      const double bitrate = parse_kv(tokens[3], "bitrate", line_no);
      if (size_mb <= 0.0 || bitrate <= 0.0) {
        fail(line_no, "size and bitrate must be positive");
      }
      titles.emplace(tokens[1], spec.videos.size());
      spec.videos.push_back(ServiceSpec::VideoEntry{
          tokens[1], MegaBytes{size_mb}, Mbps{bitrate}});
    } else if (keyword == "place") {
      if (tokens.size() != 3) fail(line_no, "usage: place \"title\" <node>");
      if (!titles.contains(tokens[1])) {
        fail(line_no, "unknown title '" + tokens[1] + "'");
      }
      node_of(tokens[2], line_no);
      spec.placements.emplace_back(tokens[1], tokens[2]);
    } else {
      fail(line_no, "unknown keyword '" + keyword + "'");
    }
  }
  // `parity` is deployment-wide: apply it to per-node overrides too,
  // regardless of the order the lines appeared in.
  for (auto& [node, setup] : spec.options.server_overrides) {
    setup.striping = spec.options.server.striping;
  }
  return spec;
}

std::map<std::string, VideoId> initialize_from_spec(const ServiceSpec& spec,
                                                    VodService& service) {
  std::map<std::string, VideoId> videos;
  for (const ServiceSpec::VideoEntry& entry : spec.videos) {
    videos.emplace(entry.title, service.add_video(entry.title, entry.size,
                                                  entry.bitrate));
  }
  for (const auto& [cidr, node_name] : spec.subnets) {
    const auto node = service.topology().find_node(node_name);
    require(
        node,
        [&] { return "initialize_from_spec: service topology lacks node " + node_name; });
    service.ip_directory().add_subnet(cidr, *node);
  }
  for (const auto& [title, node_name] : spec.placements) {
    const auto node = service.topology().find_node(node_name);
    require(
        node,
        [&] { return "initialize_from_spec: service topology lacks node " + node_name; });
    service.place_initial_copy(*node, videos.at(title));
  }
  return videos;
}

}  // namespace vod::service
