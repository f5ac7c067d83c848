#include "net/trace_io.h"

#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/contract.h"
#include "common/csv.h"
#include "common/table.h"

namespace vod::net {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  fail_require("trace csv line " + std::to_string(line) + ": " + message);
}

std::vector<std::string> split_csv_line(const std::string& line) {
  // The format we emit never quotes fields (link names come from the
  // topology and contain no commas), so a plain split suffices; quoted
  // fields are rejected loudly rather than mis-parsed.
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = line.find(',', start);
    out.push_back(line.substr(
        start, comma == std::string::npos ? comma : comma - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

TraceTraffic load_trace_csv(const std::string& csv_text,
                            const Topology& topology) {
  // Index link names once.
  std::map<std::string, LinkId> by_name;
  for (const LinkInfo& info : topology.links()) {
    by_name.emplace(info.name, info.id);
  }

  TraceTraffic trace;
  std::istringstream in{csv_text};
  std::string line;
  int line_no = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const std::vector<std::string> fields = split_csv_line(line);
    if (!saw_header) {
      if (fields != std::vector<std::string>{"link", "time_s",
                                             "used_mbps"}) {
        fail(line_no, "expected header 'link,time_s,used_mbps'");
      }
      saw_header = true;
      continue;
    }
    if (fields.size() != 3) {
      fail(line_no, "expected 3 fields");
    }
    if (!fields[0].empty() && fields[0].front() == '"') {
      fail(line_no, "quoted link names are not supported");
    }
    const auto link = by_name.find(fields[0]);
    if (link == by_name.end()) {
      fail(line_no, "unknown link '" + fields[0] + "'");
    }
    double time_s = 0.0;
    double used = 0.0;
    try {
      std::size_t pos = 0;
      time_s = std::stod(fields[1], &pos);
      require(pos == fields[1].size(), "t");
      used = std::stod(fields[2], &pos);
      require(pos == fields[2].size(), "u");
    } catch (const std::exception&) {
      fail(line_no, "bad number");
    }
    // std::stod accepts "nan" and "inf"; a trace sample must be finite.
    if (!std::isfinite(time_s) || !std::isfinite(used)) {
      fail(line_no, "non-finite number");
    }
    try {
      trace.add_sample(link->second, SimTime{time_s}, Mbps{used});
    } catch (const std::invalid_argument& error) {
      fail(line_no, error.what());
    }
  }
  require(saw_header, "trace csv: empty input");
  return trace;
}

std::string save_trace_csv(const TrafficModel& traffic,
                           const Topology& topology,
                           const std::vector<SimTime>& sample_times) {
  CsvWriter csv{{"link", "time_s", "used_mbps"}};
  for (const LinkInfo& info : topology.links()) {
    for (const SimTime t : sample_times) {
      csv.add_row({info.name, TextTable::num(t.seconds(), 3),
                   TextTable::num(
                       traffic.background_load(info.id, t).value(), 6)});
    }
  }
  return csv.str();
}

}  // namespace vod::net
