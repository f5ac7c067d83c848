#include "net/trace_io.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "grnet/grnet.h"

namespace vod::net {
namespace {

Topology two_link_topology() {
  Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  const NodeId c = topo.add_node("c");
  topo.add_link(a, b, Mbps{2.0}, "a-b");
  topo.add_link(b, c, Mbps{18.0}, "b-c");
  return topo;
}

TEST(TraceIo, LoadsSamplesPerLink) {
  const Topology topo = two_link_topology();
  const TraceTraffic trace = load_trace_csv(
      "link,time_s,used_mbps\n"
      "a-b,0,0.5\n"
      "a-b,100,1.5\n"
      "b-c,50,9.0\n",
      topo);
  EXPECT_NEAR(trace.background_load(LinkId{0}, SimTime{0.0}).value(), 0.5,
              1e-12);
  EXPECT_NEAR(trace.background_load(LinkId{0}, SimTime{150.0}).value(),
              1.5, 1e-12);
  EXPECT_NEAR(trace.background_load(LinkId{1}, SimTime{60.0}).value(), 9.0,
              1e-12);
}

TEST(TraceIo, HandlesCrlfAndBlankLines) {
  const Topology topo = two_link_topology();
  const TraceTraffic trace = load_trace_csv(
      "link,time_s,used_mbps\r\n\na-b,0,0.5\r\n", topo);
  EXPECT_NEAR(trace.background_load(LinkId{0}, SimTime{0.0}).value(), 0.5,
              1e-12);
}

TEST(TraceIo, RejectsMissingHeader) {
  const Topology topo = two_link_topology();
  EXPECT_THROW(load_trace_csv("a-b,0,0.5\n", topo), std::invalid_argument);
  EXPECT_THROW(load_trace_csv("", topo), std::invalid_argument);
}

TEST(TraceIo, RejectsUnknownLink) {
  const Topology topo = two_link_topology();
  EXPECT_THROW(
      load_trace_csv("link,time_s,used_mbps\nghost,0,1\n", topo),
      std::invalid_argument);
}

TEST(TraceIo, RejectsMalformedRows) {
  const Topology topo = two_link_topology();
  EXPECT_THROW(load_trace_csv("link,time_s,used_mbps\na-b,0\n", topo),
               std::invalid_argument);
  EXPECT_THROW(
      load_trace_csv("link,time_s,used_mbps\na-b,zero,1\n", topo),
      std::invalid_argument);
  EXPECT_THROW(
      load_trace_csv("link,time_s,used_mbps\na-b,0,-1\n", topo),
      std::invalid_argument);  // negative load (TraceTraffic rule)
  EXPECT_THROW(
      load_trace_csv("link,time_s,used_mbps\n\"a-b\",0,1\n", topo),
      std::invalid_argument);  // quoting unsupported, rejected loudly
}

TEST(TraceIo, RejectsNonFiniteNumbers) {
  // std::stod parses "nan"/"inf"; a NaN load used to pass the negative-
  // load rule and abort the run mid-simulation.
  const Topology topo = two_link_topology();
  for (const char* row : {"a-b,0,nan", "a-b,0,inf", "a-b,nan,1",
                          "a-b,inf,1"}) {
    try {
      load_trace_csv(std::string("link,time_s,used_mbps\na-b,-5,1\n") +
                         row + "\n",
                     topo);
      ADD_FAILURE() << "accepted: " << row;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos)
          << error.what();
    }
  }
}

TEST(TraceIo, RejectsOutOfOrderTimes) {
  const Topology topo = two_link_topology();
  EXPECT_THROW(load_trace_csv(
                   "link,time_s,used_mbps\na-b,100,1\na-b,50,2\n", topo),
               std::invalid_argument);
}

TEST(TraceIo, ErrorsCarryLineNumbers) {
  const Topology topo = two_link_topology();
  try {
    load_trace_csv("link,time_s,used_mbps\na-b,0,1\nghost,5,1\n", topo);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos);
  }
}

TEST(TraceIo, SaveLoadRoundTrip) {
  const Topology topo = two_link_topology();
  TraceTraffic original;
  original.add_sample(LinkId{0}, SimTime{0.0}, Mbps{0.25});
  original.add_sample(LinkId{0}, SimTime{60.0}, Mbps{1.75});
  original.add_sample(LinkId{1}, SimTime{0.0}, Mbps{4.0});
  original.add_sample(LinkId{1}, SimTime{60.0}, Mbps{8.0});

  const std::string csv =
      save_trace_csv(original, topo, {SimTime{0.0}, SimTime{60.0}});
  const TraceTraffic loaded = load_trace_csv(csv, topo);
  for (const double t : {0.0, 30.0, 60.0, 120.0}) {
    for (const LinkId link : {LinkId{0}, LinkId{1}}) {
      EXPECT_NEAR(loaded.background_load(link, SimTime{t}).value(),
                  original.background_load(link, SimTime{t}).value(),
                  1e-6);
    }
  }
}

TEST(TraceIo, GrnetTableTwoExportsAndReimports) {
  const grnet::CaseStudy g = grnet::build_case_study();
  const TraceTraffic trace = grnet::table2_trace(g);
  std::vector<SimTime> times;
  for (const grnet::TimeOfDay t : grnet::kAllTimes) {
    times.push_back(grnet::time_of(t));
  }
  const std::string csv = save_trace_csv(trace, g.topology, times);
  // 7 links x 4 samples + header.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 29);
  const TraceTraffic loaded = load_trace_csv(csv, g.topology);
  EXPECT_NEAR(
      loaded.background_load(g.patra_athens, from_hours(10.0)).value(),
      1.82, 1e-6);
}

}  // namespace
}  // namespace vod::net
