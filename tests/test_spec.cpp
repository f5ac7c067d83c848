#include "service/spec.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "net/traffic.h"

namespace vod::service {
namespace {

const db::AdminCredential kAdmin{"secret"};

const char* kGoodSpec = R"(
# A three-campus deployment
node alpha
node beta
node gamma
link alpha beta 10
link beta gamma 2      # slow leg
server_defaults disks=4 disk_mb=4096
cluster_mb 25
snmp_interval 60
subnet 10.1.0.0/16 alpha
subnet 10.3.0.0/16 gamma
video "big buck bunny" size_mb=700 bitrate=2
video "sintel" size_mb=500 bitrate=1.5
place "big buck bunny" beta
place "sintel" gamma
)";

TEST(SpecParser, ParsesTopology) {
  const ServiceSpec spec = parse_service_spec(kGoodSpec);
  EXPECT_EQ(spec.topology.node_count(), 3u);
  EXPECT_EQ(spec.topology.link_count(), 2u);
  ASSERT_TRUE(spec.topology.find_node("beta").has_value());
  const auto link = spec.topology.find_link(*spec.topology.find_node("alpha"),
                                            *spec.topology.find_node("beta"));
  ASSERT_TRUE(link.has_value());
  EXPECT_EQ(spec.topology.link(*link).capacity, Mbps{10.0});
}

TEST(SpecParser, ParsesOptions) {
  const ServiceSpec spec = parse_service_spec(kGoodSpec);
  EXPECT_EQ(spec.options.server.disk_count, 4u);
  EXPECT_EQ(spec.options.server.disk_profile.capacity, MegaBytes{4096.0});
  EXPECT_EQ(spec.options.cluster_size, MegaBytes{25.0});
  EXPECT_DOUBLE_EQ(spec.options.snmp_interval_seconds, 60.0);
}

TEST(SpecParser, PerNodeServerOverrides) {
  const ServiceSpec spec = parse_service_spec(
      "node big\n"
      "node small\n"
      "server_defaults disks=8 disk_mb=9000\n"
      "server small disks=2 disk_mb=1000\n");
  EXPECT_EQ(spec.options.server.disk_count, 8u);
  const auto small = spec.topology.find_node("small");
  ASSERT_TRUE(small.has_value());
  ASSERT_TRUE(spec.options.server_overrides.contains(*small));
  EXPECT_EQ(spec.options.server_overrides.at(*small).disk_count, 2u);
  EXPECT_EQ(
      spec.options.server_overrides.at(*small).disk_profile.capacity,
      MegaBytes{1000.0});
  EXPECT_THROW(parse_service_spec("server ghost disks=1 disk_mb=10\n"),
               std::invalid_argument);
}

TEST(SpecEndToEnd, OverriddenServerHasSmallerArray) {
  const ServiceSpec spec = parse_service_spec(
      "node big\n"
      "node small\n"
      "link big small 10\n"
      "server_defaults disks=8 disk_mb=9000\n"
      "server small disks=2 disk_mb=1000\n");
  net::NoTraffic traffic;
  sim::Simulation sim;
  net::FluidNetwork network{spec.topology, traffic};
  VodService service{sim, spec.topology, network, spec.options, kAdmin};
  const auto big = *spec.topology.find_node("big");
  const auto small = *spec.topology.find_node("small");
  EXPECT_EQ(service.dma_cache(big).disks().disk_count(), 8u);
  EXPECT_EQ(service.dma_cache(small).disks().disk_count(), 2u);
  EXPECT_EQ(service.admin_view().server(small).config.disk_count, 2);
}

TEST(SpecParser, ParsesParityToggle) {
  EXPECT_EQ(parse_service_spec("parity on\n").options.server.striping,
            storage::StripingMode::kParity);
  EXPECT_EQ(parse_service_spec("parity off\n").options.server.striping,
            storage::StripingMode::kPlain);
  EXPECT_THROW(parse_service_spec("parity maybe\n"),
               std::invalid_argument);
}

TEST(SpecParser, ParsesDmaThreshold) {
  const ServiceSpec spec = parse_service_spec("dma_threshold 3\n");
  EXPECT_EQ(spec.options.dma.admission_threshold, 3u);
  EXPECT_THROW(parse_service_spec("dma_threshold -1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_service_spec("dma_threshold 1.5\n"),
               std::invalid_argument);
}

TEST(SpecParser, ParsesCatalogAndPlacements) {
  const ServiceSpec spec = parse_service_spec(kGoodSpec);
  ASSERT_EQ(spec.videos.size(), 2u);
  EXPECT_EQ(spec.videos[0].title, "big buck bunny");
  EXPECT_EQ(spec.videos[0].size, MegaBytes{700.0});
  EXPECT_EQ(spec.videos[1].bitrate, Mbps{1.5});
  ASSERT_EQ(spec.subnets.size(), 2u);
  EXPECT_EQ(spec.subnets[0].first, "10.1.0.0/16");
  ASSERT_EQ(spec.placements.size(), 2u);
  EXPECT_EQ(spec.placements[1], (std::pair<std::string, std::string>{
                                    "sintel", "gamma"}));
}

TEST(SpecParser, CommentsAndBlankLinesIgnored) {
  const ServiceSpec spec = parse_service_spec(
      "# only comments\n\n   \nnode solo  # trailing comment\n");
  EXPECT_EQ(spec.topology.node_count(), 1u);
}

TEST(SpecParser, ErrorsCarryLineNumbers) {
  try {
    parse_service_spec("node a\nbogus keyword\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
}

TEST(SpecParser, RejectsUnknownNodeInLink) {
  EXPECT_THROW(parse_service_spec("node a\nlink a ghost 2\n"),
               std::invalid_argument);
}

TEST(SpecParser, RejectsDuplicateNode) {
  EXPECT_THROW(parse_service_spec("node a\nnode a\n"),
               std::invalid_argument);
}

TEST(SpecParser, RejectsBadNumbers) {
  EXPECT_THROW(parse_service_spec("node a\nnode b\nlink a b fast\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_service_spec("node a\nnode b\nlink a b -2\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_service_spec("cluster_mb 0\n"), std::invalid_argument);
  EXPECT_THROW(parse_service_spec("snmp_interval -5\n"),
               std::invalid_argument);
  EXPECT_THROW(
      parse_service_spec("server_defaults disks=2.5 disk_mb=100\n"),
      std::invalid_argument);
}

/// Parses `text` and requires an std::invalid_argument naming `line`.
void expect_rejected_at(const std::string& text, int line) {
  try {
    parse_service_spec(text);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("line " + std::to_string(line)),
              std::string::npos)
        << error.what();
  }
}

// std::stod parses "nan" and "inf", and NaN fails every `<= 0` check, so
// each numeric field must reject both explicitly, with its line number.
TEST(SpecParser, RejectsNonFiniteCapacity) {
  for (const char* bad : {"nan", "inf", "-inf"}) {
    expect_rejected_at(std::string("node a\nnode b\nlink a b ") + bad + "\n",
                       3);
  }
}

TEST(SpecParser, RejectsNonFiniteDiskSize) {
  for (const char* bad : {"nan", "inf"}) {
    expect_rejected_at(
        std::string("server_defaults disks=2 disk_mb=") + bad + "\n", 1);
  }
}

TEST(SpecParser, RejectsNonFiniteClusterSize) {
  for (const char* bad : {"nan", "inf"}) {
    expect_rejected_at(std::string("\ncluster_mb ") + bad + "\n", 2);
  }
}

TEST(SpecParser, RejectsNonFiniteSnmpInterval) {
  for (const char* bad : {"nan", "inf"}) {
    expect_rejected_at(std::string("snmp_interval ") + bad + "\n", 1);
  }
}

TEST(SpecParser, RejectsNonFiniteVideoSize) {
  for (const char* bad : {"nan", "inf"}) {
    expect_rejected_at(
        std::string("video \"x\" size_mb=") + bad + " bitrate=2\n", 1);
  }
}

TEST(SpecParser, RejectsNonFiniteBitrate) {
  for (const char* bad : {"nan", "inf"}) {
    expect_rejected_at(
        std::string("video \"x\" size_mb=700 bitrate=") + bad + "\n", 1);
  }
}

TEST(SpecParser, RejectsMalformedKeyValue) {
  EXPECT_THROW(
      parse_service_spec("video \"x\" size=700 bitrate=2\n"),
      std::invalid_argument);  // must be size_mb=
}

TEST(SpecParser, RejectsUnknownTitleInPlace) {
  EXPECT_THROW(parse_service_spec("node a\nplace \"ghost\" a\n"),
               std::invalid_argument);
}

TEST(SpecParser, RejectsDuplicateTitle) {
  EXPECT_THROW(parse_service_spec(
                   "video \"x\" size_mb=1 bitrate=1\n"
                   "video \"x\" size_mb=2 bitrate=1\n"),
               std::invalid_argument);
}

TEST(SpecParser, RejectsUnterminatedQuote) {
  EXPECT_THROW(parse_service_spec("video \"oops size_mb=1 bitrate=1\n"),
               std::invalid_argument);
}

TEST(SpecParser, QuotedTitlesMayContainSpacesAndHashes) {
  const ServiceSpec spec = parse_service_spec(
      "video \"the #1 movie\" size_mb=100 bitrate=2\n");
  ASSERT_EQ(spec.videos.size(), 1u);
  EXPECT_EQ(spec.videos[0].title, "the #1 movie");
}

TEST(SpecEndToEnd, InitializedServiceServesRequests) {
  const ServiceSpec spec = parse_service_spec(kGoodSpec);
  net::NoTraffic traffic;
  sim::Simulation sim;
  net::FluidNetwork network{spec.topology, traffic};
  VodService service{sim, spec.topology, network, spec.options, kAdmin};
  const auto videos = initialize_from_spec(spec, service);
  service.start();

  ASSERT_EQ(videos.size(), 2u);
  EXPECT_EQ(service.list_titles().size(), 2u);
  // Subnet mapping works end to end.
  const SessionId id = service.request_by_ip(
      "10.1.9.9", videos.at("big buck bunny"));
  sim.run_until(from_hours(1.0));
  EXPECT_TRUE(service.session_metrics(id).finished);
  // Placement landed where the spec said.
  const auto holders = service.database().full_view().servers_with_title(
      videos.at("sintel"));
  ASSERT_GE(holders.size(), 1u);
  EXPECT_EQ(holders.front(), *spec.topology.find_node("gamma"));
}

TEST(SpecEndToEnd, PlacementRespectsDiskCapacity) {
  // A title bigger than the striped capacity of the spec's arrays fails
  // placement loudly.
  const ServiceSpec spec = parse_service_spec(
      "node a\n"
      "server_defaults disks=2 disk_mb=100\n"
      "video \"huge\" size_mb=100000 bitrate=2\n"
      "place \"huge\" a\n");
  net::NoTraffic traffic;
  sim::Simulation sim;
  net::FluidNetwork network{spec.topology, traffic};
  VodService service{sim, spec.topology, network, spec.options, kAdmin};
  EXPECT_THROW(initialize_from_spec(spec, service), std::invalid_argument);
}

}  // namespace
}  // namespace vod::service
