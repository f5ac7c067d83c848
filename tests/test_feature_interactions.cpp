// Cross-feature interaction tests: combinations of admission control,
// coalescing, auditing, parity storage and per-node overrides that unit
// suites exercise only in isolation.
#include <gtest/gtest.h>

#include "grnet/grnet.h"
#include "service/spec.h"
#include "service/vod_service.h"

namespace vod::service {
namespace {

const db::AdminCredential kAdmin{"secret"};

struct Fixture {
  grnet::CaseStudy g = grnet::build_case_study();
  net::NoTraffic traffic;
  sim::Simulation sim;
  net::FluidNetwork network{g.topology, traffic};
  std::unique_ptr<VodService> service;
  VideoId movie;

  explicit Fixture(ServiceOptions options) {
    options.cluster_size = MegaBytes{10.0};
    options.dma.admission_threshold = 1'000'000;
    service = std::make_unique<VodService>(sim, g.topology, network,
                                           options, kAdmin);
    movie = service->add_video("movie", MegaBytes{40.0}, Mbps{2.0});
    service->place_initial_copy(g.thessaloniki, movie);
    service->start();
  }
};

TEST(Interactions, AdmissionPlusCoalescingSharesTheAdmittedStream) {
  ServiceOptions options;
  options.coalesce_window_seconds = 120.0;
  Fixture fx{options};
  const auto first = fx.service->request_classed(fx.g.patra, fx.movie,
                                                 UserClass::kStandard);
  ASSERT_EQ(first.verdict, VodService::Admission::kAdmitted);
  fx.sim.run_until(SimTime{10.0});
  const auto second = fx.service->request_classed(fx.g.patra, fx.movie,
                                                  UserClass::kStandard);
  // Admitted and then coalesced onto the same session.
  EXPECT_EQ(second.verdict, VodService::Admission::kAdmitted);
  ASSERT_TRUE(second.session.has_value());
  EXPECT_EQ(*second.session, *first.session);
  EXPECT_EQ(fx.service->coalesced_count(), 1u);
  EXPECT_EQ(fx.service->admitted_count(), 2u);
}

TEST(Interactions, AuditSeesCoalescedRequestsOnlyOnce) {
  ServiceOptions options;
  options.coalesce_window_seconds = 120.0;
  options.audit_capacity = 64;
  Fixture fx{options};
  fx.service->request_at(fx.g.patra, fx.movie);
  fx.sim.run_until(SimTime{5.0});
  fx.service->request_at(fx.g.patra, fx.movie);  // coalesced: no new stream
  fx.sim.run_until(from_hours(1.0));
  // 4 clusters -> 4 audited selections; the joiner added none.
  EXPECT_EQ(fx.service->audit().recorded(), 4u);
}

TEST(Interactions, HysteresisPolicyStillFailsOverOnServerLoss) {
  // Sticky policies must not stick to a dead server.
  ServiceOptions options;
  options.vra_switch_hysteresis = 0.9;
  Fixture fx{options};
  fx.service->place_initial_copy(fx.g.xanthi, fx.movie);
  const SessionId id = fx.service->request_at(fx.g.patra, fx.movie);
  fx.sim.schedule_at(SimTime{15.0}, [&](SimTime) {
    fx.service->set_server_online(fx.g.thessaloniki, false);
  });
  fx.sim.run_until(from_hours(2.0));
  const stream::SessionMetrics& m = fx.service->session_metrics(id);
  EXPECT_TRUE(m.finished);
  EXPECT_EQ(m.cluster_sources.back(), fx.g.xanthi);
}

TEST(Interactions, ParityServersSurviveDiskLossWithoutCatalogChange) {
  ServiceOptions options;
  options.server.striping = storage::StripingMode::kParity;
  Fixture fx{options};
  // Parity: failing one disk at the holder loses nothing; the catalog
  // entry stays and the session streams normally.
  const auto lost = fx.service->fail_disk(fx.g.thessaloniki, 0);
  EXPECT_TRUE(lost.empty());
  EXPECT_EQ(fx.service->database()
                .full_view()
                .servers_with_title(fx.movie)
                .size(),
            1u);
  const SessionId id = fx.service->request_at(fx.g.patra, fx.movie);
  fx.sim.run_until(from_hours(1.0));
  EXPECT_TRUE(fx.service->session_metrics(id).finished);
  // A second disk failure on the same server does lose the title.
  const auto lost2 = fx.service->fail_disk(fx.g.thessaloniki, 1);
  EXPECT_EQ(lost2, std::vector<VideoId>{fx.movie});
  EXPECT_TRUE(fx.service->database()
                  .full_view()
                  .servers_with_title(fx.movie)
                  .empty());
}

TEST(Interactions, SpecDrivenParityAndOverridesEndToEnd) {
  const ServiceSpec spec = parse_service_spec(
      "node hub\n"
      "node edge\n"
      "link hub edge 10\n"
      "server_defaults disks=4 disk_mb=2048\n"
      "server edge disks=2 disk_mb=512\n"
      "parity on\n"
      "cluster_mb 10\n"
      "dma_threshold 1000000\n"
      "video \"m\" size_mb=100 bitrate=2\n"
      "place \"m\" hub\n");
  net::NoTraffic traffic;
  sim::Simulation sim;
  net::FluidNetwork network{spec.topology, traffic};
  VodService service{sim, spec.topology, network, spec.options, kAdmin};
  const auto videos = initialize_from_spec(spec, service);
  service.start();

  const NodeId hub = *spec.topology.find_node("hub");
  const NodeId edge = *spec.topology.find_node("edge");
  // Parity survives a hub disk loss; the stream still completes.
  EXPECT_TRUE(service.fail_disk(hub, 2).empty());
  const SessionId id = service.request_at(edge, videos.at("m"));
  sim.run_until(from_hours(1.0));
  EXPECT_TRUE(service.session_metrics(id).finished);
  // Override honored: the edge server has 2 disks.
  EXPECT_EQ(service.dma_cache(edge).disks().disk_count(), 2u);
  EXPECT_EQ(service.dma_cache(edge).disks().mode(),
            storage::StripingMode::kParity);
}

TEST(Interactions, CoalescedJoinersShareFailureOutcomes) {
  ServiceOptions options;
  options.coalesce_window_seconds = 600.0;
  options.session.stall_timeout_seconds = 60.0;
  options.session.max_retries = 1;
  Fixture fx{options};
  int done_calls = 0;
  bool joiner_saw_failure = false;
  const SessionId leader = fx.service->request_at(
      fx.g.patra, fx.movie,
      [&](const stream::Session&) { ++done_calls; });
  fx.sim.run_until(SimTime{5.0});
  fx.service->request_at(fx.g.patra, fx.movie,
                         [&](const stream::Session& session) {
                           ++done_calls;
                           joiner_saw_failure = session.metrics().failed;
                         });
  // Kill every route mid-stream: the batch fails as one.
  fx.sim.schedule_at(SimTime{10.0}, [&](SimTime) {
    fx.network.set_link_up(fx.g.patra_athens, false);
    fx.network.set_link_up(fx.g.patra_ioannina, false);
    fx.service->set_server_online(fx.g.thessaloniki, false);
  });
  fx.sim.run_until(from_hours(1.0));
  EXPECT_TRUE(fx.service->session_metrics(leader).failed);
  EXPECT_EQ(done_calls, 2);
  EXPECT_TRUE(joiner_saw_failure);
}

}  // namespace
}  // namespace vod::service
