#include "stream/session.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace vod::stream {
namespace {

/// Fixed-answer policy for driving sessions without a full service stack.
class ScriptedPolicy final : public ServerSelectionPolicy {
 public:
  explicit ScriptedPolicy(std::optional<Selection> answer)
      : answer_(std::move(answer)) {}

  void set_answer(std::optional<Selection> answer) {
    answer_ = std::move(answer);
  }

  std::optional<Selection> select(NodeId, VideoId) override {
    ++calls_;
    return answer_;
  }
  const char* name() const override { return "scripted"; }

  int calls() const { return calls_; }

 private:
  std::optional<Selection> answer_;
  int calls_ = 0;
};

/// client(b) -- 8 Mbps -- server(a)
struct Fixture {
  net::Topology topo;
  NodeId server, client;
  LinkId link;
  net::NoTraffic traffic;
  sim::Simulation sim;
  net::FluidNetwork network{topo, traffic};
  net::TransferManager transfers{sim, network};

  Fixture() : topo(), server(topo.add_node("server")),
              client(topo.add_node("client")),
              link(topo.add_link(server, client, Mbps{8.0})),
              network(topo, traffic), transfers(sim, network) {}

  Selection remote() {
    return Selection{server,
                     routing::Path{{client, server}, {link}, 1.0}};
  }

  db::VideoInfo video(double size_mb, double bitrate) {
    return db::VideoInfo{VideoId{0}, "v", MegaBytes{size_mb},
                         Mbps{bitrate}};
  }
};

TEST(Session, DownloadsAllClustersAndFinishes) {
  Fixture fx;
  ScriptedPolicy policy{fx.remote()};
  // 40 MB, cluster 10 -> 4 clusters; 8 Mbps -> 10 s per cluster.
  Session session{fx.sim, fx.transfers, policy, fx.video(40.0, 2.0),
                  fx.client, MegaBytes{10.0}};
  session.start();
  fx.sim.run();
  const SessionMetrics& m = session.metrics();
  EXPECT_TRUE(m.finished);
  EXPECT_FALSE(m.failed);
  EXPECT_EQ(session.cluster_count(), 4u);
  ASSERT_EQ(m.cluster_completed.size(), 4u);
  EXPECT_NEAR(m.cluster_completed[0].seconds(), 10.0, 1e-9);
  EXPECT_NEAR(m.cluster_completed[3].seconds(), 40.0, 1e-9);
  ASSERT_TRUE(m.download_completed_at.has_value());
  EXPECT_NEAR(m.download_completed_at->seconds(), 40.0, 1e-9);
  EXPECT_EQ(policy.calls(), 4);  // re-selected before every cluster
}

TEST(Session, StartupDelayIsFirstClusterTime) {
  Fixture fx;
  ScriptedPolicy policy{fx.remote()};
  Session session{fx.sim, fx.transfers, policy, fx.video(40.0, 2.0),
                  fx.client, MegaBytes{10.0}};
  session.start();
  fx.sim.run();
  EXPECT_NEAR(session.metrics().startup_delay(), 10.0, 1e-9);
}

TEST(Session, NoRebufferWhenDownloadOutpacesPlayback) {
  Fixture fx;
  ScriptedPolicy policy{fx.remote()};
  // Bitrate 2 Mbps over an 8 Mbps pipe: each 10 MB cluster downloads in
  // 10 s and plays for 40 s — smooth after startup.
  Session session{fx.sim, fx.transfers, policy, fx.video(40.0, 2.0),
                  fx.client, MegaBytes{10.0}};
  session.start();
  fx.sim.run();
  EXPECT_TRUE(session.metrics().smooth());
  EXPECT_EQ(session.metrics().rebuffer_events, 0);
  EXPECT_DOUBLE_EQ(session.metrics().rebuffer_seconds, 0.0);
}

TEST(Session, RebuffersWhenBitrateExceedsBandwidth) {
  Fixture fx;
  ScriptedPolicy policy{fx.remote()};
  // 16 Mbps title over an 8 Mbps pipe: every cluster arrives a full
  // cluster-playback late.
  Session session{fx.sim, fx.transfers, policy, fx.video(40.0, 16.0),
                  fx.client, MegaBytes{10.0}};
  session.start();
  fx.sim.run();
  const SessionMetrics& m = session.metrics();
  EXPECT_TRUE(m.finished);
  EXPECT_GT(m.rebuffer_events, 0);
  EXPECT_GT(m.rebuffer_seconds, 0.0);
  EXPECT_FALSE(m.smooth());
  // Download: 10 s per cluster; playback: 5 s per cluster.  After cluster
  // 1 (t=10) the playhead drains at t=15 but cluster 2 lands at t=20...
  // total stall = 3 clusters x 5 s = 15 s.
  EXPECT_NEAR(m.rebuffer_seconds, 15.0, 1e-9);
  EXPECT_EQ(m.rebuffer_events, 3);
}

TEST(Session, PrebufferDelaysStartButAbsorbsJitter) {
  Fixture fx;
  ScriptedPolicy policy{fx.remote()};
  SessionOptions options;
  options.prebuffer_clusters = 4;  // the entire 4-cluster video
  Session session{fx.sim, fx.transfers, policy, fx.video(40.0, 16.0),
                  fx.client, MegaBytes{10.0}, options};
  session.start();
  fx.sim.run();
  const SessionMetrics& m = session.metrics();
  // Full prebuffer: starts at 40 s but never stalls.
  EXPECT_NEAR(m.startup_delay(), 40.0, 1e-9);
  EXPECT_EQ(m.rebuffer_events, 0);
}

TEST(Session, PlaybackFinishTimeComputed) {
  Fixture fx;
  ScriptedPolicy policy{fx.remote()};
  Session session{fx.sim, fx.transfers, policy, fx.video(40.0, 2.0),
                  fx.client, MegaBytes{10.0}};
  session.start();
  fx.sim.run();
  const SessionMetrics& m = session.metrics();
  ASSERT_TRUE(m.playback_finished_at.has_value());
  // Starts at 10 s, plays 40 MB * 8 / 2 Mbps = 160 s.
  EXPECT_NEAR(m.playback_finished_at->seconds(), 170.0, 1e-9);
}

TEST(Session, ServerSwitchesCounted) {
  Fixture fx;
  // Add a second server and switch the policy answer mid-stream.
  const NodeId server2 = fx.topo.add_node("server2");
  const LinkId link2 = fx.topo.add_link(server2, fx.client, Mbps{8.0});
  ScriptedPolicy policy{fx.remote()};
  Session session{fx.sim, fx.transfers, policy, fx.video(40.0, 2.0),
                  fx.client, MegaBytes{10.0}};
  session.start();
  fx.sim.schedule_at(SimTime{15.0}, [&](SimTime) {
    policy.set_answer(Selection{
        server2, routing::Path{{fx.client, server2}, {link2}, 1.0}});
  });
  fx.sim.run();
  const SessionMetrics& m = session.metrics();
  EXPECT_TRUE(m.finished);
  EXPECT_EQ(m.server_switches, 1);
  ASSERT_EQ(m.cluster_sources.size(), 4u);
  EXPECT_EQ(m.cluster_sources[0], fx.server);
  EXPECT_EQ(m.cluster_sources[1], fx.server);  // chosen at t=10
  EXPECT_EQ(m.cluster_sources[2], server2);    // chosen at t=20
  EXPECT_EQ(m.cluster_sources[3], server2);
}

TEST(Session, FailsWhenNoServerAvailable) {
  Fixture fx;
  ScriptedPolicy policy{std::nullopt};
  bool done_called = false;
  Session session{fx.sim, fx.transfers, policy, fx.video(40.0, 2.0),
                  fx.client, MegaBytes{10.0}, {},
                  [&](const Session& s) {
                    done_called = true;
                    EXPECT_TRUE(s.metrics().failed);
                  }};
  session.start();
  fx.sim.run();
  EXPECT_TRUE(done_called);
  EXPECT_TRUE(session.metrics().failed);
  EXPECT_FALSE(session.metrics().finished);
  EXPECT_EQ(session.metrics().failure_reason,
            "no server can provide the title");
}

TEST(Session, MidStreamLossOfAllServersFails) {
  Fixture fx;
  ScriptedPolicy policy{fx.remote()};
  Session session{fx.sim, fx.transfers, policy, fx.video(40.0, 2.0),
                  fx.client, MegaBytes{10.0}};
  session.start();
  fx.sim.schedule_at(SimTime{15.0},
                     [&](SimTime) { policy.set_answer(std::nullopt); });
  fx.sim.run();
  EXPECT_TRUE(session.metrics().failed);
  EXPECT_EQ(session.metrics().cluster_completed.size(), 2u);
}

TEST(Session, AbortCancelsInflightTransfer) {
  Fixture fx;
  ScriptedPolicy policy{fx.remote()};
  Session session{fx.sim, fx.transfers, policy, fx.video(40.0, 2.0),
                  fx.client, MegaBytes{10.0}};
  session.start();
  fx.sim.schedule_at(SimTime{5.0},
                     [&](SimTime) { session.abort("user pressed stop"); });
  fx.sim.run();
  EXPECT_TRUE(session.metrics().failed);
  EXPECT_EQ(session.metrics().failure_reason, "user pressed stop");
  EXPECT_EQ(fx.transfers.active_count(), 0u);
}

TEST(Session, LocalServingUsesLocalRate) {
  Fixture fx;
  ScriptedPolicy policy{
      Selection{fx.client, routing::Path{{fx.client}, {}, 0.0}}};
  SessionOptions options;
  options.local_rate = Mbps{80.0};
  Session session{fx.sim, fx.transfers, policy, fx.video(40.0, 2.0),
                  fx.client, MegaBytes{10.0}, options};
  session.start();
  fx.sim.run();
  // 40 MB at 80 Mbps = 4 s total.
  EXPECT_NEAR(session.metrics().download_completed_at->seconds(), 4.0,
              1e-9);
}

TEST(Session, SingleClusterVideo) {
  Fixture fx;
  ScriptedPolicy policy{fx.remote()};
  Session session{fx.sim, fx.transfers, policy, fx.video(5.0, 2.0),
                  fx.client, MegaBytes{10.0}};
  session.start();
  fx.sim.run();
  EXPECT_TRUE(session.metrics().finished);
  EXPECT_EQ(session.cluster_count(), 1u);
  EXPECT_EQ(policy.calls(), 1);
}

TEST(SessionVcr, PauseExtendsPlaybackTimeline) {
  Fixture fx;
  ScriptedPolicy policy{fx.remote()};
  Session session{fx.sim, fx.transfers, policy, fx.video(40.0, 2.0),
                  fx.client, MegaBytes{10.0}};
  session.start();
  // Pause at t=30, during playback (starts at t=10, each cluster plays
  // 40 s).  The download completes at t=40 and the session record is
  // frozen then, closing the open pause: pauses are honored while the
  // distribution service is still delivering; afterwards they belong to
  // the player, which this library does not model.
  fx.sim.schedule_at(SimTime{30.0}, [&](SimTime) { session.pause(); });
  fx.sim.schedule_at(SimTime{90.0}, [&](SimTime) { session.resume(); });
  fx.sim.run();
  const SessionMetrics& m = session.metrics();
  ASSERT_EQ(m.pauses.size(), 1u);
  EXPECT_DOUBLE_EQ(m.total_paused_seconds(), 10.0);  // clipped to t=40
  // Unpaused finish would be 170 s; the 10 s honored pause gives 180 s.
  ASSERT_TRUE(m.playback_finished_at.has_value());
  EXPECT_NEAR(m.playback_finished_at->seconds(), 180.0, 1e-9);
  EXPECT_EQ(m.rebuffer_events, 0);
}

TEST(SessionVcr, PauseDuringPrebufferDelaysStartup) {
  Fixture fx;
  ScriptedPolicy policy{fx.remote()};
  Session session{fx.sim, fx.transfers, policy, fx.video(40.0, 2.0),
                  fx.client, MegaBytes{10.0}};
  session.start();
  // Paused across the moment the first cluster lands (t=10).
  fx.sim.schedule_at(SimTime{5.0}, [&](SimTime) { session.pause(); });
  fx.sim.schedule_at(SimTime{25.0}, [&](SimTime) { session.resume(); });
  fx.sim.run();
  const SessionMetrics& m = session.metrics();
  ASSERT_TRUE(m.playback_started_at.has_value());
  EXPECT_NEAR(m.playback_started_at->seconds(), 25.0, 1e-9);
}

TEST(SessionVcr, PauseAbsorbsWouldBeRebuffer) {
  Fixture fx;
  ScriptedPolicy policy{fx.remote()};
  // 16 Mbps title over 8 Mbps: unpaused this rebuffers 15 s (see above).
  Session session{fx.sim, fx.transfers, policy, fx.video(40.0, 16.0),
                  fx.client, MegaBytes{10.0}};
  session.start();
  // A long pause right after playback starts lets the download get ahead.
  fx.sim.schedule_at(SimTime{11.0}, [&](SimTime) { session.pause(); });
  fx.sim.schedule_at(SimTime{60.0}, [&](SimTime) { session.resume(); });
  fx.sim.run();
  const SessionMetrics& m = session.metrics();
  EXPECT_TRUE(m.finished);
  // All clusters arrived by t=40 < resume at 60: no stalls remain after
  // the pause, and before it only 1 s of content had played.
  EXPECT_EQ(m.rebuffer_events, 0);
  EXPECT_DOUBLE_EQ(m.rebuffer_seconds, 0.0);
}

TEST(SessionVcr, RedundantPauseResumeAreNoOps) {
  Fixture fx;
  ScriptedPolicy policy{fx.remote()};
  Session session{fx.sim, fx.transfers, policy, fx.video(40.0, 2.0),
                  fx.client, MegaBytes{10.0}};
  session.start();
  EXPECT_FALSE(session.paused());
  session.resume();  // not paused: no-op
  session.pause();
  EXPECT_TRUE(session.paused());
  session.pause();  // already paused: no-op
  session.resume();
  EXPECT_FALSE(session.paused());
  EXPECT_EQ(session.metrics().pauses.size(), 1u);
}

TEST(SessionVcr, OpenPauseClosedAtFinish) {
  Fixture fx;
  ScriptedPolicy policy{fx.remote()};
  Session session{fx.sim, fx.transfers, policy, fx.video(40.0, 2.0),
                  fx.client, MegaBytes{10.0}};
  session.start();
  fx.sim.schedule_at(SimTime{30.0}, [&](SimTime) { session.pause(); });
  fx.sim.run();  // never resumed explicitly
  const SessionMetrics& m = session.metrics();
  EXPECT_TRUE(m.finished);
  ASSERT_EQ(m.pauses.size(), 1u);
  // Closed at the download completion instant (t=40).
  EXPECT_NEAR(m.pauses[0].second.seconds(), 40.0, 1e-9);
  EXPECT_FALSE(session.paused());
}

TEST(SessionQos, MeanDeliveredRateComputed) {
  Fixture fx;
  ScriptedPolicy policy{fx.remote()};
  Session session{fx.sim, fx.transfers, policy, fx.video(40.0, 2.0),
                  fx.client, MegaBytes{10.0}};
  session.start();
  fx.sim.run();
  // 40 MB in 40 s = 8 Mbps.
  EXPECT_NEAR(session.metrics().mean_delivered_rate.value(), 8.0, 1e-9);
  EXPECT_TRUE(session.metrics().meets_qos_floor(Mbps{2.0}));
  EXPECT_FALSE(session.metrics().meets_qos_floor(Mbps{9.0}));
}

TEST(SessionQos, RebufferingSessionFailsTheFloor) {
  Fixture fx;
  ScriptedPolicy policy{fx.remote()};
  Session session{fx.sim, fx.transfers, policy, fx.video(40.0, 16.0),
                  fx.client, MegaBytes{10.0}};
  session.start();
  fx.sim.run();
  EXPECT_TRUE(session.metrics().finished);
  EXPECT_FALSE(session.metrics().meets_qos_floor(Mbps{1.0}));
}

TEST(Session, ValidatesConstruction) {
  Fixture fx;
  ScriptedPolicy policy{fx.remote()};
  EXPECT_THROW(Session(fx.sim, fx.transfers, policy, fx.video(40.0, 2.0),
                       NodeId{}, MegaBytes{10.0}),
               std::invalid_argument);
  SessionOptions bad;
  bad.prebuffer_clusters = 0;
  EXPECT_THROW(Session(fx.sim, fx.transfers, policy, fx.video(40.0, 2.0),
                       fx.client, MegaBytes{10.0}, bad),
               std::invalid_argument);
  for (const double value : {0.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(Session(fx.sim, fx.transfers, policy, fx.video(40.0, 2.0),
                         fx.client, MegaBytes{value}),
                 std::invalid_argument) << value;
    // The flow cap is checked whether or not the stall timeout is derived
    // from it.
    SessionOptions bad_cap;
    bad_cap.flow_cap = Mbps{value};
    EXPECT_THROW(Session(fx.sim, fx.transfers, policy, fx.video(40.0, 2.0),
                         fx.client, MegaBytes{10.0}, bad_cap),
                 std::invalid_argument) << value;
    bad_cap.stall_timeout_seconds = 30.0;
    EXPECT_THROW(Session(fx.sim, fx.transfers, policy, fx.video(40.0, 2.0),
                         fx.client, MegaBytes{10.0}, bad_cap),
                 std::invalid_argument) << value;
  }
}

TEST(Session, DoubleStartThrows) {
  Fixture fx;
  ScriptedPolicy policy{fx.remote()};
  Session session{fx.sim, fx.transfers, policy, fx.video(40.0, 2.0),
                  fx.client, MegaBytes{10.0}};
  session.start();
  EXPECT_THROW(session.start(), std::logic_error);
}

}  // namespace
}  // namespace vod::stream
