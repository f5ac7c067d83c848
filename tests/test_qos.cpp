// Tiered user-class QoS: classed admission outcomes (kNoServer vs
// kRejected vs kPreempted), deterministic preemption planning, per-class
// retry budgets for preempted sessions, the per-class SLA slice of the
// resilience report, and the single-class guarantee (qos disabled ==
// exactly the classless service).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "grnet/grnet.h"
#include "service/report.h"
#include "service/vod_service.h"

namespace vod::service {
namespace {

const db::AdminCredential kAdmin{"secret"};

/// GRNET case study with the movie placed at Athens only, so Patra
/// requests must cross the 2 Mbps Patra-Athens link (0.2 Mbps background
/// at 8am -> 1.8 Mbps residual).  A couple of sessions saturate it.
struct QosFixture {
  grnet::CaseStudy g = grnet::build_case_study();
  net::TraceTraffic trace = grnet::table2_trace(g);
  sim::Simulation sim;
  net::FluidNetwork network{g.topology, trace};
  std::unique_ptr<VodService> service;
  VideoId movie;
  VideoId clip;

  explicit QosFixture(ServiceOptions options = make_options()) {
    service = std::make_unique<VodService>(sim, g.topology, network,
                                           options, kAdmin);
    movie = service->add_video("movie", MegaBytes{30.0}, Mbps{0.5});
    clip = service->add_video("clip", MegaBytes{10.0}, Mbps{0.25});
    service->start();
  }

  static ServiceOptions make_options() {
    ServiceOptions options;
    options.cluster_size = MegaBytes{10.0};
    options.dma.admission_threshold = 1'000'000;  // no proxy copies
    options.qos.enabled = true;
    return options;
  }

  /// Starts `sessions` of the given classes (in order) for the movie at
  /// Patra, lets them stream for 30 s, then refreshes the limited-access
  /// statistics — the link now reads fully used.
  std::vector<SessionId> saturate(const std::vector<UserClass>& classes) {
    service->place_initial_copy(g.athens, movie);
    service->place_initial_copy(g.athens, clip);
    std::vector<SessionId> ids;
    for (const UserClass cls : classes) {
      const auto outcome = service->request_classed(g.patra, movie, cls);
      EXPECT_EQ(outcome.verdict, VodService::Admission::kAdmitted);
      ids.push_back(*outcome.session);
    }
    sim.run_until(SimTime{30.0});
    service->snmp().poll_now(sim.now());
    return ids;
  }
};

TEST(Qos, NoServerWhenTitleUnplaced) {
  QosFixture fx;
  const auto outcome =
      fx.service->request_classed(fx.g.patra, fx.movie, UserClass::kPremium);
  EXPECT_EQ(outcome.verdict, VodService::Admission::kNoServer);
  EXPECT_FALSE(outcome.session.has_value());
  EXPECT_TRUE(outcome.preempted.empty());
  const auto snap = fx.service->metrics_snapshot();
  EXPECT_EQ(snap.value_u64("qos.premium.no_server"), 1u);
  EXPECT_EQ(snap.value_u64("qos.premium.requests"), 1u);
}

TEST(Qos, RejectedWhenNoLowerClassVictimExists) {
  QosFixture fx;
  // The saturating sessions are premium themselves: nothing outranks them,
  // so the planner has no candidates and the request is plainly rejected —
  // preemption never sacrifices equals or betters.
  fx.saturate({UserClass::kPremium, UserClass::kPremium});
  const auto outcome =
      fx.service->request_classed(fx.g.patra, fx.movie, UserClass::kPremium);
  EXPECT_EQ(outcome.verdict, VodService::Admission::kRejected);
  EXPECT_FALSE(outcome.session.has_value());
  EXPECT_TRUE(outcome.preempted.empty());
  EXPECT_EQ(fx.service->rejected_count(), 1u);
  EXPECT_EQ(fx.service->preemption_victim_count(), 0u);
}

TEST(Qos, BackgroundCannotPreemptAnyone) {
  QosFixture fx;
  fx.saturate({UserClass::kStandard, UserClass::kStandard});
  const auto outcome = fx.service->request_classed(fx.g.patra, fx.movie,
                                                   UserClass::kBackground);
  EXPECT_EQ(outcome.verdict, VodService::Admission::kRejected);
  EXPECT_EQ(fx.service->preemption_victim_count(), 0u);
}

TEST(Qos, PremiumPreemptsLowestClassYoungestFirst) {
  QosFixture fx;
  // Background is *older* than standard here: class rank must dominate the
  // youngest-first tiebreak, so the background session dies even though
  // the standard one is the more recent arrival.
  const auto ids =
      fx.saturate({UserClass::kBackground, UserClass::kStandard});
  const auto outcome =
      fx.service->request_classed(fx.g.patra, fx.movie, UserClass::kPremium);
  EXPECT_EQ(outcome.verdict, VodService::Admission::kPreempted);
  ASSERT_TRUE(outcome.session.has_value());
  ASSERT_EQ(outcome.preempted.size(), 1u);
  EXPECT_EQ(outcome.preempted[0], ids[0]);
  EXPECT_EQ(fx.service->preemption_victim_count(), 1u);
  EXPECT_EQ(fx.service->preempted_admit_count(), 1u);

  // The victim failed with the fixed preemption reason; default retry
  // budget is zero, so it is absorbed shed — no service retry.
  const stream::SessionMetrics& m = fx.service->session_metrics(ids[0]);
  EXPECT_TRUE(m.failed);
  EXPECT_EQ(m.failure_reason, VodService::kPreemptedReason);
  EXPECT_EQ(fx.service->session_class(ids[0]), UserClass::kBackground);
  EXPECT_FALSE(fx.service->session_superseded(ids[0]));
  EXPECT_EQ(fx.service->service_retry_count(), 0u);

  // The standard session streams on, and so does the preempting premium.
  EXPECT_FALSE(fx.service->session_metrics(ids[1]).failed);
  EXPECT_EQ(fx.service->session_class(*outcome.session),
            UserClass::kPremium);
}

TEST(Qos, PreemptionIsDeterministicAcrossRuns) {
  // Two identical runs must sacrifice identical victims and end with
  // identical per-session outcomes — the plan is a pure function of the
  // (deterministic) service state.
  const auto run = [] {
    QosFixture fx;
    const auto ids = fx.saturate({UserClass::kBackground,
                                  UserClass::kStandard,
                                  UserClass::kBackground});
    const auto outcome = fx.service->request_classed(fx.g.patra, fx.movie,
                                                     UserClass::kPremium);
    std::vector<std::string> trail;
    trail.push_back(std::to_string(static_cast<int>(outcome.verdict)));
    for (const SessionId victim : outcome.preempted) {
      trail.push_back("victim:" + std::to_string(victim.value()));
    }
    fx.sim.run_until(from_hours(2.0));
    for (const SessionId id : fx.service->session_ids()) {
      const stream::SessionMetrics& m = fx.service->session_metrics(id);
      trail.push_back(std::to_string(id.value()) + ":" +
                      (m.failed ? "failed:" + m.failure_reason
                                : (m.finished ? "finished" : "hung")));
    }
    return trail;
  };
  EXPECT_EQ(run(), run());
}

TEST(Qos, PreemptedBackgroundRetriesAtItsOwnClassThenExhausts) {
  ServiceOptions options = QosFixture::make_options();
  options.qos.policies[class_index(UserClass::kBackground)].retry_limit = 1;
  QosFixture fx{options};
  const auto ids = fx.saturate({UserClass::kBackground});

  // First premium admission preempts the lone background session...
  const auto first =
      fx.service->request_classed(fx.g.patra, fx.movie, UserClass::kPremium);
  ASSERT_EQ(first.verdict, VodService::Admission::kPreempted);
  ASSERT_EQ(first.preempted.size(), 1u);

  // ...which re-enters through the service-retry chain at its own class
  // once the backoff (30 s default) elapses.
  fx.sim.run_until(SimTime{90.0});
  EXPECT_EQ(fx.service->service_retry_count(), 1u);
  EXPECT_TRUE(fx.service->session_superseded(ids[0]));
  const auto retry = fx.service->retried_as(ids[0]);
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(fx.service->session_class(*retry), UserClass::kBackground);

  // A second preemption hits the retry attempt; its budget is spent, so
  // this time the session is absorbed shed — no further retry.
  fx.service->snmp().poll_now(fx.sim.now());
  const auto second =
      fx.service->request_classed(fx.g.patra, fx.clip, UserClass::kPremium);
  ASSERT_EQ(second.verdict, VodService::Admission::kPreempted);
  ASSERT_EQ(second.preempted.size(), 1u);
  EXPECT_EQ(second.preempted[0], *retry);
  fx.sim.run_until(from_hours(2.0));
  EXPECT_EQ(fx.service->service_retry_count(), 1u);
  const stream::SessionMetrics& m = fx.service->session_metrics(*retry);
  EXPECT_TRUE(m.failed);
  EXPECT_EQ(m.failure_reason, VodService::kPreemptedReason);
  EXPECT_FALSE(fx.service->session_superseded(*retry));
  EXPECT_FALSE(fx.service->retried_as(*retry).has_value());
}

TEST(Qos, ResilienceReportCarriesPerClassSla) {
  QosFixture fx;
  const auto ids =
      fx.saturate({UserClass::kBackground, UserClass::kStandard});
  const auto outcome =
      fx.service->request_classed(fx.g.patra, fx.movie, UserClass::kPremium);
  ASSERT_EQ(outcome.verdict, VodService::Admission::kPreempted);
  fx.sim.run_until(from_hours(4.0));

  const ResilienceReport report =
      build_resilience_report(*fx.service, Mbps{0.0});
  EXPECT_TRUE(report.classed);
  const auto& premium =
      report.by_class[class_index(UserClass::kPremium)];
  const auto& standard =
      report.by_class[class_index(UserClass::kStandard)];
  const auto& background =
      report.by_class[class_index(UserClass::kBackground)];
  EXPECT_EQ(premium.admission_requests, 1u);
  EXPECT_EQ(premium.admitted, 1u);
  EXPECT_EQ(premium.requests, 1u);
  EXPECT_EQ(premium.finished, 1u);
  EXPECT_DOUBLE_EQ(premium.availability(), 1.0);
  EXPECT_EQ(standard.requests, 1u);
  EXPECT_EQ(standard.finished, 1u);
  EXPECT_EQ(background.preempted, 1u);
  EXPECT_EQ(background.failed, 1u);
  EXPECT_DOUBLE_EQ(background.availability(), 0.0);
  EXPECT_EQ(background.stall_seconds.count(), 1u);

  const std::string rendered = format_resilience_report(report);
  EXPECT_NE(rendered.find("premium admit rate"), std::string::npos);
  EXPECT_NE(rendered.find("background preempted"), std::string::npos);
  EXPECT_NE(rendered.find("stall time p50 (s)"), std::string::npos);
  EXPECT_NE(rendered.find("stall time p99 (s)"), std::string::npos);
  (void)ids;
}

TEST(Qos, ReportQuantileCellsFollowTheSharedNearestRankRule) {
  // Regression lock for the percentile unification (DESIGN.md §16): every
  // report percentile renders through SampleSet::quantile, which is
  // nearest-rank — max(1, ceil(q * n)) — the same rule obs::bucket_quantile
  // interpolates against.  100 known samples make the ranks legible.
  ResilienceReport report;
  report.requests = 100;
  report.finished = 100;
  for (int i = 1; i <= 100; ++i) {
    report.stall_seconds.add(static_cast<double>(i));
    report.failover_latency_seconds.add(10.0 * i);
  }
  EXPECT_DOUBLE_EQ(report.stall_seconds.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(report.stall_seconds.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(report.failover_latency_seconds.quantile(0.95), 950.0);

  const std::string rendered = format_resilience_report(report);
  EXPECT_NE(rendered.find("stall time p50 (s)"), std::string::npos);
  EXPECT_NE(rendered.find("50.00"), std::string::npos);
  EXPECT_NE(rendered.find("99.00"), std::string::npos);
  EXPECT_NE(rendered.find("950.00"), std::string::npos);
}

TEST(Qos, DisabledQosMatchesClasslessServiceExactly) {
  // The single-class guarantee: with qos.enabled == false (the default),
  // request_classed admits every class by the classless check — same
  // verdicts, same counters, no preemption, no qos.* metrics.
  ServiceOptions plain;
  plain.cluster_size = MegaBytes{10.0};
  plain.dma.admission_threshold = 1'000'000;
  QosFixture classless{plain};
  QosFixture classed{plain};
  classless.service->place_initial_copy(classless.g.athens,
                                        classless.movie);
  classed.service->place_initial_copy(classed.g.athens, classed.movie);

  for (int i = 0; i < 4; ++i) {
    const auto a = classless.service->request_classed(
        classless.g.patra, classless.movie, UserClass::kStandard);
    const auto b = classed.service->request_classed(
        classed.g.patra, classed.movie, UserClass::kPremium);
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_EQ(a.session.has_value(), b.session.has_value());
    EXPECT_TRUE(b.preempted.empty());
  }
  classless.sim.run_until(from_hours(4.0));
  classed.sim.run_until(from_hours(4.0));
  EXPECT_EQ(classless.service->admitted_count(),
            classed.service->admitted_count());
  EXPECT_EQ(classless.service->rejected_count(),
            classed.service->rejected_count());
  EXPECT_EQ(classed.service->preemption_victim_count(), 0u);
  EXPECT_FALSE(
      classed.service->metrics_snapshot().has("qos.premium.requests"));
  for (const SessionId id : classless.service->session_ids()) {
    const auto& a = classless.service->session_metrics(id);
    const auto& b = classed.service->session_metrics(id);
    EXPECT_EQ(a.finished, b.finished);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.rebuffer_seconds, b.rebuffer_seconds);
    EXPECT_EQ(classed.service->session_class(id), UserClass::kStandard);
  }
}

}  // namespace
}  // namespace vod::service
