#include "stream/session.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/contract.h"
#include "common/log.h"
#include "obs/trace.h"
#include "storage/striping.h"

namespace vod::stream {

namespace {

/// One per-session instant, tagged with the session's trace id.
void trace_session(const char* name, std::uint64_t sid,
                   std::vector<obs::TraceArg> args = {}) {
  obs::TraceRecorder* tr = obs::trace_sink();
  if (tr == nullptr) return;
  args.insert(args.begin(), {"sid", obs::num(sid)});
  tr->instant(obs::Subsystem::kSession, name, std::move(args));
}

}  // namespace

Session::Session(sim::Simulation& sim, net::TransferManager& transfers,
                 ServerSelectionPolicy& policy, db::VideoInfo video,
                 NodeId home, MegaBytes cluster_size, SessionOptions options,
                 DoneCallback on_done, SessionObserver* observer)
    : sim_(sim),
      transfers_(transfers),
      policy_(policy),
      video_(std::move(video)),
      on_done_(std::move(on_done)),
      observer_(observer),
      flow_cap_(options.flow_cap),
      local_rate_(options.local_rate),
      stall_rate_floor_(options.stall_rate_floor),
      home_(home),
      flow_weight_(options.flow_weight),
      max_retries_(options.max_retries),
      max_total_retries_(options.max_total_retries),
      user_class_(options.user_class) {
  require(home.valid(), "Session: invalid home node");
  require_positive_finite(cluster_size.value(),
      "Session: cluster size must be positive and finite");
  require_positive_finite(options.flow_cap.value(),
      "Session: flow cap must be positive and finite");
  require(options.prebuffer_clusters != 0,
      "Session: prebuffer must be >= 1 cluster");
  require(options.flow_weight >= 1, "Session: flow weight must be >= 1");
  require(options.stall_timeout_scale > 0.0,
      "Session: stall timeout scale must be positive");
  if (options.stall_timeout_seconds == kAutoStallTimeout) {
    stall_timeout_ =
        3.0 * cluster_size.megabits() / options.flow_cap.value();
  } else if (options.stall_timeout_seconds > 0.0) {
    stall_timeout_ = options.stall_timeout_seconds;  // infinity disables
  } else {
    fail_require(
        "Session: stall timeout must be positive, infinity, or "
        "kAutoStallTimeout");
  }
  // Class patience knob; x1.0 is the bit-identical classless default (and
  // scaling infinity keeps the watchdog disabled).
  if (options.stall_timeout_scale != 1.0) {
    stall_timeout_ *= options.stall_timeout_scale;
  }
  // The striping plan defines the cluster boundaries; the disk count is
  // irrelevant for sizes, so any positive count works here.  Only three
  // numbers of it are kept: all parts but the last are one full cluster.
  const storage::StripePlacement plan =
      storage::plan_striping(video_.id, video_.size, cluster_size, 1);
  const std::vector<MegaBytes>& parts = plan.part_sizes;
  require(!parts.empty(), "Session: the video has no clusters");
  part_count_ = static_cast<std::uint32_t>(parts.size());
  cluster_part_ = parts.front();
  last_part_ = parts.back();
  for (std::size_t k = 0; k + 1 < parts.size(); ++k) {
    ensure(parts[k] == cluster_part_,
        "Session: striping plan has a short part before the last");
  }
  prebuffer_clusters_ = static_cast<std::uint32_t>(
      std::min<std::size_t>(options.prebuffer_clusters, part_count_));
}

Session::~Session() {
  cancel_watchdog();
  if (inflight_ && transfers_.active(*inflight_)) {
    transfers_.cancel(*inflight_);
  }
}

void Session::start() {
  ensure(!started_, "Session::start: already started");
  started_ = true;
  metrics_.requested_at = sim_.now();
  if (obs::TraceRecorder* tr = obs::trace_sink()) {
    tr->async_begin(
        obs::Subsystem::kSession, "session", trace_id_,
        {{"video", obs::num(static_cast<std::uint64_t>(video_.id.value()))},
         {"home", obs::num(static_cast<std::uint64_t>(home_.value()))}});
  }
  fetch_next_cluster(sim_.now());
}

void Session::abort(const std::string& reason) {
  if (!active()) return;
  fail(sim_.now(), reason);
}

void Session::add_done_callback(DoneCallback callback) {
  if (!callback) return;
  ensure(!done_, "Session::add_done_callback: already done");
  if (!on_done_) {
    on_done_ = std::move(callback);
    return;
  }
  on_done_ = [first = std::move(on_done_),
              second = std::move(callback)](const Session& session) {
    first(session);
    second(session);
  };
}

void Session::pause() {
  if (done_ || pause_started_) return;
  pause_started_ = sim_.now();
}

void Session::resume() {
  if (!pause_started_) return;
  metrics_.pauses.emplace_back(*pause_started_, sim_.now());
  pause_started_.reset();
}

double Session::advance_playhead(double from, Duration content) const {
  double wall = from;
  double left = content.seconds();
  for (const auto& [pause_at, resume_at] : metrics_.pauses) {
    const double p = pause_at.seconds();
    const double r = resume_at.seconds();
    if (p >= wall + left) break;  // pause begins after this content ends
    if (r <= wall) continue;      // pause already over
    if (p > wall) {
      left -= p - wall;  // play up to the pause
      wall = p;
    }
    wall = r;  // sit out the pause
  }
  return wall + left;
}

void Session::fetch_next_cluster(SimTime now) {
  const std::size_t index = next_cluster_;
  const auto selection = policy_.select_cluster(home_, video_.id, index);
  if (!selection) {
    fail(now, "no server can provide the title");
    return;
  }

  if (!metrics_.cluster_sources.empty() &&
      metrics_.cluster_sources.back() != selection->server) {
    ++metrics_.server_switches;
    VOD_LOG_DEBUG("session: switched source for cluster " << index);
    trace_session(
        "session.switch", trace_id_,
        {{"cluster", obs::num(static_cast<std::uint64_t>(index))},
         {"from", obs::num(static_cast<std::uint64_t>(
              metrics_.cluster_sources.back().value()))},
         {"to", obs::num(static_cast<std::uint64_t>(
              selection->server.value()))}});
  }
  metrics_.cluster_sources.push_back(selection->server);

  if (pending_fault_at_) {
    metrics_.failover_latencies.push_back(now - *pending_fault_at_);
    pending_fault_at_.reset();
  }

  const bool local = selection->path.links.empty();
  const Mbps cap = local ? local_rate_ : flow_cap_;
  inflight_ = transfers_.start_transfer(
      selection->path.links, part_size(index), cap,
      [this, index](SimTime t) { on_cluster_done(index, t); },
      flow_weight_);

  if (std::isfinite(stall_timeout_)) {
    watchdog_ = sim_.schedule_in(
        Duration{stall_timeout_},
        [this, index](SimTime t) { on_stall_timeout(index, t); });
  }
}

void Session::cancel_watchdog() {
  if (watchdog_.valid()) {
    sim_.queue().cancel(watchdog_);
    watchdog_ = sim::EventHandle{};
  }
}

void Session::on_stall_timeout(std::size_t index, SimTime now) {
  watchdog_ = sim::EventHandle{};
  if (done_ || index != next_cluster_ || !inflight_) return;
  // A transfer still delivering is congested, not dead: let it run and
  // check again one timeout from now.
  if (transfers_.active(*inflight_) &&
      transfers_.current_rate(*inflight_) >= stall_rate_floor_) {
    watchdog_ = sim_.schedule_in(
        Duration{stall_timeout_},
        [this, index](SimTime t) { on_stall_timeout(index, t); });
    return;
  }
  // The cluster is overdue: abandon the transfer and re-select a source.
  // (The flow may already be gone if the source was black-holed.)
  // One allocation epoch spans the abandon + the retry's replacement flow.
  const net::FluidNetwork::BatchGuard epoch =
      transfers_.network().defer_reallocate();
  if (transfers_.active(*inflight_)) transfers_.cancel(*inflight_);
  inflight_.reset();
  black_holed_links_.clear();
  ++metrics_.stall_retries;
  ++retries_this_cluster_;
  // Forget the abandoned source so a return to it counts as a new choice.
  metrics_.cluster_sources.pop_back();
  if (retries_this_cluster_ > max_retries_) {
    fail(now, "cluster stalled beyond retry budget");
    return;
  }
  if (metrics_.stall_retries > max_total_retries_) {
    fail(now, "session stalled beyond total retry budget");
    return;
  }
  VOD_LOG_INFO("session: cluster " << index << " stalled; retrying");
  trace_session("session.stall", trace_id_,
                {{"cluster", obs::num(static_cast<std::uint64_t>(index))},
                 {"retries", obs::num(static_cast<std::uint64_t>(
                      metrics_.stall_retries))}});
  fetch_next_cluster(now);
}

void Session::on_cluster_done(std::size_t index, SimTime now) {
  ensure(index == metrics_.cluster_completed.size(),
      "Session: clusters completed out of order");
  cancel_watchdog();
  inflight_.reset();
  black_holed_links_.clear();
  retries_this_cluster_ = 0;
  metrics_.cluster_completed.push_back(now);
  ++next_cluster_;
  if (next_cluster_ == part_count_) {
    finish(now);
  } else {
    fetch_next_cluster(now);
  }
}

void Session::mark_source_fault(SimTime now) {
  if (!active() || !inflight_) return;
  if (!pending_fault_at_) pending_fault_at_ = now;
}

void Session::fail_over(const std::string& cause) {
  if (!active() || !inflight_) return;
  // The teardown of the doomed transfer and the start of its replacement
  // happen at one instant: solve the fair shares once, when both are in.
  const net::FluidNetwork::BatchGuard epoch =
      transfers_.network().defer_reallocate();
  cancel_watchdog();
  if (transfers_.active(*inflight_)) transfers_.cancel(*inflight_);
  inflight_.reset();
  black_holed_links_.clear();
  metrics_.cluster_sources.pop_back();
  ++metrics_.proactive_failovers;
  VOD_LOG_INFO("session: failing over (" << cause << ")");
  trace_session("session.failover", trace_id_, {{"cause", cause}});
  fetch_next_cluster(sim_.now());
}

void Session::black_hole_inflight() {
  if (!active() || !inflight_) return;
  // Keep inflight_ set: from the session's view the download is still
  // "running", it just never delivers another byte.
  if (transfers_.active(*inflight_)) {
    black_holed_links_ = transfers_.network().flow_links(*inflight_);
    transfers_.cancel(*inflight_);
  }
}

const std::vector<LinkId>& Session::inflight_links() const {
  static const std::vector<LinkId> kNone;
  if (!inflight_) return kNone;
  if (!transfers_.active(*inflight_)) return black_holed_links_;
  return transfers_.network().flow_links(*inflight_);
}

Mbps Session::inflight_rate() const {
  if (!active() || !inflight_ || !transfers_.active(*inflight_)) {
    return Mbps{0.0};
  }
  return transfers_.current_rate(*inflight_);
}

std::optional<NodeId> Session::streaming_source() const {
  if (!active() || !inflight_) return std::nullopt;
  return metrics_.cluster_sources.back();
}

void Session::finalize_playback() {
  // Reconstruct the playback timeline from cluster completion times.
  // Playback begins once `prebuffer_clusters` clusters have arrived; each
  // cluster plays for part_size * 8 / bitrate seconds; a cluster arriving
  // after the playhead reached it is a rebuffer event.
  const std::size_t done = metrics_.cluster_completed.size();
  if (done == 0) return;

  const std::size_t prebuffer = prebuffer_clusters_;
  if (done < prebuffer) return;  // never started playing

  // Playback begins once the prebuffer is in — or once the user unpauses,
  // whichever is later.
  const SimTime buffered = metrics_.cluster_completed[prebuffer - 1];
  const double start = advance_playhead(buffered.seconds(), Duration{0.0});
  metrics_.playback_started_at = SimTime{start};

  double playhead = start;
  for (std::size_t k = 0; k < done; ++k) {
    const double arrival = metrics_.cluster_completed[k].seconds();
    if (arrival > playhead) {
      // Stall: the playhead waited for this cluster.
      metrics_.rebuffer_seconds += arrival - playhead;
      ++metrics_.rebuffer_events;
      playhead = arrival;
    }
    playhead = advance_playhead(
        playhead,
        Duration{part_size(k).megabits() / video_.bitrate.value()});
  }
  if (metrics_.finished) {
    metrics_.playback_finished_at = SimTime{playhead};
  }
}

void Session::finish(SimTime now) {
  if (pause_started_) resume();  // close an open pause at "now"
  done_ = true;
  metrics_.finished = true;
  metrics_.download_completed_at = now;
  const double span = now - metrics_.requested_at;
  if (span > 0.0) {
    metrics_.mean_delivered_rate = Mbps{video_.size.megabits() / span};
  }
  finalize_playback();
  if (obs::TraceRecorder* tr = obs::trace_sink()) {
    trace_session("session.finish", trace_id_,
                  {{"switches", obs::num(static_cast<std::uint64_t>(
                       metrics_.server_switches))}});
    tr->async_end(obs::Subsystem::kSession, "session", trace_id_);
  }
  notify_done();
}

void Session::notify_done() {
  if (observer_ != nullptr) observer_->on_session_done(*this);
  if (on_done_) on_done_(*this);
}

void Session::fail(SimTime now, const std::string& reason) {
  if (pause_started_) resume();  // close an open pause at "now"
  cancel_watchdog();
  done_ = true;
  metrics_.failed = true;
  metrics_.failure_reason = reason;
  metrics_.download_completed_at = now;
  if (inflight_ && transfers_.active(*inflight_)) {
    transfers_.cancel(*inflight_);
  }
  inflight_.reset();
  black_holed_links_.clear();
  finalize_playback();
  if (obs::TraceRecorder* tr = obs::trace_sink()) {
    trace_session("session.fail", trace_id_, {{"reason", reason}});
    tr->async_end(obs::Subsystem::kSession, "session", trace_id_);
  }
  notify_done();
}

}  // namespace vod::stream
