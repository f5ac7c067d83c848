#include "snmp/snmp_module.h"

#include <algorithm>
#include <stdexcept>

#include "common/contract.h"
#include "obs/trace.h"

namespace vod::snmp {

SnmpModule::SnmpModule(sim::Simulation& sim, net::FluidNetwork& network,
                       db::LimitedAccessView view, Duration interval)
    : sim_(sim), network_(network), view_(view), interval_(interval) {
  require(!(interval_.seconds() <= 0.0),
          "SnmpModule: interval must be positive");
}

void SnmpModule::start() {
  if (!task_) {
    task_ = std::make_unique<sim::PeriodicTask>(
        sim_, interval_, [this](SimTime now) { sample(now); });
  }
  task_->start();
}

void SnmpModule::stop() {
  if (task_) task_->stop();
}

void SnmpModule::poll_now(SimTime now) { sample(now); }

void SnmpModule::sample(SimTime now) {
  if (network_.time() < now) network_.set_time(now);
  const net::Topology& topology = network_.topology();
  obs::TraceRecorder* tr = obs::trace_sink();
  if (tr != nullptr) {
    tr->begin(obs::Subsystem::kSnmp, "snmp.sweep",
              {{"links", obs::num(static_cast<std::uint64_t>(
                   topology.link_count()))}});
  }
  const std::vector<net::LinkInfo>& links = topology.links();
  // One index walk per link: utilization derives from the same `used`
  // figure (the exact arithmetic FluidNetwork::utilization performs)
  // instead of re-summing the link's flows.
  for (const net::LinkInfo& info : links) {
    const Mbps used = count_vod_flows_ ? network_.used_bandwidth(info.id)
                                       : network_.background(info.id);
    view_.update_link_stats(info.id, used,
                            std::clamp(used / info.capacity, 0.0, 1.0), now);
    view_.set_link_online(info.id, network_.link_up(info.id));
  }
  ++poll_count_;
  last_poll_at_ = now;
  if (tr != nullptr) tr->end(obs::Subsystem::kSnmp, "snmp.sweep");
}

}  // namespace vod::snmp
