// Admission control — the enforcement half of the paper's QoS goal.
//
// "What we want to achieve by enforcing our routing algorithm is to provide
//  a minimum QoS, which should be equal to the minimum video frame rate for
//  which a video can be considered decent."
//
// Routing alone cannot guarantee that: if every path to every holder is
// saturated, the stream will rebuffer no matter which one the VRA picks.
// The admission controller closes the loop by checking, against the same
// limited-access statistics the VRA uses, that the chosen path has enough
// residual bandwidth to sustain the title's bitrate before the session is
// allowed to start.
#pragma once

#include <array>

#include "common/units.h"
#include "common/user_class.h"
#include "db/database.h"
#include "routing/path.h"
#include "vra/vra.h"

namespace vod::service {

/// Admission policy knobs.
struct AdmissionOptions {
  /// Admit iff path residual >= headroom * title bitrate.  1.0 = exactly
  /// sustainable; >1 keeps slack for SNMP staleness and jitter.
  double required_headroom = 1.0;
  /// Per-class multipliers on `required_headroom`, indexed by
  /// class_index().  Lower classes demand more slack (their streams are
  /// the first shed, so admitting them right at the edge just converts
  /// admission into a deferred stall); premium can run closer to the
  /// line.  All-ones = every class needs the same residual,
  /// required_headroom x bitrate.
  std::array<double, kUserClassCount> class_headroom{1.0, 1.0, 1.0};
};

/// Stateless residual-bandwidth check against the limited-access view.
class AdmissionController {
 public:
  explicit AdmissionController(db::LimitedAccessView view,
                               AdmissionOptions options = {});

  /// Smallest (total - used) along the path's links; local (empty) paths
  /// report the home server's access bandwidth.  Uses the database's SNMP
  /// statistics — the same slightly stale picture the VRA routes on.
  [[nodiscard]] Mbps path_residual(const routing::Path& path,
                                   NodeId home) const;

  /// Should this VRA decision be admitted for a `cls` title of `bitrate`?
  /// The path must clear this class's headroom (required_rate below);
  /// locally served sessions are always admitted (no network involved).
  [[nodiscard]] bool admit(const vra::Decision& decision, Mbps bitrate,
                           UserClass cls) const;

  /// Residual bandwidth the path must show for a `cls` title of `bitrate`:
  /// required_headroom x class_headroom[cls] x bitrate.  Also the deficit
  /// target the preemption planner must free on each short link.
  [[nodiscard]] Mbps required_rate(Mbps bitrate, UserClass cls) const;

  [[nodiscard]] const AdmissionOptions& options() const { return options_; }

 private:
  db::LimitedAccessView view_;
  AdmissionOptions options_;
};

}  // namespace vod::service
