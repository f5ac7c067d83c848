// Record types stored in the service database.
//
// The paper's database holds one entry per server and per link, each split
// into a full-access part (what any user may see: the title catalog) and a
// limited-access part (network/configuration state only administrators and
// the VRA may read).  These structs are those entries.
#pragma once

#include <set>
#include <string>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/units.h"

namespace vod::db {

/// A video title in the catalog.
struct VideoInfo {
  VideoId id;
  std::string title;
  MegaBytes size;
  Mbps bitrate;  // encoding rate required for real-time playback

  /// Playback duration implied by size and bitrate.
  [[nodiscard]] double duration_seconds() const {
    return size.megabits() / bitrate.value();
  }
};

/// Limited-access configuration of a video server (entered by the
/// administrators during service initialization).
struct ServerConfig {
  int disk_count = 0;
  MegaBytes disk_capacity;   // per disk
  Mbps access_bandwidth;     // the server's connection to the network
  // Future-work extension: server performance factors (paper, "Conclusions").
  double cpu_load = 0.0;     // 0..1
  double ram_load = 0.0;     // 0..1
};

/// One server's database entry.
struct ServerRecord {
  NodeId id;
  std::string name;
  std::set<VideoId> titles;  // full-access: titles this server can provide
  ServerConfig config;       // limited-access
  bool online = true;        // limited-access: can it serve right now?
};

/// One link's database entry.
struct LinkRecord {
  LinkId id;
  std::string name;
  Mbps total_bandwidth;          // limited-access, admin-entered (eq. 2 LBW)
  Mbps used_bandwidth;           // limited-access, SNMP-entered (eq. 2 UBW)
  double utilization = 0.0;      // limited-access, SNMP-entered (eq. 3 LT)
  bool online = true;            // limited-access: false after a link failure
  SimTime last_snmp_update{0.0};
};

}  // namespace vod::db
