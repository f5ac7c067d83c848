// The service database module.
//
// One in-process store with the paper's two conceptual sub-modules:
//   * FullAccessView   — what the user-facing web module may read: the video
//                        catalog and which servers offer which title.
//   * LimitedAccessView — what administrators, the SNMP module and the VRA
//                        may read and write: link bandwidth statistics and
//                        server configuration.
// A LimitedAccessView can only be obtained with the AdminCredential the
// database was created with, mirroring the paper's access restriction.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/units.h"
#include "db/records.h"

namespace vod::db {

/// Opaque administrator credential.
struct AdminCredential {
  std::string secret;

  friend bool operator==(const AdminCredential&,
                         const AdminCredential&) = default;
};

class FullAccessView;
class LimitedAccessView;

/// The shared data store.  Single-writer discrete-event use; not
/// thread-safe by design (the simulator is single-threaded and
/// deterministic).
class Database {
 public:
  explicit Database(AdminCredential admin);

  /// Registers a title in the global catalog.
  VideoId register_video(std::string title, MegaBytes size, Mbps bitrate);

  /// Registers a server entry (one per network node hosting a video
  /// server).  Duplicate ids throw.
  void register_server(NodeId node, std::string name, ServerConfig config);

  /// Registers a link entry with its admin-provided total bandwidth.
  void register_link(LinkId link, std::string name, Mbps total_bandwidth);

  /// Read-only catalog access for the user-facing web module.
  [[nodiscard]] FullAccessView full_view() const;

  /// Privileged access; throws std::invalid_argument on credential
  /// mismatch.
  LimitedAccessView limited_view(const AdminCredential& credential);

  // --- link epoch (the VRA graph memo's invalidation signal) ---

  /// Counter of effective link-state writes: a statistics value that
  /// actually differs, or an online flip.  A VRA graph built at epoch E is
  /// still valid while links_changed_epoch() == E.  Writes that change no
  /// stored value (SNMP re-reporting identical counters) do not advance it.
  [[nodiscard]] std::uint64_t links_changed_epoch() const {
    return links_changed_epoch_;
  }

 private:
  friend class FullAccessView;
  friend class LimitedAccessView;

  AdminCredential admin_;
  std::map<VideoId, VideoInfo> videos_;
  std::map<NodeId, ServerRecord> servers_;
  std::map<LinkId, LinkRecord> links_;
  VideoId::underlying_type next_video_ = 0;
  std::uint64_t links_changed_epoch_ = 0;
};

/// User-level read access: catalog browsing and title lookup.
class FullAccessView {
 public:
  [[nodiscard]] std::vector<VideoInfo> list_videos() const;
  [[nodiscard]] std::optional<VideoInfo> video(VideoId id) const;
  [[nodiscard]] std::optional<VideoInfo> find_by_title(
      const std::string& title) const;

  /// Servers whose full-access entry lists `video` (candidate sources).
  [[nodiscard]] std::vector<NodeId> servers_with_title(VideoId video) const;

  /// Case-sensitive substring search over titles.
  [[nodiscard]] std::vector<VideoInfo> search(
      const std::string& needle) const;

  [[nodiscard]] std::size_t video_count() const {
    return db_->videos_.size();
  }

 private:
  friend class Database;
  explicit FullAccessView(const Database* db) : db_(db) {}
  const Database* db_;
};

/// Administrator/VRA/SNMP access: network statistics and configuration.
class LimitedAccessView {
 public:
  // --- link statistics (written by the SNMP module, read by the VRA) ---
  void update_link_stats(LinkId link, Mbps used, double utilization,
                         SimTime when);
  /// Marks a link reachable/unreachable (written by the SNMP module when a
  /// poll detects a failure, or by an administrator).
  void set_link_online(LinkId link, bool online);
  [[nodiscard]] const LinkRecord& link(LinkId link) const;
  [[nodiscard]] std::vector<LinkRecord> links() const;

  // --- server configuration and placement ---
  [[nodiscard]] const ServerRecord& server(NodeId node) const;
  [[nodiscard]] std::vector<ServerRecord> servers() const;
  void set_server_config(NodeId node, ServerConfig config);
  void set_server_online(NodeId node, bool online);
  /// Records that `node` now holds (or no longer holds) a copy of `video`;
  /// these are the writes the DMA performs when it caches or evicts.
  void add_title(NodeId node, VideoId video);
  void remove_title(NodeId node, VideoId video);

  /// Staleness of a link's statistics relative to `now`.
  [[nodiscard]] double stats_age(LinkId link, SimTime now) const;

  // --- link epoch (see Database) ---
  [[nodiscard]] std::uint64_t links_changed_epoch() const {
    return db_->links_changed_epoch();
  }

 private:
  friend class Database;
  explicit LimitedAccessView(Database* db) : db_(db) {}
  Database* db_;
};

}  // namespace vod::db
