#include "db/database.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/contract.h"

namespace vod::db {

Database::Database(AdminCredential admin) : admin_(std::move(admin)) {
  require(!admin_.secret.empty(), "Database: admin secret must be non-empty");
}

VideoId Database::register_video(std::string title, MegaBytes size,
                                 Mbps bitrate) {
  require(!title.empty(), "register_video: empty title");
  require(std::isfinite(size.value()) && size.value() > 0.0,
      "register_video: size must be positive and finite");
  require(std::isfinite(bitrate.value()) && bitrate.value() > 0.0,
      "register_video: bitrate must be positive and finite");
  const VideoId id{next_video_++};
  videos_.emplace(id, VideoInfo{id, std::move(title), size, bitrate});
  return id;
}

void Database::register_server(NodeId node, std::string name,
                               ServerConfig config) {
  require(node.valid(), "register_server: invalid node");
  require(!servers_.contains(node), "register_server: duplicate server entry");
  ServerRecord record;
  record.id = node;
  record.name = std::move(name);
  record.config = config;
  servers_.emplace(node, std::move(record));
}

void Database::register_link(LinkId link, std::string name,
                             Mbps total_bandwidth) {
  require(link.valid(), "register_link: invalid link");
  require(!links_.contains(link), "register_link: duplicate link entry");
  require(std::isfinite(total_bandwidth.value()) &&
              total_bandwidth.value() > 0.0,
      "register_link: bandwidth must be positive and finite");
  LinkRecord record;
  record.id = link;
  record.name = std::move(name);
  record.total_bandwidth = total_bandwidth;
  links_.emplace(link, std::move(record));
}

FullAccessView Database::full_view() const { return FullAccessView{this}; }

LimitedAccessView Database::limited_view(const AdminCredential& credential) {
  require(credential == admin_, "limited_view: bad admin credential");
  return LimitedAccessView{this};
}

// --- FullAccessView ---

std::vector<VideoInfo> FullAccessView::list_videos() const {
  std::vector<VideoInfo> out;
  out.reserve(db_->videos_.size());
  for (const auto& [id, info] : db_->videos_) out.push_back(info);
  return out;
}

std::optional<VideoInfo> FullAccessView::video(VideoId id) const {
  const auto it = db_->videos_.find(id);
  if (it == db_->videos_.end()) return std::nullopt;
  return it->second;
}

std::optional<VideoInfo> FullAccessView::find_by_title(
    const std::string& title) const {
  for (const auto& [id, info] : db_->videos_) {
    if (info.title == title) return info;
  }
  return std::nullopt;
}

std::vector<NodeId> FullAccessView::servers_with_title(VideoId video) const {
  std::vector<NodeId> out;
  for (const auto& [node, record] : db_->servers_) {
    if (record.titles.contains(video)) out.push_back(node);
  }
  return out;
}

std::vector<VideoInfo> FullAccessView::search(
    const std::string& needle) const {
  std::vector<VideoInfo> out;
  for (const auto& [id, info] : db_->videos_) {
    if (info.title.find(needle) != std::string::npos) out.push_back(info);
  }
  return out;
}

// --- LimitedAccessView ---

namespace {
template <typename Map, typename Key>
auto& find_or_throw(Map& map, Key key, const char* what) {
  const auto it = map.find(key);
  require_found(it != map.end(), what);
  return it->second;
}
}  // namespace

void LimitedAccessView::update_link_stats(LinkId link, Mbps used,
                                          double utilization, SimTime when) {
  require(std::isfinite(used.value()) && used.value() >= 0.0 &&
              std::isfinite(utilization) && utilization >= 0.0 &&
              utilization <= 1.0 && std::isfinite(when.seconds()),
      "update_link_stats: bad statistics");
  auto& record =
      find_or_throw(db_->links_, link, "update_link_stats: unknown link");
  // SNMP re-reporting identical counters refreshes the staleness clock but
  // is not a change: the link epoch moves only when a VRA-relevant value
  // actually differs.
  if (record.used_bandwidth.value() != used.value() ||
      record.utilization != utilization) {
    record.used_bandwidth = used;
    record.utilization = utilization;
    ++db_->links_changed_epoch_;
  }
  record.last_snmp_update = when;
}

void LimitedAccessView::set_link_online(LinkId link, bool online) {
  auto& record =
      find_or_throw(db_->links_, link, "set_link_online: unknown link");
  if (record.online == online) return;
  record.online = online;
  ++db_->links_changed_epoch_;
}

const LinkRecord& LimitedAccessView::link(LinkId link) const {
  return find_or_throw(db_->links_, link, "link: unknown link");
}

std::vector<LinkRecord> LimitedAccessView::links() const {
  std::vector<LinkRecord> out;
  out.reserve(db_->links_.size());
  for (const auto& [id, record] : db_->links_) out.push_back(record);
  return out;
}

const ServerRecord& LimitedAccessView::server(NodeId node) const {
  return find_or_throw(db_->servers_, node, "server: unknown server");
}

std::vector<ServerRecord> LimitedAccessView::servers() const {
  std::vector<ServerRecord> out;
  out.reserve(db_->servers_.size());
  for (const auto& [id, record] : db_->servers_) out.push_back(record);
  return out;
}

void LimitedAccessView::set_server_config(NodeId node, ServerConfig config) {
  find_or_throw(db_->servers_, node, "set_server_config: unknown server")
      .config = config;
}

void LimitedAccessView::set_server_online(NodeId node, bool online) {
  auto& record =
      find_or_throw(db_->servers_, node, "set_server_online: unknown server");
  record.online = online;
}

void LimitedAccessView::add_title(NodeId node, VideoId video) {
  require(!(!db_->videos_.contains(video)), "add_title: unknown video");
  find_or_throw(db_->servers_, node, "add_title: unknown server")
      .titles.insert(video);
}

void LimitedAccessView::remove_title(NodeId node, VideoId video) {
  find_or_throw(db_->servers_, node, "remove_title: unknown server")
      .titles.erase(video);
}

double LimitedAccessView::stats_age(LinkId link, SimTime now) const {
  const auto& record =
      find_or_throw(db_->links_, link, "stats_age: unknown link");
  return now - record.last_snmp_update;
}

}  // namespace vod::db
