// The Disk storage and Manipulation Algorithm (DMA) — Figure 2 of the
// paper, implemented faithfully.
//
// Per request for a video at this server:
//   * already cached           -> give it a point (popularity credit)
//   * not cached, disks fit it -> write it (striped) immediately
//   * not cached, disks full   -> give it a point; if its points now exceed
//     the least-popular cached title's points, delete that title and write
//     the newcomer if it now fits.
//
// Two documented extensions beyond the figure (both default to the paper's
// behaviour):
//   * admission_threshold — the body text says a title is cached only after
//     "over a certain number of requests"; the figure stores on first
//     request when space is free.  Threshold 0 reproduces the figure;
//     higher values reproduce the text.
//   * multi_evict — the figure deletes at most one victim per request, so a
//     large newcomer can fail to fit even when several unpopular titles
//     could be evicted.  multi_evict keeps evicting while the newcomer
//     remains more popular than the current least-popular title.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "storage/disk_array.h"

namespace vod::dma {

/// Tuning knobs; defaults reproduce Figure 2 exactly.
struct DmaOptions {
  std::uint64_t admission_threshold = 0;
  bool multi_evict = false;
};

/// What the algorithm did with one request.
enum class DmaOutcome {
  kHit,                // already cached; granted a point
  kStored,             // written to the disks (possibly after eviction)
  kPointedOnly,        // not cached, not (yet) admitted; granted a point
};

/// Events for wiring the cache to the database (the service mirrors cache
/// contents into each server's full-access title list).
struct DmaCallbacks {
  std::function<void(VideoId)> on_admit;  // video became locally available
  std::function<void(VideoId)> on_evict;  // video was deleted from disks
};

/// The per-server popularity cache over a striped disk array.
class DmaCache {
 public:
  /// `disks` must outlive the cache.
  DmaCache(storage::DiskArray& disks, DmaOptions options = {},
           DmaCallbacks callbacks = {});

  /// Runs Figure 2 for one request of `video` (`size` from the catalog).
  DmaOutcome on_request(VideoId video, MegaBytes size);

  [[nodiscard]] std::uint64_t points(VideoId video) const;

  [[nodiscard]] bool cached(VideoId video) const {
    return disks_.holds(video);
  }
  [[nodiscard]] std::vector<VideoId> cached_videos() const {
    return disks_.stored_videos();
  }

  /// The cached title with the fewest points (ties broken toward the
  /// lowest video id, deterministically); nullopt when nothing is cached.
  [[nodiscard]] std::optional<VideoId> least_popular_cached() const;

  /// Propagates a disk failure: titles lost from the array are reported
  /// through on_evict (so the database stops advertising them) and
  /// returned.  Their popularity points survive, so they re-enter the
  /// cache quickly once demand recurs.
  std::vector<VideoId> handle_disk_failure(std::size_t slot);

  [[nodiscard]] const DmaOptions& options() const { return options_; }
  [[nodiscard]] storage::DiskArray& disks() { return disks_; }

  /// Names this cache's server in trace events (caches have no inherent
  /// node identity; the service labels each one when wiring the topology).
  void set_trace_node(std::uint32_t node) { trace_node_ = node; }

  // Counters for the benches.
  [[nodiscard]] std::uint64_t hit_count() const { return hits_; }
  [[nodiscard]] std::uint64_t store_count() const { return stores_; }
  [[nodiscard]] std::uint64_t eviction_count() const { return evictions_; }
  [[nodiscard]] std::uint64_t request_count() const { return requests_; }

 private:
  bool try_store(VideoId video, MegaBytes size);
  void evict(VideoId victim);

  storage::DiskArray& disks_;
  DmaOptions options_;
  DmaCallbacks callbacks_;
  std::uint32_t trace_node_ = 0;
  std::map<VideoId, std::uint64_t> points_;
  std::uint64_t hits_ = 0;
  std::uint64_t stores_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t requests_ = 0;
};

}  // namespace vod::dma
