// Static network topology: named nodes joined by undirected capacity links.
//
// This is the "predefined network" the paper requires — all participating
// nodes and their link bandwidths are known in advance (service
// initialization, section "Service initialization").
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace vod::net {

/// A backbone link between two sites.
struct LinkInfo {
  LinkId id;
  NodeId a;
  NodeId b;
  Mbps capacity;
  std::string name;  // e.g. "Patra-Athens"

  /// The endpoint that is not `node`; throws if `node` is neither endpoint.
  [[nodiscard]] NodeId other_end(NodeId node) const;
};

/// The network graph with node names and link capacities.  Immutable after
/// construction in typical use; nodes/links are appended densely.
class Topology {
 public:
  NodeId add_node(std::string name);

  /// Adds an undirected link; endpoints must exist and differ, capacity must
  /// be positive and finite.  Duplicate (a,b) links are allowed (parallel
  /// links).
  LinkId add_link(NodeId a, NodeId b, Mbps capacity, std::string name = {});

  [[nodiscard]] std::size_t node_count() const { return node_names_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  [[nodiscard]] const std::string& node_name(NodeId node) const;
  [[nodiscard]] const LinkInfo& link(LinkId link) const;
  [[nodiscard]] const std::vector<LinkInfo>& links() const { return links_; }

  /// Links with `node` as an endpoint (the "adjacent links" of eq. 2).
  [[nodiscard]] const std::vector<LinkId>& links_adjacent_to(
      NodeId node) const;

  /// First link joining `a` and `b` (either orientation), if any.
  [[nodiscard]] std::optional<LinkId> find_link(NodeId a, NodeId b) const;

  /// Node with the given name, if any.
  [[nodiscard]] std::optional<NodeId> find_node(
      const std::string& name) const;

  [[nodiscard]] bool has_node(NodeId node) const {
    return node.valid() && node.value() < node_names_.size();
  }
  [[nodiscard]] bool has_link(LinkId link) const {
    return link.valid() && link.value() < links_.size();
  }

 private:
  void check_node(NodeId node) const;

  std::vector<std::string> node_names_;
  std::vector<LinkInfo> links_;
  std::vector<std::vector<LinkId>> adjacency_;
};

}  // namespace vod::net
