// Weighted undirected graph for route computation.
//
// The routing layer is deliberately independent of the network simulator:
// the VRA builds a Graph snapshot from the database's link entries (weights
// are Link Validation Numbers), runs Dijkstra on it, and throws it away.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"

namespace vod::routing {

/// One directed half of an undirected edge, as seen from its origin node.
struct Edge {
  NodeId to;
  LinkId link;
  double weight = 0.0;
};

/// An undirected graph with non-negative edge weights.  Nodes are dense
/// indices (NodeId 0..n-1); edges carry the LinkId of the network link they
/// model so routes can be mapped back onto the topology.
class Graph {
 public:
  Graph() = default;

  /// Adds a node, returning its id (ids are assigned densely from 0).
  NodeId add_node(std::string name = {});

  /// Adds an undirected edge.  Both endpoints must exist, the weight must be
  /// non-negative (the paper's "negative validation" is a penalty magnitude,
  /// not a signed weight — see DESIGN.md), and `link` must not repeat.
  void add_undirected_edge(NodeId a, NodeId b, LinkId link, double weight);

  [[nodiscard]] std::size_t node_count() const { return adjacency_.size(); }
  [[nodiscard]] const std::vector<Edge>& neighbors(NodeId node) const;
  [[nodiscard]] const std::string& node_name(NodeId node) const;
  [[nodiscard]] bool has_node(NodeId node) const {
    return node.valid() && node.value() < adjacency_.size();
  }

  /// Weight of the edge carried by `link`, if it exists in this graph.
  [[nodiscard]] std::optional<double> edge_weight(LinkId link) const;

  /// Endpoints of `link`, if present.
  [[nodiscard]] std::optional<std::pair<NodeId, NodeId>> edge_endpoints(
      LinkId link) const;

  /// Number of undirected edges.
  [[nodiscard]] std::size_t edge_count() const { return edge_index_.size(); }

 private:
  struct EdgeLocation {
    NodeId a;
    NodeId b;
  };

  void check_node(NodeId node, const char* role) const;

  std::vector<std::vector<Edge>> adjacency_;
  std::vector<std::string> names_;
  // LinkId -> endpoints, for weight updates and lookups.
  std::vector<std::optional<EdgeLocation>> edge_index_;
};

}  // namespace vod::routing
