#include "routing/graph.h"

#include <stdexcept>
#include <utility>

#include "common/contract.h"

namespace vod::routing {

NodeId Graph::add_node(std::string name) {
  const NodeId id{static_cast<NodeId::underlying_type>(adjacency_.size())};
  adjacency_.emplace_back();
  if (name.empty()) name = "n" + std::to_string(id.value());
  names_.push_back(std::move(name));
  return id;
}

void Graph::check_node(NodeId node, const char* role) const {
  require(has_node(node),
      [&] { return std::string("Graph: unknown ") + role + " node"; });
}

void Graph::add_undirected_edge(NodeId a, NodeId b, LinkId link,
                                double weight) {
  check_node(a, "edge endpoint");
  check_node(b, "edge endpoint");
  require(a != b, "Graph: self-loops are not allowed");
  require(link.valid(), "Graph: invalid link id");
  require(!(weight < 0.0), "Graph: negative edge weight");
  require(!(link.value() < edge_index_.size() && edge_index_[link.value()]),
      "Graph: duplicate link id");
  adjacency_[a.value()].push_back(Edge{b, link, weight});
  adjacency_[b.value()].push_back(Edge{a, link, weight});
  if (edge_index_.size() <= link.value()) {
    edge_index_.resize(link.value() + 1);
  }
  edge_index_[link.value()] = EdgeLocation{a, b};
}

const std::vector<Edge>& Graph::neighbors(NodeId node) const {
  check_node(node, "query");
  return adjacency_[node.value()];
}

const std::string& Graph::node_name(NodeId node) const {
  check_node(node, "query");
  return names_[node.value()];
}

std::optional<double> Graph::edge_weight(LinkId link) const {
  if (!link.valid() || link.value() >= edge_index_.size() ||
      !edge_index_[link.value()]) {
    return std::nullopt;
  }
  const auto [a, b] = *edge_index_[link.value()];
  for (const Edge& e : adjacency_[a.value()]) {
    if (e.link == link) return e.weight;
  }
  return std::nullopt;
}

std::optional<std::pair<NodeId, NodeId>> Graph::edge_endpoints(
    LinkId link) const {
  if (!link.valid() || link.value() >= edge_index_.size() ||
      !edge_index_[link.value()]) {
    return std::nullopt;
  }
  const auto loc = *edge_index_[link.value()];
  return std::make_pair(loc.a, loc.b);
}

}  // namespace vod::routing
