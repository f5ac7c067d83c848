#include "net/topology.h"

#include <stdexcept>
#include <utility>

#include "common/contract.h"

namespace vod::net {

NodeId LinkInfo::other_end(NodeId node) const {
  if (node == a) return b;
  if (node == b) return a;
  fail_require("LinkInfo::other_end: node not an endpoint");
}

NodeId Topology::add_node(std::string name) {
  require(!name.empty(), "Topology::add_node: empty name");
  const NodeId id{static_cast<NodeId::underlying_type>(node_names_.size())};
  node_names_.push_back(std::move(name));
  adjacency_.emplace_back();
  return id;
}

void Topology::check_node(NodeId node) const {
  require(has_node(node), "Topology: unknown node");
}

LinkId Topology::add_link(NodeId a, NodeId b, Mbps capacity,
                          std::string name) {
  check_node(a);
  check_node(b);
  require(a != b, "Topology::add_link: self-loop");
  require_positive_finite(capacity.value(),
      "Topology::add_link: capacity must be positive and finite");
  const LinkId id{static_cast<LinkId::underlying_type>(links_.size())};
  if (name.empty()) {
    name = node_names_[a.value()] + "-" + node_names_[b.value()];
  }
  links_.push_back(LinkInfo{id, a, b, capacity, std::move(name)});
  adjacency_[a.value()].push_back(id);
  adjacency_[b.value()].push_back(id);
  return id;
}

const std::string& Topology::node_name(NodeId node) const {
  check_node(node);
  return node_names_[node.value()];
}

const LinkInfo& Topology::link(LinkId link) const {
  require_found(has_link(link), "Topology::link: unknown link");
  return links_[link.value()];
}

const std::vector<LinkId>& Topology::links_adjacent_to(NodeId node) const {
  check_node(node);
  return adjacency_[node.value()];
}

std::optional<LinkId> Topology::find_link(NodeId a, NodeId b) const {
  check_node(a);
  check_node(b);
  for (const LinkId id : adjacency_[a.value()]) {
    const LinkInfo& info = links_[id.value()];
    if ((info.a == a && info.b == b) || (info.a == b && info.b == a)) {
      return id;
    }
  }
  return std::nullopt;
}

std::optional<NodeId> Topology::find_node(const std::string& name) const {
  for (std::size_t i = 0; i < node_names_.size(); ++i) {
    if (node_names_[i] == name) {
      return NodeId{static_cast<NodeId::underlying_type>(i)};
    }
  }
  return std::nullopt;
}

}  // namespace vod::net
