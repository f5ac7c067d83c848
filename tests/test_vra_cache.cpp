// The VRA graph memo: the weighted graph and per-home shortest-path trees
// are kept while the database's links epoch stands still and rebuilt when
// it moves — and none of it changes a single decision.
#include "vra/vra.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "grnet/grnet.h"

namespace vod::vra {
namespace {

const db::AdminCredential kAdmin{"secret"};

/// The paper's case-study database at one instant of Table 2.
struct CaseFixture {
  grnet::CaseStudy g = grnet::build_case_study();
  db::Database db{kAdmin};
  VideoId movie;

  explicit CaseFixture(grnet::TimeOfDay t = grnet::TimeOfDay::k8am) {
    for (std::size_t n = 0; n < g.topology.node_count(); ++n) {
      const NodeId node{static_cast<NodeId::underlying_type>(n)};
      db.register_server(node, g.topology.node_name(node), {});
    }
    for (const net::LinkInfo& info : g.topology.links()) {
      db.register_link(info.id, info.name, info.capacity);
    }
    movie = db.register_video("movie", MegaBytes{900.0}, Mbps{2.0});
    auto view = db.limited_view(kAdmin);
    for (const LinkId link : g.links_in_paper_order()) {
      const grnet::LinkSample sample = grnet::table2_sample(g, link, t);
      view.update_link_stats(link, sample.used, sample.utilization,
                             grnet::time_of(t));
    }
  }

  void place(NodeId server) {
    db.limited_view(kAdmin).add_title(server, movie);
  }

  db::LimitedAccessView view() { return db.limited_view(kAdmin); }

  Vra make_vra(ValidationOptions options = {}) {
    return Vra{g.topology, db.full_view(), db.limited_view(kAdmin),
               std::move(options)};
  }
};

/// Every edge weight of the engine's graph must equal a from-scratch build
/// exactly (bit for bit, hence EXPECT_EQ on doubles).
void expect_graph_matches_fresh_build(const CaseFixture& fx, const Vra& vra) {
  const routing::Graph& cached = vra.routing_graph();
  const routing::Graph fresh = vra.current_weighted_graph();
  ASSERT_EQ(cached.node_count(), fresh.node_count());
  ASSERT_EQ(cached.edge_count(), fresh.edge_count());
  for (const net::LinkInfo& info : fx.g.topology.links()) {
    const auto cached_w = cached.edge_weight(info.id);
    const auto fresh_w = fresh.edge_weight(info.id);
    ASSERT_EQ(cached_w.has_value(), fresh_w.has_value());
    if (cached_w) {
      EXPECT_EQ(*cached_w, *fresh_w);
    }
  }
}

TEST(VraCache, GraphReusedUntilEpochAdvances) {
  CaseFixture fx;
  fx.place(fx.g.thessaloniki);
  const Vra vra = fx.make_vra();
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());
  EXPECT_EQ(vra.cache_stats().graph_rebuilds, 1u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());
  }
  EXPECT_EQ(vra.cache_stats().graph_rebuilds, 1u);
  EXPECT_EQ(vra.cache_stats().graph_hits, 5u);
}

TEST(VraCache, StatsWriteTriggersRebuild) {
  CaseFixture fx;
  fx.place(fx.g.thessaloniki);
  const Vra vra = fx.make_vra();
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());

  fx.view().update_link_stats(fx.g.patra_athens, Mbps{1.9}, 0.95,
                              SimTime{100.0});
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());
  EXPECT_EQ(vra.cache_stats().graph_rebuilds, 2u);
  EXPECT_EQ(vra.cache_stats().graph_hits, 0u);
  expect_graph_matches_fresh_build(fx, vra);
}

TEST(VraCache, IdenticalSnmpRewriteIsStillAHit) {
  CaseFixture fx;
  fx.place(fx.g.thessaloniki);
  const Vra vra = fx.make_vra();
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());
  // SNMP re-reports the very same counters (as it does on quiet links).
  const db::LinkRecord before = fx.view().link(fx.g.patra_athens);
  fx.view().update_link_stats(fx.g.patra_athens, before.used_bandwidth,
                              before.utilization, SimTime{90.0});
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());
  EXPECT_EQ(vra.cache_stats().graph_hits, 1u);
  EXPECT_EQ(vra.cache_stats().graph_rebuilds, 1u);
}

TEST(VraCache, OfflineLinkIsExcludedAndFlipRebuildsGraph) {
  CaseFixture fx;
  fx.place(fx.g.thessaloniki);
  const Vra vra = fx.make_vra();
  // Warm the cache: U2,U3,U4 is the corrected Experiment A route.
  const auto warm = vra.select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(warm.has_value());
  ASSERT_TRUE(vra.routing_graph().edge_weight(fx.g.patra_ioannina));

  // Kill Patra-Ioannina (U2-U3): membership changes -> full rebuild, and the
  // offline link must vanish from the weighted graph.
  fx.view().set_link_online(fx.g.patra_ioannina, false);
  const auto rerouted = vra.select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(rerouted.has_value());
  EXPECT_EQ(vra.cache_stats().graph_rebuilds, 2u);
  EXPECT_FALSE(vra.routing_graph().edge_weight(fx.g.patra_ioannina));
  // The decision must route around the dead link.
  for (std::size_t i = 0; i + 1 < rerouted->path.nodes.size(); ++i) {
    EXPECT_FALSE((rerouted->path.nodes[i] == fx.g.patra &&
                  rerouted->path.nodes[i + 1] == fx.g.ioannina) ||
                 (rerouted->path.nodes[i] == fx.g.ioannina &&
                  rerouted->path.nodes[i + 1] == fx.g.patra));
  }
  expect_graph_matches_fresh_build(fx, vra);

  // Back online: invalidation fires again and the edge reappears.
  fx.view().set_link_online(fx.g.patra_ioannina, true);
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());
  EXPECT_EQ(vra.cache_stats().graph_rebuilds, 3u);
  EXPECT_TRUE(vra.routing_graph().edge_weight(fx.g.patra_ioannina));
  expect_graph_matches_fresh_build(fx, vra);
}

TEST(VraCache, OfflineServerIsReconsideredWithoutGraphRebuild) {
  CaseFixture fx;
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  const Vra vra = fx.make_vra();
  const auto both = vra.select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(both.has_value());
  EXPECT_EQ(both->server, fx.g.thessaloniki);

  // A server going offline changes the holder set, not the link graph: the
  // next decision must see it immediately while the graph stays cached.
  fx.view().set_server_online(fx.g.thessaloniki, false);
  const auto fallback = vra.select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(fallback->server, fx.g.xanthi);
  EXPECT_EQ(vra.cache_stats().graph_rebuilds, 1u);
  EXPECT_EQ(vra.cache_stats().graph_hits, 1u);
}

TEST(VraCache, StatsChangeOnOfflineLinkStillMovesNeighborWeights) {
  CaseFixture fx;
  fx.place(fx.g.thessaloniki);
  const Vra vra = fx.make_vra();
  fx.view().set_link_online(fx.g.patra_ioannina, false);
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());

  // The offline link's statistics still feed its endpoints' node
  // validations (eq. 2 does not filter by online), so a stats write on it
  // must rebuild the graph and move the neighboring online edges.
  const double before =
      *vra.routing_graph().edge_weight(fx.g.patra_athens);
  fx.view().update_link_stats(fx.g.patra_ioannina, Mbps{1.8}, 0.88,
                              SimTime{200.0});
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());
  EXPECT_EQ(vra.cache_stats().graph_rebuilds, 2u);
  EXPECT_NE(*vra.routing_graph().edge_weight(fx.g.patra_athens), before);
  expect_graph_matches_fresh_build(fx, vra);
}

TEST(VraCache, SptCacheServesRepeatedHomesAndInvalidates) {
  CaseFixture fx;
  fx.place(fx.g.thessaloniki);
  const Vra vra = fx.make_vra();
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());
  ASSERT_TRUE(vra.select_server(fx.g.athens, fx.movie).has_value());
  ASSERT_TRUE(vra.select_server(fx.g.athens, fx.movie).has_value());
  EXPECT_EQ(vra.cache_stats().spt_misses, 2u);  // one per distinct home
  EXPECT_EQ(vra.cache_stats().spt_hits, 2u);

  fx.view().update_link_stats(fx.g.patra_athens, Mbps{1.5}, 0.75,
                              SimTime{300.0});
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());
  EXPECT_EQ(vra.cache_stats().spt_misses, 3u);  // tree recomputed
}

TEST(VraCache, TraceRequestsBypassTheSptCache) {
  CaseFixture fx;
  fx.place(fx.g.thessaloniki);
  const Vra vra = fx.make_vra();
  const auto traced = vra.select_server(fx.g.patra, fx.movie, true);
  ASSERT_TRUE(traced.has_value());
  EXPECT_FALSE(traced->trace.empty());
  EXPECT_EQ(vra.cache_stats().spt_misses, 0u);
  EXPECT_EQ(vra.cache_stats().spt_hits, 0u);
}

TEST(VraCache, CachedAndUncachedDecisionsAreIdenticalUnderChurn) {
  CaseFixture fx;
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  const Vra cached = fx.make_vra();
  // The reference path: the same engine with its memo dropped before every
  // selection, so each decision comes from a fresh graph and fresh trees.
  const Vra reference = fx.make_vra();
  auto view = fx.view();

  const std::vector<NodeId> homes{fx.g.patra, fx.g.athens, fx.g.heraklio,
                                  fx.g.ioannina};
  const std::vector<LinkId> links = fx.g.links_in_paper_order();
  double t = 0.0;
  int selections = 0;
  std::uint64_t rounds_with_moved_epoch = 0;
  std::optional<std::uint64_t> built_at;
  for (int round = 0; round < 60; ++round) {
    if (round % 3 == 2) {
      // A full SNMP sweep: every link reports moved counters, which is
      // what a poll of the real service does.
      for (std::size_t i = 0; i < links.size(); ++i) {
        const double util = 0.05 + 0.13 * ((round + 3 * i) % 7);
        const Mbps capacity = fx.g.topology.link(links[i]).capacity;
        view.update_link_stats(links[i], Mbps{util * capacity.value()}, util,
                               SimTime{t});
      }
    } else {
      // One link per round, plus an occasional online flip.
      const LinkId victim = links[round % links.size()];
      const double used = 0.5 + 0.37 * (round % 7);
      view.update_link_stats(victim, Mbps{used}, used / 34.0, SimTime{t});
    }
    if (round % 11 == 5) view.set_link_online(links[2], round % 2 == 0);
    t += 90.0;
    if (built_at != view.links_changed_epoch()) {
      built_at = view.links_changed_epoch();
      ++rounds_with_moved_epoch;
    }

    for (const NodeId home : homes) {
      const auto a = cached.select_server(home, fx.movie);
      reference.invalidate_cache();
      const auto b = reference.select_server(home, fx.movie);
      ++selections;
      ASSERT_EQ(a.has_value(), b.has_value());
      if (!a) continue;
      EXPECT_EQ(a->server, b->server);
      EXPECT_EQ(a->path.nodes, b->path.nodes);
      EXPECT_EQ(a->path.cost, b->path.cost);  // bit-for-bit
      ASSERT_EQ(a->candidates.size(), b->candidates.size());
      for (std::size_t i = 0; i < a->candidates.size(); ++i) {
        EXPECT_EQ(a->candidates[i].server, b->candidates[i].server);
        EXPECT_EQ(a->candidates[i].path.cost, b->candidates[i].path.cost);
      }
    }
    expect_graph_matches_fresh_build(fx, cached);
  }
  // The cached instance rebuilt once per round whose writes moved the
  // links epoch and served everything else from the memo; the reference
  // rebuilt every time.
  EXPECT_GT(rounds_with_moved_epoch, 40u);
  EXPECT_EQ(cached.cache_stats().graph_rebuilds, rounds_with_moved_epoch);
  EXPECT_GT(cached.cache_stats().graph_hits, 0u);
  EXPECT_EQ(reference.cache_stats().graph_rebuilds,
            static_cast<std::uint64_t>(selections));
  EXPECT_EQ(reference.cache_stats().graph_hits, 0u);
}

TEST(VraCache, TitleAddIsVisibleWithoutGraphRebuild) {
  CaseFixture fx;
  fx.place(fx.g.xanthi);
  const Vra vra = fx.make_vra();
  const auto before = vra.select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->server, fx.g.xanthi);

  // A DMA admission at Thessaloniki changes the catalog, not the links:
  // the VRA must see the new holder on the very next request while the
  // weighted graph stays cached.
  fx.place(fx.g.thessaloniki);
  const auto after = vra.select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->server, fx.g.thessaloniki);
  EXPECT_EQ(vra.cache_stats().graph_rebuilds, 1u);
  EXPECT_EQ(vra.cache_stats().graph_hits, 1u);
}

TEST(VraCache, ServerLoadModeRebuildsOnEveryCall) {
  // The machine-load extension reads a callback the links epoch knows
  // nothing about, so the memo must step aside: a load change with no
  // database write still moves the very next decision.
  CaseFixture fx{grnet::TimeOfDay::k4pm};
  fx.place(fx.g.ioannina);
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  double ioannina_load = 0.0;
  ValidationOptions options;
  options.server_load_weight = 0.5;
  options.server_load = [&](NodeId node) {
    return node == fx.g.ioannina ? ioannina_load : 0.0;
  };
  const Vra vra = fx.make_vra(options);
  const auto idle = vra.select_server(fx.g.athens, fx.movie);
  ASSERT_TRUE(idle.has_value());
  EXPECT_EQ(idle->server, fx.g.ioannina);

  ioannina_load = 0.95;
  const auto pegged = vra.select_server(fx.g.athens, fx.movie);
  ASSERT_TRUE(pegged.has_value());
  EXPECT_NE(pegged->server, fx.g.ioannina);
  EXPECT_EQ(vra.cache_stats().graph_rebuilds, 2u);
  EXPECT_EQ(vra.cache_stats().graph_hits, 0u);
  EXPECT_EQ(vra.cache_stats().spt_hits, 0u);
}

}  // namespace
}  // namespace vod::vra
