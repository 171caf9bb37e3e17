// Tests for src/graph: CSR construction, generators, balls (the paper's
// exact edge rule), ops, and metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "graph/ball.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/implicit.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "graph/ops.h"
#include "rand/splitmix.h"

namespace lnc::graph {
namespace {

TEST(Graph, BuilderDeduplicatesAndSorts) {
  Graph::Builder b;
  b.add_edge(2, 0).add_edge(0, 2).add_edge(1, 2);
  const Graph g = b.build();
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  ASSERT_EQ(g.degree(2), 2u);
  EXPECT_EQ(g.neighbors(2)[0], 0u);
  EXPECT_EQ(g.neighbors(2)[1], 1u);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(Graph, IsolatedNodesSurvive) {
  Graph::Builder b(5);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.degree(4), 0u);
}

TEST(Generators, CycleStructure) {
  const Graph g = cycle(7);
  EXPECT_EQ(g.node_count(), 7u);
  EXPECT_EQ(g.edge_count(), 7u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_EQ(g.min_degree(), 2u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(diameter(g), 3);
  EXPECT_EQ(girth(g), 7);
}

TEST(Generators, PathAndStar) {
  const Graph p = path(5);
  EXPECT_EQ(p.edge_count(), 4u);
  EXPECT_EQ(diameter(p), 4);
  EXPECT_EQ(girth(p), -1);  // forest

  const Graph s = star(6);
  EXPECT_EQ(s.degree(0), 5u);
  EXPECT_EQ(diameter(s), 2);
}

TEST(Generators, CompleteGraph) {
  const Graph g = complete(6);
  EXPECT_EQ(g.edge_count(), 15u);
  EXPECT_EQ(g.min_degree(), 5u);
  EXPECT_EQ(diameter(g), 1);
  EXPECT_EQ(girth(g), 3);
}

TEST(Generators, GridAndTorus) {
  const Graph g = grid(4, 3);
  EXPECT_EQ(g.node_count(), 12u);
  EXPECT_EQ(g.edge_count(), 4u * 2 + 3u * 3);  // 3 rows x 3 + 4 cols x 2
  EXPECT_EQ(g.max_degree(), 4u);

  const Graph t = torus(4, 4);
  EXPECT_EQ(t.node_count(), 16u);
  EXPECT_EQ(t.min_degree(), 4u);
  EXPECT_EQ(t.max_degree(), 4u);
  EXPECT_EQ(t.edge_count(), 32u);
}

TEST(Generators, Hypercube) {
  const Graph g = hypercube(4);
  EXPECT_EQ(g.node_count(), 16u);
  EXPECT_EQ(g.min_degree(), 4u);
  EXPECT_EQ(diameter(g), 4);
}

TEST(Generators, BinaryTreeAndCaterpillar) {
  const Graph t = binary_tree(15);
  EXPECT_EQ(t.edge_count(), 14u);
  EXPECT_EQ(girth(t), -1);
  EXPECT_TRUE(is_connected(t));

  const Graph c = caterpillar(4, 2);
  EXPECT_EQ(c.node_count(), 12u);
  EXPECT_EQ(c.edge_count(), 11u);
  EXPECT_TRUE(is_connected(c));
}

TEST(Generators, Petersen) {
  const Graph g = petersen();
  EXPECT_EQ(g.node_count(), 10u);
  EXPECT_EQ(g.edge_count(), 15u);
  EXPECT_EQ(g.min_degree(), 3u);
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_EQ(girth(g), 5);
  EXPECT_EQ(diameter(g), 2);
}

TEST(Generators, RandomRegularIsRegularAndSimple) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Graph g = random_regular(24, 3, seed);
    EXPECT_EQ(g.node_count(), 24u);
    EXPECT_EQ(g.min_degree(), 3u);
    EXPECT_EQ(g.max_degree(), 3u);
  }
}

TEST(Generators, RandomTreeIsTree) {
  for (std::uint64_t seed : {11ull, 12ull}) {
    const Graph g = random_tree(40, seed);
    EXPECT_EQ(g.edge_count(), 39u);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Generators, RandomTreeBoundedRespectsDegree) {
  const Graph g = random_tree_bounded(50, 3, 5);
  EXPECT_EQ(g.edge_count(), 49u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_LE(g.max_degree(), 3u);
}

TEST(Ball, RadiusZeroIsJustTheCenter) {
  const Graph g = cycle(9);
  const BallView ball(g, 4, 0);
  EXPECT_EQ(ball.size(), 1u);
  EXPECT_EQ(ball.to_original(0), 4u);
  EXPECT_TRUE(ball.neighbors(0).empty());
}

TEST(Ball, PaperEdgeRuleOnCycle) {
  // B(v, t) on a cycle: path of 2t+1 nodes; the two distance-t endpoints
  // keep only their edge toward distance t-1.
  const Graph g = cycle(11);
  const BallView ball(g, 5, 2);
  EXPECT_EQ(ball.size(), 5u);
  int boundary_nodes = 0;
  for (NodeId i = 0; i < ball.size(); ++i) {
    if (ball.distance(i) == 2) {
      ++boundary_nodes;
      EXPECT_EQ(ball.degree_in_ball(i), 1u);
      EXPECT_EQ(ball.host_degree(i), 2u);
    }
  }
  EXPECT_EQ(boundary_nodes, 2);
}

TEST(Ball, BoundaryEdgesExcludedOnCompleteGraph) {
  // In K_5, B(v, 1) contains all nodes; the 4 boundary nodes are pairwise
  // adjacent in the host but those edges are NOT part of the ball.
  const Graph g = complete(5);
  const BallView ball(g, 0, 1);
  EXPECT_EQ(ball.size(), 5u);
  for (NodeId i = 1; i < ball.size(); ++i) {
    EXPECT_EQ(ball.distance(i), 1);
    ASSERT_EQ(ball.degree_in_ball(i), 1u);
    EXPECT_EQ(ball.neighbors(i)[0], 0u);  // only the center
  }
  EXPECT_EQ(ball.degree_in_ball(0), 4u);
}

TEST(Ball, InteriorEdgesKept) {
  // Triangle edge between two distance-1 nodes in a radius-2 ball stays.
  Graph::Builder b;
  b.add_edge(0, 1).add_edge(0, 2).add_edge(1, 2).add_edge(1, 3);
  const Graph g = b.build();
  const BallView ball(g, 0, 2);
  // Locals: 0 -> center; find locals of 1 and 2.
  NodeId l1 = kInvalidNode;
  NodeId l2 = kInvalidNode;
  for (NodeId i = 0; i < ball.size(); ++i) {
    if (ball.to_original(i) == 1) l1 = i;
    if (ball.to_original(i) == 2) l2 = i;
  }
  ASSERT_NE(l1, kInvalidNode);
  ASSERT_NE(l2, kInvalidNode);
  const auto nbrs = ball.neighbors(l1);
  EXPECT_TRUE(std::find(nbrs.begin(), nbrs.end(), l2) != nbrs.end());
}

TEST(Ball, SignatureDistinguishesStructures) {
  const Graph c = cycle(9);
  const Graph p = path(9);
  const BallView b1(c, 4, 2);
  const BallView b2(p, 4, 2);  // interior of path: same as cycle ball
  const BallView b3(p, 0, 2);  // endpoint: different structure
  EXPECT_EQ(b1.structure_signature(), b2.structure_signature());
  EXPECT_NE(b1.structure_signature(), b3.structure_signature());
}

void expect_same_ball(const BallView& fresh, const BallView& reused) {
  ASSERT_EQ(fresh.size(), reused.size());
  ASSERT_TRUE(std::equal(fresh.members().begin(), fresh.members().end(),
                         reused.members().begin()));
  for (NodeId i = 0; i < fresh.size(); ++i) {
    ASSERT_EQ(fresh.distance(i), reused.distance(i));
    ASSERT_EQ(fresh.host_degree(i), reused.host_degree(i));
    const auto want = fresh.neighbors(i);
    const auto got = reused.neighbors(i);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()));
  }
  ASSERT_EQ(fresh.structure_signature(), reused.structure_signature());
  ASSERT_EQ(fresh.encoded_words(), reused.encoded_words());
}

TEST(Ball, ScratchReuseIsBitIdenticalToFreshConstruction) {
  // One workspace re-collected across graphs of different sizes, centers,
  // and radii must reproduce the freshly constructed ball exactly — the
  // contract that lets the Monte-Carlo runners keep a per-worker scratch
  // warm across trials.
  const Graph graphs[] = {cycle(17), path(9), complete(6), grid(4, 5)};
  BallView reused;
  BallScratch scratch;
  for (const Graph& g : graphs) {
    for (int radius : {0, 1, 2, 4}) {
      for (NodeId center = 0; center < g.node_count(); center += 3) {
        const BallView fresh(g, center, radius);
        reused.collect(g, center, radius, scratch);
        expect_same_ball(fresh, reused);
      }
    }
  }
}

TEST(Ball, ImplicitScratchIsEmptyAfterARehash) {
  // The implicit path's visited map keeps its key slots empty between
  // collections by clearing only the slots it filled. A radius-8 torus
  // ball (145 members) grows the map from 64 to 512 slots; the small balls
  // collected after it through the same scratch must equal fresh ones.
  const auto torus = implicit_torus(40, 40);
  BallView reused;
  BallScratch scratch;
  for (int pass = 0; pass < 2; ++pass) {
    for (const int radius : {8, 0, 1, 2, 1}) {
      for (const NodeId center : {0u, 41u, 799u, 1599u}) {
        SCOPED_TRACE(testing::Message()
                     << "r" << radius << " center " << center);
        const BallView fresh(*torus, center, radius);
        reused.collect(*torus, center, radius, scratch);
        expect_same_ball(fresh, reused);
      }
    }
  }
  reused.collect(*torus, 0, 8, scratch);
  EXPECT_EQ(reused.size(), 145u);
}

// The paper's ball (section 2.1.1) in the realized subgraph of a filter,
// transcribed naively: BFS over unblocked nodes (the center exempt) and
// unblocked edges, members in discovery order over ascending ids, and
// rows = the realized edges among members minus pairs with both ends at
// distance r, sorted by local index.
struct ReferenceBall {
  std::vector<NodeId> members;
  std::vector<int> distance;
  std::vector<std::vector<NodeId>> rows;
};

ReferenceBall reference_ball(const Graph& g, NodeId center, int radius,
                             const BallFilter* filter) {
  auto present = [&](NodeId v) {
    return v == center || filter == nullptr || !filter->node_blocked(v);
  };
  auto realized = [&](NodeId a, NodeId b) {
    return g.has_edge(a, b) &&
           (filter == nullptr || !filter->edge_blocked(a, b));
  };
  ReferenceBall ball;
  std::map<NodeId, NodeId> local;
  ball.members.push_back(center);
  ball.distance.push_back(0);
  local[center] = 0;
  for (std::size_t head = 0; head < ball.members.size(); ++head) {
    const NodeId u = ball.members[head];
    if (ball.distance[head] == radius) continue;
    for (NodeId w : g.neighbors(u)) {
      if (local.count(w) != 0 || !present(w) || !realized(u, w)) continue;
      local[w] = static_cast<NodeId>(ball.members.size());
      ball.members.push_back(w);
      ball.distance.push_back(ball.distance[head] + 1);
    }
  }
  const std::size_t size = ball.members.size();
  ball.rows.resize(size);
  for (NodeId a = 0; a < size; ++a) {
    for (NodeId b = 0; b < size; ++b) {
      if (ball.distance[a] == radius && ball.distance[b] == radius) continue;
      if (realized(ball.members[a], ball.members[b])) ball.rows[a].push_back(b);
    }
  }
  return ball;
}

// The signature serialization documented on structure_signature().
std::uint64_t reference_signature(const ReferenceBall& ball) {
  std::uint64_t h = 0x62616C6C7369676EULL;
  h = rand::mix_keys(h, ball.members.size());
  for (std::size_t i = 0; i < ball.members.size(); ++i) {
    h = rand::mix_keys(h, static_cast<std::uint64_t>(ball.distance[i]));
    for (NodeId j : ball.rows[i]) h = rand::mix_keys(h, j);
    h = rand::mix_keys(h, 0xFFFFFFFFULL);
  }
  return h;
}

// Blocks a seeded ~`share` of nodes and of edges (symmetric, pure).
class SeededFilter final : public BallFilter {
 public:
  SeededFilter(std::uint64_t seed, double share)
      : seed_(seed),
        cutoff_(static_cast<std::uint64_t>(share * 18446744073709551615.0)) {}

  bool node_blocked(NodeId v) const override {
    return rand::mix_keys(seed_, v) < cutoff_;
  }
  bool edge_blocked(NodeId a, NodeId b) const override {
    const std::uint64_t key =
        (std::uint64_t{std::min(a, b)} << 32) | std::max(a, b);
    return rand::mix_keys(seed_ ^ 0xED6EULL, key) < cutoff_;
  }

 private:
  std::uint64_t seed_;
  std::uint64_t cutoff_;
};

// The same graph behind the bare Topology interface, so collect() takes
// the generic (implicit) path. Rows are synthesized into `scratch` as an
// implicit topology would, so a kernel holding a row across the next
// neighbors_of call would read the wrong row.
class WrappedGraph final : public Topology {
 public:
  explicit WrappedGraph(const Graph& g) : g_(g) {}
  NodeId node_count() const noexcept override { return g_.node_count(); }
  std::span<const NodeId> neighbors_of(
      NodeId v, std::vector<NodeId>& scratch) const override {
    const std::span<const NodeId> row = g_.neighbors(v);
    scratch.assign(row.begin(), row.end());
    return scratch;
  }

 private:
  const Graph& g_;
};

void expect_matches_reference(const BallView& got, const ReferenceBall& want,
                              const Graph& g, const std::string& where) {
  ASSERT_EQ(got.size(), want.members.size()) << where;
  std::uint64_t words = 1 + 4 * want.members.size();
  for (NodeId i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.to_original(i), want.members[i]) << where;
    ASSERT_EQ(got.distance(i), want.distance[i]) << where;
    ASSERT_EQ(got.host_degree(i), g.degree(want.members[i])) << where;
    const auto row = got.neighbors(i);
    ASSERT_TRUE(std::equal(row.begin(), row.end(), want.rows[i].begin(),
                           want.rows[i].end()))
        << where << " row " << i;
    words += want.rows[i].size();
  }
  EXPECT_EQ(got.encoded_words(), words) << where;
  EXPECT_EQ(got.structure_signature(), reference_signature(want)) << where;
}

TEST(Ball, CollectionMatchesThePaperDefinitionUnderFilters) {
  const Graph graphs[] = {gnp_hash(100, 0.04, 6, 11),
                          random_tree_bounded(100, 4, 12), grid(10, 10),
                          hypercube(7)};
  const SeededFilter filters[] = {{21, 0.1}, {22, 0.1}};
  BallView csr;
  BallView generic;
  BallScratch scratch;
  int blocked_centers = 0;
  int blocked_member_edges = 0;
  for (std::size_t gi = 0; gi < std::size(graphs); ++gi) {
    const Graph& g = graphs[gi];
    const WrappedGraph wrapped(g);
    for (int radius = 0; radius <= 4; ++radius) {
      for (NodeId center = 0; center < g.node_count(); ++center) {
        for (int fi = -1; fi < static_cast<int>(std::size(filters)); ++fi) {
          const BallFilter* filter = fi < 0 ? nullptr : &filters[fi];
          const std::string where = "graph " + std::to_string(gi) + " r" +
                                    std::to_string(radius) + " center " +
                                    std::to_string(center) + " filter " +
                                    std::to_string(fi);
          const ReferenceBall want = reference_ball(g, center, radius, filter);
          csr.collect(g, center, radius, scratch, filter);
          expect_matches_reference(csr, want, g, where + " csr");
          generic.collect(wrapped, center, radius, scratch, filter);
          expect_matches_reference(generic, want, g, where + " generic");
          if (filter == nullptr) continue;
          blocked_centers += filter->node_blocked(center) ? 1 : 0;
          for (NodeId a : want.members) {
            for (NodeId b : want.members) {
              blocked_member_edges +=
                  a < b && g.has_edge(a, b) && filter->edge_blocked(a, b);
            }
          }
        }
      }
    }
  }
  // The filters really exercised the exempt center and the symmetric
  // drop of an edge between two visited members.
  EXPECT_GT(blocked_centers, 0);
  EXPECT_GT(blocked_member_edges, 0);
}

// The table's graphs: every family the sweeps run, plus a disconnected
// union with isolated nodes (balls of a single member and no rows).
std::vector<Graph> table_graphs() {
  std::vector<Graph> graphs;
  graphs.push_back(cycle(23));
  graphs.push_back(path(17));
  graphs.push_back(grid(6, 5));
  graphs.push_back(torus(7, 6));
  graphs.push_back(hypercube(6));
  graphs.push_back(binary_tree(40));
  graphs.push_back(random_regular(48, 3, 5));
  graphs.push_back(gnp_hash(60, 0.08, 7, 9));
  const Graph ring = cycle(5);
  const Graph line = path(4);
  const Graph isolated = Graph::Builder(3).build();
  graphs.push_back(disjoint_union({&ring, &isolated, &line}).graph);
  return graphs;
}

void expect_same_ball(const BallView& got, const BallView& want,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  ASSERT_EQ(got.radius(), want.radius()) << where;
  ASSERT_TRUE(std::equal(got.members().begin(), got.members().end(),
                         want.members().begin(), want.members().end()))
      << where;
  for (NodeId i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.distance(i), want.distance(i)) << where;
    ASSERT_EQ(got.host_degree(i), want.host_degree(i)) << where;
    const auto got_row = got.neighbors(i);
    const auto want_row = want.neighbors(i);
    ASSERT_TRUE(std::equal(got_row.begin(), got_row.end(), want_row.begin(),
                           want_row.end()))
        << where << " row " << i;
  }
  EXPECT_EQ(got.encoded_words(), want.encoded_words()) << where;
  EXPECT_EQ(got.structure_signature(), want.structure_signature()) << where;
}

// Entry v of BallTable(g, r) is BallView(g, v, r), whether the table was
// built in one call or split into uneven ranges measured and filled out
// of order (as workers would); the ranges' measured bytes, plus the two
// closing begins, are what it holds.
TEST(BallTable, EveryEntryEqualsTheCollectedBall) {
  const std::vector<Graph> graphs = table_graphs();
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    const NodeId n = g.node_count();
    for (int radius = 0; radius <= 4; ++radius) {
      const BallTable whole(g, radius);
      BallTable split = BallTable::unfilled(g, radius);
      BallView build_view;
      BallScratch build_scratch;
      constexpr NodeId kRange = 7;
      std::uint64_t measured = 8;
      for (NodeId begin = 0; begin < n; begin += kRange) {
        measured += split.measure(begin, std::min(n, begin + kRange),
                                  build_view, build_scratch);
      }
      split.allocate();
      for (NodeId begin = (n - 1) / kRange * kRange;; begin -= kRange) {
        split.fill(begin, std::min(n, begin + kRange), build_view,
                   build_scratch);
        if (begin == 0) break;
      }
      for (const BallTable* table : {&whole, static_cast<const BallTable*>(&split)}) {
        EXPECT_EQ(table->graph(), &g);
        EXPECT_EQ(table->radius(), radius);
        EXPECT_EQ(table->bytes(), measured);
        BallView view;
        for (NodeId v = 0; v < n; ++v) {
          view.view(*table, v);
          expect_same_ball(view, BallView(g, v, radius),
                           "graph " + std::to_string(gi) + " r" +
                               std::to_string(radius) + " center " +
                               std::to_string(v));
        }
      }
    }
  }
}

// One view bound to a table entry, re-collected live, then copied and
// moved, reads the right ball at every step; copies of a table view keep
// viewing the table, copies of a collected view own their ball.
TEST(BallTable, ViewsSurviveRecollectionCopiesAndMoves) {
  const Graph g = torus(6, 5);
  const int radius = 2;
  const BallTable table(g, radius);
  BallScratch scratch;
  BallView view;
  view.view(table, 3);
  expect_same_ball(view, BallView(g, 3, radius), "table entry 3");
  view.collect(g, 17, radius, scratch);
  expect_same_ball(view, BallView(g, 17, radius), "collected 17");
  BallView collected_copy(view);
  view.view(table, 8);
  expect_same_ball(view, BallView(g, 8, radius), "table entry 8");
  expect_same_ball(collected_copy, BallView(g, 17, radius),
                   "copy of collected 17");
  BallView table_copy;
  table_copy.collect(g, 0, radius, scratch);
  table_copy = view;
  view.collect(g, 25, radius, scratch);
  expect_same_ball(table_copy, BallView(g, 8, radius), "copy of entry 8");
  expect_same_ball(view, BallView(g, 25, radius), "collected 25");
  BallView moved_collected(std::move(collected_copy));
  expect_same_ball(moved_collected, BallView(g, 17, radius),
                   "moved collected 17");
  BallView moved_table;
  moved_table = std::move(table_copy);
  expect_same_ball(moved_table, BallView(g, 8, radius), "moved entry 8");
  moved_table.collect(g, 9, radius, scratch);
  expect_same_ball(moved_table, BallView(g, 9, radius),
                   "moved view re-collected");
  BallView self_copy = moved_collected;
  const BallView& alias = self_copy;
  self_copy = alias;
  expect_same_ball(self_copy, BallView(g, 17, radius), "self-assigned copy");
}

TEST(Ops, DisjointUnion) {
  const Graph a = cycle(4);
  const Graph b = path(3);
  const UnionResult u = disjoint_union({&a, &b});
  EXPECT_EQ(u.graph.node_count(), 7u);
  EXPECT_EQ(u.graph.edge_count(), 6u);
  EXPECT_EQ(component_count(u.graph), 2u);
  EXPECT_EQ(u.offsets[0], 0u);
  EXPECT_EQ(u.offsets[1], 4u);
  EXPECT_TRUE(u.graph.has_edge(4, 5));  // path edge shifted by 4
}

TEST(Ops, SubdivideEdgeTwice) {
  const Graph g = cycle(5);
  const DoubleSubdivision s = subdivide_edge_twice(g, 0, 1);
  EXPECT_EQ(s.graph.node_count(), 7u);
  EXPECT_EQ(s.graph.edge_count(), 7u);
  EXPECT_FALSE(s.graph.has_edge(0, 1));
  EXPECT_TRUE(s.graph.has_edge(0, s.first));
  EXPECT_TRUE(s.graph.has_edge(s.first, s.second));
  EXPECT_TRUE(s.graph.has_edge(s.second, 1));
  EXPECT_TRUE(is_connected(s.graph));
  EXPECT_EQ(diameter(s.graph), diameter(g) + 1);
}

TEST(Ops, RelabelPreservesStructure) {
  const Graph g = path(4);  // 0-1-2-3
  const Graph r = relabel(g, {3, 2, 1, 0});
  EXPECT_TRUE(r.has_edge(3, 2));
  EXPECT_TRUE(r.has_edge(2, 1));
  EXPECT_TRUE(r.has_edge(1, 0));
  EXPECT_EQ(r.edge_count(), 3u);
}

TEST(Metrics, BfsAndDistance) {
  const Graph g = cycle(10);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[5], 5);
  EXPECT_EQ(dist[9], 1);
  EXPECT_EQ(distance(g, 0, 5), 5);
  EXPECT_EQ(eccentricity(g, 0), 5);
}

TEST(Metrics, DisconnectedDiameter) {
  Graph::Builder b(4);
  b.add_edge(0, 1).add_edge(2, 3);
  const Graph g = b.build();
  EXPECT_EQ(diameter(g), -1);
  EXPECT_FALSE(is_connected(g));
  EXPECT_EQ(component_count(g), 2u);
}

TEST(Metrics, ArticulationPoints) {
  // Two triangles sharing node 2: node 2 is the only cut vertex.
  Graph::Builder b;
  b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2);
  b.add_edge(2, 3).add_edge(3, 4).add_edge(2, 4);
  const Graph g = b.build();
  const auto cuts = articulation_points(g);
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_EQ(cuts[0], 2u);
  EXPECT_FALSE(is_biconnected(g));
  EXPECT_TRUE(is_biconnected(cycle(6)));
  EXPECT_FALSE(is_biconnected(path(6)));
}

TEST(Metrics, ScatteredNodesRespectSeparation) {
  const Graph g = cycle(30);
  const auto nodes = scattered_nodes(g, 5, 100);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      EXPECT_GT(distance(g, nodes[i], nodes[j]), 5);
    }
  }
  EXPECT_GE(nodes.size(), 4u);  // 30 / 6 = 5 fit greedily
}

TEST(Io, EdgeListRoundTrip) {
  const Graph g = petersen();
  std::stringstream ss;
  write_edge_list(ss, g);
  const Graph back = read_edge_list(ss);
  EXPECT_EQ(g, back);
}

TEST(Io, EdgeListRejectsMalformed) {
  std::stringstream missing("3");
  EXPECT_THROW(read_edge_list(missing), std::runtime_error);
  std::stringstream range("2 1\n0 5\n");
  EXPECT_THROW(read_edge_list(range), std::runtime_error);
  std::stringstream loop("2 1\n1 1\n");
  EXPECT_THROW(read_edge_list(loop), std::runtime_error);
}

TEST(Io, DotContainsNodesAndEdges) {
  std::ostringstream os;
  write_dot(os, path(3), {"a", "b", "c"});
  const std::string dot = os.str();
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"b\""), std::string::npos);
}

}  // namespace
}  // namespace lnc::graph
