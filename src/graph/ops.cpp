#include "graph/ops.h"

#include <algorithm>

#include "util/assert.h"

namespace lnc::graph {

UnionResult disjoint_union(const std::vector<const Graph*>& parts) {
  UnionResult result;
  result.offsets.reserve(parts.size());
  NodeId total = 0;
  for (const Graph* part : parts) {
    LNC_EXPECTS(part != nullptr);
    result.offsets.push_back(total);
    total += part->node_count();
  }
  Graph::Builder b(total);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const NodeId off = result.offsets[i];
    for (const Edge& e : parts[i]->edges()) {
      b.add_edge(off + e.u, off + e.v);
    }
  }
  result.graph = b.build();
  return result;
}

DoubleSubdivision subdivide_edge_twice(const Graph& g, NodeId a, NodeId b) {
  LNC_EXPECTS(g.has_edge(a, b));
  const NodeId n = g.node_count();
  Graph::Builder builder(n + 2);
  for (const Edge& e : g.edges()) {
    if ((e.u == std::min(a, b)) && (e.v == std::max(a, b))) continue;
    builder.add_edge(e.u, e.v);
  }
  const NodeId first = n;
  const NodeId second = n + 1;
  builder.add_edge(a, first);
  builder.add_edge(first, second);
  builder.add_edge(second, b);
  return {builder.build(), first, second};
}

Graph subdivide_edge(const Graph& g, NodeId a, NodeId b) {
  LNC_EXPECTS(g.has_edge(a, b));
  const NodeId n = g.node_count();
  Graph::Builder builder(n + 1);
  for (const Edge& e : g.edges()) {
    if ((e.u == std::min(a, b)) && (e.v == std::max(a, b))) continue;
    builder.add_edge(e.u, e.v);
  }
  builder.add_edge(a, n);
  builder.add_edge(n, b);
  return builder.build();
}

Graph relabel(const Graph& g, const std::vector<NodeId>& permutation) {
  LNC_EXPECTS(permutation.size() == g.node_count());
  std::vector<bool> seen(g.node_count(), false);
  for (NodeId p : permutation) {
    LNC_EXPECTS(p < g.node_count());
    LNC_EXPECTS(!seen[p]);
    seen[p] = true;
  }
  Graph::Builder b(g.node_count());
  for (const Edge& e : g.edges()) {
    b.add_edge(permutation[e.u], permutation[e.v]);
  }
  return b.build();
}

}  // namespace lnc::graph
