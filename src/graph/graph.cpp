#include "graph/graph.h"

#include <algorithm>

#include "util/assert.h"

namespace lnc::graph {

NodeId Graph::max_degree() const noexcept {
  NodeId best = 0;
  for (NodeId v = 0; v < node_count(); ++v) best = std::max(best, degree(v));
  return best;
}

NodeId Graph::min_degree() const noexcept {
  if (node_count() == 0) return 0;
  NodeId best = degree(0);
  for (NodeId v = 1; v < node_count(); ++v) best = std::min(best, degree(v));
  return best;
}

bool Graph::has_edge(NodeId u, NodeId v) const noexcept {
  if (u >= node_count() || v >= node_count()) return false;
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> result;
  result.reserve(edge_count());
  for (NodeId u = 0; u < node_count(); ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) result.push_back({u, v});
    }
  }
  return result;
}

Graph::Builder& Graph::Builder::add_edge(NodeId u, NodeId v) {
  LNC_EXPECTS(u != v);
  if (u > v) std::swap(u, v);
  edges_.push_back({u, v});
  node_count_ = std::max(node_count_, static_cast<NodeId>(v + 1));
  return *this;
}

Graph Graph::Builder::build() {
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  Graph g;
  g.offsets_.assign(static_cast<std::size_t>(node_count_) + 1, 0);
  for (const Edge& e : edges_) {
    ++g.offsets_[e.u + 1];
    ++g.offsets_[e.v + 1];
  }
  for (std::size_t i = 1; i < g.offsets_.size(); ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  g.adjacency_.resize(g.offsets_.back());
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Edge& e : edges_) {
    g.adjacency_[cursor[e.u]++] = e.v;
    g.adjacency_[cursor[e.v]++] = e.u;
  }
  // Per-node lists are sorted because edges_ was sorted by (u, v) and each
  // node receives its neighbors in increasing order of the other endpoint
  // only for the u-side; the v-side arrives ordered by u. Sort to be safe.
  for (NodeId v = 0; v < node_count_; ++v) {
    auto begin = g.adjacency_.begin() +
                 static_cast<std::ptrdiff_t>(g.offsets_[v]);
    auto end = g.adjacency_.begin() +
               static_cast<std::ptrdiff_t>(g.offsets_[v + 1]);
    std::sort(begin, end);
  }

  node_count_ = 0;
  edges_.clear();
  return g;
}

}  // namespace lnc::graph
