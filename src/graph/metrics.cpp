#include "graph/metrics.h"

#include <algorithm>
#include <queue>

#include "util/assert.h"

namespace lnc::graph {

std::vector<int> bfs_distances(const Topology& g, NodeId src) {
  LNC_EXPECTS(src < g.node_count());
  std::vector<int> dist(g.node_count(), -1);
  std::queue<NodeId> queue;
  std::vector<NodeId> scratch;
  dist[src] = 0;
  queue.push(src);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop();
    for (NodeId w : g.neighbors_of(u, scratch)) {
      if (dist[w] < 0) {
        dist[w] = dist[u] + 1;
        queue.push(w);
      }
    }
  }
  return dist;
}

int distance(const Topology& g, NodeId a, NodeId b) {
  return bfs_distances(g, a)[b];
}

int eccentricity(const Topology& g, NodeId src) {
  const std::vector<int> dist = bfs_distances(g, src);
  int ecc = 0;
  for (int d : dist) {
    if (d < 0) return -1;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

int diameter(const Topology& g) {
  if (g.node_count() == 0) return -1;
  int best = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const int ecc = eccentricity(g, v);
    if (ecc < 0) return -1;
    best = std::max(best, ecc);
  }
  return best;
}

bool is_connected(const Topology& g) {
  if (g.node_count() == 0) return true;
  const std::vector<int> dist = bfs_distances(g, 0);
  return std::all_of(dist.begin(), dist.end(), [](int d) { return d >= 0; });
}

std::vector<std::size_t> components(const Topology& g) {
  std::vector<std::size_t> comp(g.node_count(),
                                static_cast<std::size_t>(-1));
  std::size_t next = 0;
  std::queue<NodeId> queue;
  std::vector<NodeId> scratch;
  for (NodeId start = 0; start < g.node_count(); ++start) {
    if (comp[start] != static_cast<std::size_t>(-1)) continue;
    comp[start] = next;
    queue.push(start);
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop();
      for (NodeId w : g.neighbors_of(u, scratch)) {
        if (comp[w] == static_cast<std::size_t>(-1)) {
          comp[w] = next;
          queue.push(w);
        }
      }
    }
    ++next;
  }
  return comp;
}

std::size_t component_count(const Topology& g) {
  if (g.node_count() == 0) return 0;
  const auto comp = components(g);
  return 1 + *std::max_element(comp.begin(), comp.end());
}

std::vector<NodeId> articulation_points(const Topology& g) {
  const NodeId n = g.node_count();
  std::vector<int> disc(n, -1);
  std::vector<int> low(n, 0);
  std::vector<NodeId> parent(n, kInvalidNode);
  std::vector<bool> is_cut(n, false);
  int timer = 0;

  // Iterative DFS to survive deep paths (rings of 10^5 nodes).
  struct Frame {
    NodeId v;
    std::size_t next_edge;
    NodeId children;
  };
  std::vector<Frame> stack;
  std::vector<NodeId> scratch;
  for (NodeId root = 0; root < n; ++root) {
    if (disc[root] != -1) continue;
    stack.push_back({root, 0, 0});
    disc[root] = low[root] = timer++;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const NodeId v = frame.v;
      // Re-fetched every iteration: a scratch-backed span is invalidated
      // by the child fetches between iterations.
      const auto nbrs = g.neighbors_of(v, scratch);
      if (frame.next_edge < nbrs.size()) {
        const NodeId w = nbrs[frame.next_edge++];
        if (disc[w] == -1) {
          parent[w] = v;
          ++frame.children;
          disc[w] = low[w] = timer++;
          stack.push_back({w, 0, 0});
        } else if (w != parent[v]) {
          low[v] = std::min(low[v], disc[w]);
        }
      } else {
        stack.pop_back();  // `frame` and `v` copies remain valid
        if (!stack.empty()) {
          const NodeId p = stack.back().v;
          low[p] = std::min(low[p], low[v]);
          if (p != root && low[v] >= disc[p]) is_cut[p] = true;
        }
      }
    }
    // Root rule: the root is a cut vertex iff it has >= 2 DFS children.
    NodeId root_children = 0;
    for (NodeId w : g.neighbors_of(root, scratch)) {
      if (parent[w] == root) ++root_children;
    }
    is_cut[root] = root_children >= 2;
  }

  std::vector<NodeId> cuts;
  for (NodeId v = 0; v < n; ++v) {
    if (is_cut[v]) cuts.push_back(v);
  }
  return cuts;
}

bool is_biconnected(const Topology& g) {
  return g.node_count() >= 3 && is_connected(g) &&
         articulation_points(g).empty();
}

int girth(const Topology& g) {
  // For each node, BFS until a cross/back edge closes a cycle through it.
  int best = -1;
  const NodeId n = g.node_count();
  std::vector<int> dist(n);
  std::vector<NodeId> parent(n);
  std::vector<NodeId> scratch;
  for (NodeId src = 0; src < n; ++src) {
    std::fill(dist.begin(), dist.end(), -1);
    std::fill(parent.begin(), parent.end(), kInvalidNode);
    std::queue<NodeId> queue;
    dist[src] = 0;
    queue.push(src);
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop();
      for (NodeId w : g.neighbors_of(u, scratch)) {
        if (dist[w] == -1) {
          dist[w] = dist[u] + 1;
          parent[w] = u;
          queue.push(w);
        } else if (w != parent[u]) {
          const int cycle_len = dist[u] + dist[w] + 1;
          if (best == -1 || cycle_len < best) best = cycle_len;
        }
      }
    }
  }
  return best;
}

std::vector<NodeId> scattered_nodes(const Topology& g, int min_separation,
                                    std::size_t max_count) {
  std::vector<NodeId> chosen;
  if (g.node_count() == 0 || max_count == 0) return chosen;
  std::vector<int> nearest(g.node_count(), -1);  // dist to closest chosen
  for (NodeId v = 0; v < g.node_count() && chosen.size() < max_count; ++v) {
    if (nearest[v] >= 0 && nearest[v] <= min_separation) continue;
    chosen.push_back(v);
    const std::vector<int> dist = bfs_distances(g, v);
    for (NodeId w = 0; w < g.node_count(); ++w) {
      if (dist[w] >= 0 && (nearest[w] < 0 || dist[w] < nearest[w])) {
        nearest[w] = dist[w];
      }
    }
  }
  return chosen;
}

}  // namespace lnc::graph
