#include "graph/generators.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "graph/implicit.h"

#include "rand/splitmix.h"
#include "util/assert.h"

namespace lnc::graph {

Graph cycle(NodeId n) {
  LNC_EXPECTS(n >= 3);
  Graph::Builder b(n);
  for (NodeId i = 0; i < n; ++i) b.add_edge(i, (i + 1) % n);
  return b.build();
}

Graph path(NodeId n) {
  LNC_EXPECTS(n >= 1);
  Graph::Builder b(n);
  for (NodeId i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1);
  return b.build();
}

Graph complete(NodeId n) {
  LNC_EXPECTS(n >= 1);
  Graph::Builder b(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) b.add_edge(i, j);
  }
  return b.build();
}

Graph star(NodeId n) {
  LNC_EXPECTS(n >= 2);
  Graph::Builder b(n);
  for (NodeId i = 1; i < n; ++i) b.add_edge(0, i);
  return b.build();
}

Graph grid(NodeId width, NodeId height) {
  LNC_EXPECTS(width >= 1 && height >= 1);
  Graph::Builder b(width * height);
  auto index = [width](NodeId r, NodeId c) { return r * width + c; };
  for (NodeId r = 0; r < height; ++r) {
    for (NodeId c = 0; c < width; ++c) {
      if (c + 1 < width) b.add_edge(index(r, c), index(r, c + 1));
      if (r + 1 < height) b.add_edge(index(r, c), index(r + 1, c));
    }
  }
  return b.build();
}

Graph torus(NodeId width, NodeId height) {
  LNC_EXPECTS(width >= 3 && height >= 3);
  Graph::Builder b(width * height);
  auto index = [width](NodeId r, NodeId c) { return r * width + c; };
  for (NodeId r = 0; r < height; ++r) {
    for (NodeId c = 0; c < width; ++c) {
      b.add_edge(index(r, c), index(r, (c + 1) % width));
      b.add_edge(index(r, c), index((r + 1) % height, c));
    }
  }
  return b.build();
}

Graph hypercube(int dimensions) {
  LNC_EXPECTS(dimensions >= 1 && dimensions < 20);
  const NodeId n = NodeId{1} << dimensions;
  Graph::Builder b(n);
  for (NodeId v = 0; v < n; ++v) {
    for (int d = 0; d < dimensions; ++d) {
      const NodeId u = v ^ (NodeId{1} << d);
      if (v < u) b.add_edge(v, u);
    }
  }
  return b.build();
}

Graph binary_tree(NodeId n) {
  LNC_EXPECTS(n >= 1);
  Graph::Builder b(n);
  for (NodeId v = 1; v < n; ++v) b.add_edge(v, (v - 1) / 2);
  return b.build();
}

Graph caterpillar(NodeId spine, NodeId legs) {
  LNC_EXPECTS(spine >= 1);
  Graph::Builder b(spine + spine * legs);
  for (NodeId i = 0; i + 1 < spine; ++i) b.add_edge(i, i + 1);
  NodeId next = spine;
  for (NodeId i = 0; i < spine; ++i) {
    for (NodeId l = 0; l < legs; ++l) b.add_edge(i, next++);
  }
  return b.build();
}

Graph petersen() {
  Graph::Builder b(10);
  // Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5.
  for (NodeId i = 0; i < 5; ++i) {
    b.add_edge(i, (i + 1) % 5);
    b.add_edge(i + 5, ((i + 2) % 5) + 5);
    b.add_edge(i, i + 5);
  }
  return b.build();
}

Graph random_regular(NodeId n, NodeId degree, std::uint64_t seed) {
  LNC_EXPECTS(degree < n);
  LNC_EXPECTS((static_cast<std::uint64_t>(n) * degree) % 2 == 0);
  rand::SplitMix64 rng(rand::mix_keys(seed, 0x7265677561ULL));
  // Configuration model with LOCAL SWAP REPAIR: pair shuffled stubs left to
  // right; when the next pair would create a self-loop or parallel edge,
  // swap its second stub with a random later stub and retry. Whole-shuffle
  // restarts (the textbook method) have success probability
  // ~exp(-(d^2-1)/4), hopeless already at d = 6; swaps repair locally and
  // succeed essentially always, with a full restart as a rare fallback.
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::vector<NodeId> stubs;
    stubs.reserve(static_cast<std::size_t>(n) * degree);
    for (NodeId v = 0; v < n; ++v) {
      for (NodeId i = 0; i < degree; ++i) stubs.push_back(v);
    }
    for (std::size_t i = stubs.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(rng.next_below(i));
      std::swap(stubs[i - 1], stubs[j]);
    }
    bool simple = true;
    Graph::Builder b(n);
    std::vector<std::vector<NodeId>> seen(n);
    auto conflicts = [&seen](NodeId u, NodeId v) {
      return u == v ||
             std::find(seen[u].begin(), seen[u].end(), v) != seen[u].end();
    };
    for (std::size_t i = 0; i + 1 < stubs.size() && simple; i += 2) {
      const NodeId u = stubs[i];
      int tries = 0;
      while (conflicts(u, stubs[i + 1]) && tries < 200) {
        const std::size_t remaining = stubs.size() - (i + 2);
        if (remaining == 0) break;
        const std::size_t j = i + 2 + static_cast<std::size_t>(
                                          rng.next_below(remaining));
        std::swap(stubs[i + 1], stubs[j]);
        ++tries;
      }
      const NodeId v = stubs[i + 1];
      if (conflicts(u, v)) {
        simple = false;  // tail deadlock: restart from a fresh shuffle
        break;
      }
      seen[u].push_back(v);
      seen[v].push_back(u);
      b.add_edge(u, v);
    }
    if (simple) return b.build();
  }
  LNC_ASSERT(false && "random_regular: swap repair failed; degree too close to n?");
  return Graph{};
}

Graph random_regular_cycles(NodeId n, NodeId degree, std::uint64_t seed) {
  return materialize(*implicit_random_regular_cycles(n, degree, seed));
}

Graph gnp_hash(NodeId n, double p, NodeId max_deg, std::uint64_t seed) {
  return materialize(*implicit_gnp_hash(n, p, max_deg, seed));
}

Graph random_tree(NodeId n, std::uint64_t seed) {
  LNC_EXPECTS(n >= 1);
  if (n == 1) return Graph::Builder(1).build();
  if (n == 2) return path(2);
  rand::SplitMix64 rng(rand::mix_keys(seed, 0x7072756665ULL));
  // Random Prufer sequence of length n-2 decodes to a uniform random tree.
  std::vector<NodeId> prufer(n - 2);
  for (auto& x : prufer) x = static_cast<NodeId>(rng.next_below(n));
  std::vector<NodeId> count(n, 0);
  for (NodeId x : prufer) ++count[x];
  Graph::Builder b(n);
  // Standard O(n log n)-free decode using a pointer scan.
  NodeId ptr = 0;
  while (count[ptr] != 0) ++ptr;
  NodeId leaf = ptr;
  for (NodeId x : prufer) {
    b.add_edge(leaf, x);
    if (--count[x] == 0 && x < ptr) {
      leaf = x;
    } else {
      ++ptr;
      while (ptr < n && count[ptr] != 0) ++ptr;
      leaf = ptr;
    }
  }
  b.add_edge(leaf, n - 1);
  return b.build();
}

Graph random_tree_bounded(NodeId n, NodeId max_deg, std::uint64_t seed) {
  LNC_EXPECTS(n >= 1);
  LNC_EXPECTS(max_deg >= 2);
  rand::SplitMix64 rng(rand::mix_keys(seed, 0x74726565ULL));
  Graph::Builder b(n);
  std::vector<NodeId> open;  // nodes with spare degree
  std::vector<NodeId> deg(n, 0);
  open.push_back(0);
  for (NodeId v = 1; v < n; ++v) {
    const std::size_t pick =
        static_cast<std::size_t>(rng.next_below(open.size()));
    const NodeId parent = open[pick];
    b.add_edge(parent, v);
    ++deg[parent];
    ++deg[v];
    if (deg[parent] >= max_deg) {
      open[pick] = open.back();
      open.pop_back();
    }
    if (deg[v] < max_deg) open.push_back(v);
    LNC_ASSERT(!open.empty() || v + 1 == n);
  }
  return b.build();
}

}  // namespace lnc::graph
