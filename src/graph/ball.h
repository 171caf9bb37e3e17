// Radius-t balls exactly as defined in the paper (section 2.1.1):
//
//   "B_G(v, t) is the subgraph of G induced by all nodes at distance at
//    most t from v, EXCLUDING the edges between the nodes at distance
//    exactly t from v."
//
// The exclusion is not cosmetic: it is precisely the information a t-round
// LOCAL algorithm can gather (a node at distance t has announced itself but
// not its adjacency), and the ball-collection protocol in local/ is tested
// to produce exactly this object. Everything downstream — ball-based
// algorithms, LCL bad-ball checkers (Definition 1), the order-invariant
// wrapper (Claim 1) — consumes BallView.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace lnc::graph {

/// Optional censoring predicate for ball collection — the hook through
/// which fault models (src/fault/) erase crashed nodes and faulty edges
/// from what a LOCAL algorithm can observe. Predicates must be pure
/// (collection may probe the same node or edge repeatedly) and
/// edge_blocked must be symmetric in its arguments; both receive
/// ORIGINAL graph indices. A blocked node never joins the ball (the
/// center itself is exempt — callers decide what a failed center means);
/// a blocked edge is never traversed and appears in neither endpoint's
/// row (a boundary member's row is probed from the interior side only).
class BallFilter {
 public:
  virtual ~BallFilter() = default;
  virtual bool node_blocked(NodeId v) const = 0;
  virtual bool edge_blocked(NodeId a, NodeId b) const = 0;
};

/// Reusable working storage for BallView::collect: the visited map
/// (original -> local index) of the one-pass collection kernel, plus the
/// fill cursors of the boundary rows. The CSR path's map is
/// stamp-versioned, so successive collections touch only the nodes of the
/// ball being built instead of clearing an O(n) array each time; the
/// Monte-Carlo paths keep one scratch per worker (local/batch_runner.h)
/// and stop allocating per node per trial. Not thread-safe: one scratch
/// per concurrent collector.
///
/// The generic Topology path (implicit topologies) must NOT touch the
/// O(n) stamp arrays — ball-bounded memory at n = 10^8+ is the point —
/// so its visited map is a ball-sized open-addressing table instead.
class BallScratch {
 private:
  friend class BallView;
  std::vector<NodeId> local_of_;     // node -> local index (when stamped)
  std::vector<std::uint64_t> stamp_; // node -> version of last visit
  std::vector<std::size_t> cursor_;  // per-boundary-member fill cursor
  std::uint64_t version_ = 0;
  // Generic-path state (sized by the ball, never by n).
  std::vector<NodeId> map_keys_;     // open addressing: original index
  std::vector<NodeId> map_vals_;     //   -> local index
  std::vector<NodeId> fetch_;        // neighbors_of synthesis buffer
};

class BallView {
 public:
  /// An empty view; fill with collect().
  BallView() = default;

  /// Collects B_G(center, radius). O(|ball| + edges inside).
  BallView(const Graph& g, NodeId center, int radius);

  /// Same, from any topology (dispatches like collect below).
  BallView(const Topology& topology, NodeId center, int radius);

  /// Re-collects B_G(center, radius) into this view, reusing this view's
  /// vector capacity and the scratch's visited map. Bit-identical to a
  /// freshly constructed BallView (tests/graph_test.cpp asserts this);
  /// only the allocations differ. One pass: the BFS reads each member's
  /// host row once and builds the in-ball adjacency as it goes (interior
  /// rows from the scan itself, boundary rows as the reversed interior
  /// edges). A non-null `filter` censors the collection: blocked nodes
  /// and blocked edges are invisible to BFS and adjacency alike, i.e. the
  /// ball is collected in the realized fault subgraph (host_degrees_
  /// still report the intact host graph — the algorithm knows its port
  /// count even when links misbehave).
  void collect(const Graph& g, NodeId center, int radius,
               BallScratch& scratch, const BallFilter* filter = nullptr);

  /// Collects the ball from any Topology. A materialized Graph takes the
  /// CSR path above; anything else runs the same kernel through
  /// neighbors_of with ball-bounded scratch (no O(n) visited arrays),
  /// producing a view bit-identical to collecting from the materialized
  /// graph of the same topology (tests/topology_test.cpp).
  void collect(const Topology& topology, NodeId center, int radius,
               BallScratch& scratch, const BallFilter* filter = nullptr);

  /// Number of nodes in the ball.
  NodeId size() const noexcept {
    return static_cast<NodeId>(members_.size());
  }

  int radius() const noexcept { return radius_; }

  /// Local index of the center (always 0).
  NodeId center_local() const noexcept { return 0; }

  /// Original graph index of local node i.
  NodeId to_original(NodeId local) const noexcept { return members_[local]; }

  /// All original indices, in BFS discovery order (center first; nodes at
  /// distance d precede nodes at distance d+1).
  std::span<const NodeId> members() const noexcept { return members_; }

  /// Distance from the center of local node i (0 <= dist <= radius).
  int distance(NodeId local) const noexcept { return distances_[local]; }

  /// Neighbors of local node i *inside the ball*, as local indices, per the
  /// paper's edge rule (no edges between two distance-t nodes).
  std::span<const NodeId> neighbors(NodeId local) const noexcept {
    return {adjacency_.data() + offsets_[local],
            adjacency_.data() + offsets_[local + 1]};
  }

  NodeId degree_in_ball(NodeId local) const noexcept {
    return static_cast<NodeId>(offsets_[local + 1] - offsets_[local]);
  }

  /// Degree of the node in the *host graph* — visible to a LOCAL algorithm
  /// for nodes at distance <= t-1 (their full neighbor list arrived), and
  /// also exposed for distance-t nodes because a (t+1)-round collection
  /// would reveal it; callers modeling strict t-round knowledge should use
  /// degree_in_ball for boundary nodes.
  NodeId host_degree(NodeId local) const noexcept {
    return host_degrees_[local];
  }

  /// Words of the canonical knowledge encoding of this ball — the modeled
  /// cost of delivering the view to the center (local/telemetry.h): one
  /// table-size word, plus per member its id, input, adjacency flag, and
  /// neighbor count, plus the in-ball neighbor lists. Matches the shape of
  /// the flooding collector's serialization (local/ball_collector.cpp).
  std::uint64_t encoded_words() const noexcept {
    return 1 + 4 * static_cast<std::uint64_t>(members_.size()) +
           static_cast<std::uint64_t>(adjacency_.size());
  }

  /// A structural fingerprint of the ball: adjacency + distances serialized
  /// in BFS discovery order. Two balls with equal signatures have identical
  /// local structure *as collected* (not full isomorphism canonicalization:
  /// discovery order depends on neighbor order, which is by original index).
  /// Sufficient for the experiments, which compare balls collected through
  /// identical pipelines.
  std::uint64_t structure_signature() const;

 private:
  // The one-pass kernel behind both collect overloads: `rows(v)` yields
  // v's sorted host row, `visited` maps original -> local index.
  template <typename Rows, typename Visited>
  void collect_one_pass(NodeId center, int radius, const Rows& rows,
                        Visited& visited, const BallFilter* filter,
                        std::vector<std::size_t>& cursor);

  int radius_ = 0;
  std::vector<NodeId> members_;     // local -> original
  std::vector<int> distances_;      // local -> distance from center
  std::vector<NodeId> host_degrees_;
  std::vector<std::size_t> offsets_;
  std::vector<NodeId> adjacency_;   // local indices
};

}  // namespace lnc::graph
