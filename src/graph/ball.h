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
//
// A BallView points at one of two things. collect() fills the view's own
// storage and points the view at it; view() points it at an entry of a
// BallTable, which holds every ball of one CSR graph at one radius, and
// copies nothing. Across Monte-Carlo trials on one instance only the
// coins change, so a fault-free materialized sweep row collects each
// ball once into a table (scenario::run_sweep) and every trial views it.
// Both kinds read the same: a table entry is what collect() returns for
// the same center and radius.
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
/// so its visited map is a ball-sized open-addressing table instead, whose
/// key slots are empty between collections.
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
  std::vector<std::size_t> map_filled_;  // slots filled this collection
  std::vector<NodeId> fetch_;        // neighbors_of synthesis buffer
};

class BallTable;

class BallView {
 public:
  /// An empty view; fill with collect() or view().
  BallView() = default;

  /// Collects B_G(center, radius). O(|ball| + edges inside).
  BallView(const Graph& g, NodeId center, int radius);

  /// Same, from any topology (dispatches like collect below).
  BallView(const Topology& topology, NodeId center, int radius);

  /// A copy reads the ball its source reads: a collected view's copy owns
  /// a copy of the ball, a table view's copy views the same entry. Moves
  /// keep the same rule.
  BallView(const BallView& other);
  BallView& operator=(const BallView& other);
  BallView(BallView&& other) noexcept = default;
  BallView& operator=(BallView&& other) noexcept = default;

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

  /// Points this view at `table`'s entry for `center`, B(center,
  /// table.radius()) of the table's graph, without copying it. The view
  /// reads the table until the next collect() or view(), so the table
  /// must outlive that reading.
  void view(const BallTable& table, NodeId center);

  /// Number of nodes in the ball.
  NodeId size() const noexcept { return size_; }

  int radius() const noexcept { return radius_; }

  /// Local index of the center (always 0).
  NodeId center_local() const noexcept { return 0; }

  /// Original graph index of local node i.
  NodeId to_original(NodeId local) const noexcept { return members_[local]; }

  /// All original indices, in BFS discovery order (center first; nodes at
  /// distance d precede nodes at distance d+1).
  std::span<const NodeId> members() const noexcept {
    return {members_, size_};
  }

  /// Distance from the center of local node i (0 <= dist <= radius).
  int distance(NodeId local) const noexcept { return distances_[local]; }

  /// Neighbors of local node i *inside the ball*, as local indices, per the
  /// paper's edge rule (no edges between two distance-t nodes).
  std::span<const NodeId> neighbors(NodeId local) const noexcept {
    return {adjacency_ + offsets_[local], adjacency_ + offsets_[local + 1]};
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
    return 1 + 4 * static_cast<std::uint64_t>(size_) + adjacency_size_;
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

  // Points the accessors at own_, which collect() just filled.
  void point_at_own() noexcept;

  friend class BallTable;

  // The ball collect() builds. A table view leaves it alone, so its
  // capacity stays warm for the next collect().
  struct Storage {
    std::vector<NodeId> members;       // local -> original
    std::vector<int> distances;        // local -> distance from center
    std::vector<NodeId> host_degrees;
    std::vector<std::uint32_t> offsets;  // size + 1, into adjacency
    std::vector<NodeId> adjacency;     // local indices
  };
  Storage own_;

  // What every accessor reads: own_ after collect(), a table entry after
  // view().
  const NodeId* members_ = nullptr;
  const int* distances_ = nullptr;
  const NodeId* host_degrees_ = nullptr;
  const std::uint32_t* offsets_ = nullptr;
  const NodeId* adjacency_ = nullptr;
  NodeId size_ = 0;
  std::uint32_t adjacency_size_ = 0;
  int radius_ = 0;
};

/// Every ball B(v, r) of one CSR graph at one radius r, in flat read-only
/// arrays: entry v is exactly what BallView::collect(g, v, r) builds, and
/// the same one-pass kernel fills it. Each array is one exact-size
/// allocation indexed by 32-bit offsets. The table records its graph, so
/// a loop can check that a table belongs to the instance it runs on.
///
/// Building costs at most two collections per node: measure() sizes each
/// entry (and so the table's bytes, before anything is allocated),
/// allocate() sizes the arrays, fill() collects again and copies.
/// A caller may split measure() and fill() over node ranges and run the
/// ranges concurrently, each with its own view and scratch (graph/ sits
/// below the thread pool, so the caller brings the threads).
class BallTable {
 public:
  BallTable() = default;

  /// Every radius-`radius` ball of g, built on this thread. Keeps a
  /// pointer to g, which must outlive the table.
  BallTable(const Graph& g, int radius);

  /// The split build: an unfilled table of g's radius-`radius` balls.
  /// Call measure() over ranges covering [0, n), then allocate() once,
  /// then fill() over ranges covering [0, n). Calls of one step may run
  /// concurrently on disjoint ranges; steps may not overlap.
  static BallTable unfilled(const Graph& g, int radius);
  /// Returns the bytes the range's entries add to bytes(); bytes() of
  /// the built table is 8 plus the sum over ranges covering [0, n).
  std::uint64_t measure(NodeId begin, NodeId end, BallView& ball,
                        BallScratch& scratch);
  void allocate();
  void fill(NodeId begin, NodeId end, BallView& ball, BallScratch& scratch);

  const Graph* graph() const noexcept { return graph_; }
  int radius() const noexcept { return radius_; }

  /// Heap bytes the table holds.
  std::uint64_t bytes() const noexcept;

 private:
  friend class BallView;

  const Graph* graph_ = nullptr;
  int radius_ = 0;
  // Entry v's members, distances and host degrees sit at
  // [member_begin_[v], member_begin_[v + 1]); its size + 1 ball-local
  // offsets at member_begin_[v] + v; its in-ball rows at
  // adjacency_begin_[v]. measure() leaves each entry's counts at v + 1
  // and allocate() turns them into prefix sums.
  std::vector<std::uint32_t> member_begin_;
  std::vector<std::uint32_t> adjacency_begin_;
  std::vector<NodeId> members_;
  std::vector<int> distances_;
  std::vector<NodeId> host_degrees_;
  std::vector<std::uint32_t> offsets_;
  std::vector<NodeId> adjacency_;
};

}  // namespace lnc::graph
