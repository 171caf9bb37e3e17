// The neighbors-on-demand topology interface (ROADMAP "Implicit
// giga-scale topologies").
//
// The LOCAL model only ever inspects radius-t balls, so a trial never
// needs more of the graph than the neighborhoods it expands. Topology is
// that contract: node count plus the sorted neighbor list of one node at
// a time. The materialized CSR Graph implements it trivially (graph.h);
// ImplicitTopology implementations (implicit.h) synthesize neighborhoods
// from (family, params, seed) so n = 10^8+ sweeps run in O(ball) memory
// instead of O(n + m).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace lnc::graph {

class Graph;

/// Dense node index in [0, node_count). Distinct from ident::Identity:
/// indices are an implementation artifact, identities are the model's
/// (adversarial) names.
using NodeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// A simple undirected graph exposed one neighborhood at a time.
///
/// The contract mirrors CSR exactly: neighbors_of(v) is v's neighbor
/// list sorted ascending, with no self-loops and no duplicates, and is
/// symmetric (u in neighbors_of(v) iff v in neighbors_of(u)). Ball
/// collection (ball.h) and every consumer that only scans neighborhoods
/// take `const Topology&`; consumers that need global structure (edge
/// iteration, graph surgery) keep taking `const Graph&`.
class Topology {
 public:
  virtual ~Topology() = default;

  virtual NodeId node_count() const noexcept = 0;

  /// The sorted neighbor list of v. May return a span into `scratch`
  /// (implicit topologies synthesize the list there) or into internal
  /// storage (Graph returns its CSR row and leaves `scratch` untouched).
  /// Either way the span is invalidated by the next neighbors_of call
  /// that reuses the same scratch vector.
  virtual std::span<const NodeId> neighbors_of(
      NodeId v, std::vector<NodeId>& scratch) const = 0;

  /// This topology as a CSR Graph, or null: ball collection's check for
  /// its O(n)-scratch fast path, one virtual call per ball.
  virtual const Graph* as_graph() const noexcept { return nullptr; }
};

}  // namespace lnc::graph
