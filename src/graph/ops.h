// Structural operations used by the derandomization construction:
//
//  * disjoint_union   — Claim 3 runs the decider over a union of hard
//                       instances H_1 ... H_nu;
//  * subdivide_edge   — Theorem 1 subdivides a chosen edge e_i incident to
//                       u_i twice, inserting nodes v_i and w_i;
//  * cycle-linking happens in core/glue.cpp on top of these primitives;
//  * relabel          — identity-space bookkeeping when instances are
//                       embedded into larger graphs.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace lnc::graph {

/// Result of a disjoint union: the combined graph plus, for each input
/// part, the offset its nodes were shifted by (part i's node v becomes
/// offsets[i] + v).
struct UnionResult {
  Graph graph;
  std::vector<NodeId> offsets;
};

UnionResult disjoint_union(const std::vector<const Graph*>& parts);

/// Result of subdividing one edge twice. The original edge {a, b} is
/// replaced by the path a - first - second - b; `first` is adjacent to a.
struct DoubleSubdivision {
  Graph graph;
  NodeId first = kInvalidNode;   // new node adjacent to a
  NodeId second = kInvalidNode;  // new node adjacent to b
};

/// Subdivides edge {a, b} twice (the Theorem-1 move: the two inserted nodes
/// v_i, w_i later receive the inter-instance linking edges, so the degree
/// bound k > 2 is respected: inserted nodes end with degree <= 3 <= k).
/// Original node indices are preserved; new nodes get indices n and n+1.
DoubleSubdivision subdivide_edge_twice(const Graph& g, NodeId a, NodeId b);

/// Subdivides edge {a, b} once; the new node has index n.
Graph subdivide_edge(const Graph& g, NodeId a, NodeId b);

/// Returns the graph with node v's index mapped through `permutation`
/// (new_index = permutation[old_index]); permutation must be a bijection.
Graph relabel(const Graph& g, const std::vector<NodeId>& permutation);

}  // namespace lnc::graph
