// Graph families used across the experiments.
//
// The paper's hard instances are bounded-degree graphs under the promise
// F_k (degree <= k); rings/cycles carry the Linial and order-invariance
// experiments (E3, E5), random regular graphs and trees exercise the
// language checkers and the engine at scale.
#pragma once

#include <cstdint>

#include "graph/graph.h"

namespace lnc::graph {

/// Cycle C_n, n >= 3. Node i is adjacent to (i±1) mod n. Degree 2.
Graph cycle(NodeId n);

/// Path P_n, n >= 1 (n-1 edges).
Graph path(NodeId n);

/// Complete graph K_n.
Graph complete(NodeId n);

/// Star K_{1,n-1}: node 0 is the center.
Graph star(NodeId n);

/// w x h grid; node (r, c) has index r*w + c. Degree <= 4.
Graph grid(NodeId width, NodeId height);

/// w x h torus (grid with wraparound); requires w, h >= 3. Degree 4.
Graph torus(NodeId width, NodeId height);

/// d-dimensional hypercube on 2^d nodes; nodes adjacent iff indices differ
/// in exactly one bit. Degree d.
Graph hypercube(int dimensions);

/// Complete binary tree with `n` nodes (heap indexing). Degree <= 3.
Graph binary_tree(NodeId n);

/// Caterpillar: a spine path of `spine` nodes, each with `legs` pendant
/// leaves. Spine nodes come first. Degree <= legs + 2.
Graph caterpillar(NodeId spine, NodeId legs);

/// The Petersen graph (3-regular, girth 5) — a classic small testbed.
Graph petersen();

/// Random d-regular simple graph on n nodes via pairing with restarts;
/// requires n*d even and d < n. Deterministic in `seed`.
Graph random_regular(NodeId n, NodeId degree, std::uint64_t seed);

/// The locally-sampleable random (<= degree)-regular graph: materializes
/// graph::implicit_random_regular_cycles (implicit.h) by querying its
/// neighbor sampler, so the implicit and materialized representations of
/// the same (n, degree, seed) are the same graph by construction. The
/// scenario registry's "random-regular" family builds through this;
/// random_regular above remains for callers wanting the pairing model.
Graph random_regular_cycles(NodeId n, NodeId degree, std::uint64_t seed);

/// The locally-sampleable degree-capped G(n, p): materializes
/// graph::implicit_gnp_hash (implicit.h). The scenario registry's "gnp"
/// family builds through this.
Graph gnp_hash(NodeId n, double p, NodeId max_deg, std::uint64_t seed);

/// Random spanning tree on n nodes (random Prufer sequence). Degree bound
/// is not enforced; for bounded-degree trees use random_tree_bounded.
Graph random_tree(NodeId n, std::uint64_t seed);

/// Random tree with maximum degree <= max_deg (>= 2): attaches each new
/// node to a uniformly random node that still has spare degree.
Graph random_tree_bounded(NodeId n, NodeId max_deg, std::uint64_t seed);

}  // namespace lnc::graph
