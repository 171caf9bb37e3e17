// Structural measurements: BFS distances, diameter, connectivity,
// biconnectivity, girth.
//
// Every function here needs only node_count() and neighbor scans, so the
// whole module speaks Topology (graph/topology.h): a materialized Graph
// binds directly, and implicit topologies (graph/implicit.h) measure
// without ever materializing. All algorithms hold O(n) working arrays —
// instrument-scale, not giga-scale.
//
// Theorem 1's construction needs graphs with diameter >= D = 2*mu*(t+t'),
// node sets S pairwise at distance > 2(t+t'), and the glued result must be
// connected with degree <= k; section 5 remarks it also preserves
// 2-connectivity. These checkers are the measuring instruments for those
// claims (experiments E6-E8).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/topology.h"

namespace lnc::graph {

/// BFS distances from src; -1 for unreachable nodes.
std::vector<int> bfs_distances(const Topology& g, NodeId src);

/// Distance between two nodes; -1 if disconnected.
int distance(const Topology& g, NodeId a, NodeId b);

/// Maximum finite BFS distance from src (its eccentricity); -1 when some
/// node is unreachable.
int eccentricity(const Topology& g, NodeId src);

/// Exact diameter via n BFS runs; -1 when the graph is disconnected.
/// Intended for the experiment scales (n up to ~10^4).
int diameter(const Topology& g);

bool is_connected(const Topology& g);

/// Number of connected components.
std::size_t component_count(const Topology& g);

/// Component index per node (0-based, in order of first discovery).
std::vector<std::size_t> components(const Topology& g);

/// Articulation vertices (cut vertices), via iterative Tarjan lowlink.
std::vector<NodeId> articulation_points(const Topology& g);

/// Connected, has >= 3 nodes, and no articulation point.
bool is_biconnected(const Topology& g);

/// Length of a shortest cycle; -1 for forests. O(n * m) BFS sweep.
int girth(const Topology& g);

/// Greedily selects nodes pairwise at distance > min_separation, scanning
/// in index order. Used to build the set S of Claim 4 (mu nodes pairwise at
/// distance >= 2(t+t') from each other).
std::vector<NodeId> scattered_nodes(const Topology& g, int min_separation,
                                    std::size_t max_count);

}  // namespace lnc::graph
