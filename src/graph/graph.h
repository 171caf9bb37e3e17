// Immutable simple undirected graphs in compressed-sparse-row form.
//
// The LOCAL model (paper, section 2.1.1) works over connected simple graphs;
// the derandomization proof additionally manipulates disconnected unions
// (Claim 3), so Graph itself does not require connectivity — algorithms and
// experiments assert it where the model does.
//
// CSR keeps neighbor scans allocation-free, which matters because the
// Monte-Carlo experiments run millions of ball collections.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/topology.h"

namespace lnc::graph {

/// An undirected edge as an unordered pair (stored with u < v).
struct Edge {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;

  friend bool operator==(const Edge&, const Edge&) = default;
};

class Graph : public Topology {
 public:
  class Builder;

  Graph() = default;

  NodeId node_count() const noexcept override {
    return static_cast<NodeId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }

  /// Number of undirected edges.
  std::size_t edge_count() const noexcept { return adjacency_.size() / 2; }

  /// Sorted neighbor list of v.
  std::span<const NodeId> neighbors(NodeId v) const noexcept {
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

  /// Topology interface: the CSR row directly; `scratch` is untouched.
  std::span<const NodeId> neighbors_of(
      NodeId v, std::vector<NodeId>& scratch) const override {
    (void)scratch;
    return neighbors(v);
  }

  const Graph* as_graph() const noexcept override { return this; }

  NodeId degree(NodeId v) const noexcept {
    return static_cast<NodeId>(offsets_[v + 1] - offsets_[v]);
  }

  NodeId max_degree() const noexcept;
  NodeId min_degree() const noexcept;

  /// Binary search over the sorted neighbor list.
  bool has_edge(NodeId u, NodeId v) const noexcept;

  /// All edges, each reported once with u < v, sorted lexicographically.
  std::vector<Edge> edges() const;

  bool operator==(const Graph& other) const noexcept {
    return offsets_ == other.offsets_ && adjacency_ == other.adjacency_;
  }

 private:
  friend class Builder;
  std::vector<std::size_t> offsets_;  // size node_count + 1
  std::vector<NodeId> adjacency_;    // size 2 * edge_count, sorted per node
};

/// Accumulates edges, rejects self-loops, deduplicates parallel edges, and
/// freezes into CSR. Node count may grow implicitly via add_edge or be set
/// up front (isolated nodes are legal in Claim-3-style unions).
class Graph::Builder {
 public:
  Builder() = default;
  explicit Builder(NodeId node_count) : node_count_(node_count) {}

  /// Adds the undirected edge {u, v}; u == v is a contract violation.
  /// Duplicate insertions are deduplicated at build() time.
  Builder& add_edge(NodeId u, NodeId v);

  NodeId node_count() const noexcept { return node_count_; }

  /// Freezes into an immutable Graph. The builder is left valid but empty.
  Graph build();

 private:
  NodeId node_count_ = 0;
  std::vector<Edge> edges_;
};

}  // namespace lnc::graph
