// Instances and configurations (paper, section 2.2.1).
//
//   input configuration        (G, x)
//   input-output configuration (G, (x, y))
//   instance                   (G, x, id)
//
// Inputs and outputs are per-node labels. The paper takes binary strings;
// under the promise F_k their length is at most k bits, so a 64-bit word
// loses nothing for k <= 64 and keeps the hot paths allocation-free.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/implicit.h"
#include "ident/identity.h"

namespace lnc::local {

/// A node label (input or output value). Bit-length bounded by the promise
/// F_k; see promise_holds().
using Label = std::uint64_t;

/// A full per-node labeling, indexed by node index.
using Labeling = std::vector<Label>;

/// The paper's instance triple (G, x, id).
///
/// The graph lives in exactly one of two representations: materialized
/// (`g`, a CSR Graph; `implicit` null) or implicit (`implicit` set, `g`
/// empty — neighborhoods synthesized on demand, no O(n) state at all).
/// Implicit instances carry consecutive identities (id(v) = v + 1, the
/// paper's Corollary-1 assignment) and all-zero inputs, computed rather
/// than stored; consumers go through topology() / identity_of() instead
/// of touching `g` / `ids` directly.
struct Instance {
  graph::Graph g;
  std::shared_ptr<const graph::ImplicitTopology> implicit;
  Labeling input;           // size == node_count(); empty means all-zero
  ident::IdAssignment ids;  // size == node_count(); empty when implicit

  bool is_implicit() const noexcept { return implicit != nullptr; }

  /// The graph under either representation — what ball collection and
  /// every neighbor-scanning consumer should expand against.
  const graph::Topology& topology() const noexcept {
    return implicit ? static_cast<const graph::Topology&>(*implicit) : g;
  }

  graph::NodeId node_count() const noexcept {
    return implicit ? implicit->node_count() : g.node_count();
  }

  /// Input of node v (all-zero default when input is empty).
  Label input_of(graph::NodeId v) const noexcept {
    return input.empty() ? 0 : input[v];
  }

  /// Identity of node v: the stored assignment, or the computed
  /// consecutive assignment (v + 1) for implicit instances.
  ident::Identity identity_of(graph::NodeId v) const noexcept {
    return implicit ? static_cast<ident::Identity>(v) + 1 : ids[v];
  }

  /// Validates internal consistency (sizes match, ids distinct — the
  /// IdAssignment constructor already guarantees distinctness).
  void validate() const;
};

/// Nodes [begin, end) of an instance: all of them, or one part of a trial
/// cut by node range (local/batch_runner.h).
struct NodeRange {
  graph::NodeId begin = 0;
  graph::NodeId end = 0;
};

/// Builds an instance with all-zero inputs and the given identities.
Instance make_instance(graph::Graph g, ident::IdAssignment ids);

/// Builds an implicit instance: on-demand neighborhoods, consecutive
/// identities, all-zero inputs.
Instance make_implicit_instance(
    std::shared_ptr<const graph::ImplicitTopology> topology);

/// Bit-length of a label (0 for label 0).
int label_bits(Label value) noexcept;

/// The promise F_k (paper, section 2.2.3): degree, input length and output
/// length all at most k. Empty output span checks the input side only.
bool promise_holds(const graph::Graph& g, std::span<const Label> x,
                   std::span<const Label> y, int k) noexcept;

}  // namespace lnc::local
