// The generic t-round full-information protocol: every node floods its
// knowledge every round; after t rounds a node knows exactly B_G(v, t) —
// identities and inputs of all nodes at distance <= t, and the adjacency
// of all nodes at distance <= t-1 (hence every ball edge except those
// between two distance-t nodes, matching the paper's ball definition).
//
// This is the constructive half of the "simulation theorem" of section
// 2.1.1: "an algorithm A performing in t rounds can be simulated by an
// algorithm B executing two phases: First, every node v collects all data
// from nodes at distance at most t from v; Second, every node simulates
// the execution of A in B_G(v, t)." Phase one is this protocol; phase two
// starts from reconstruct_ball below, and local/experiment.cpp runs both
// as the messages and two-phase execution modes. tests/local_test.cpp
// checks that the knowledge gathered here coincides with graph::BallView
// node-for-node and edge-for-edge.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "local/engine.h"

namespace lnc::local {

/// What the collector learned about one remote node.
struct KnownNode {
  ident::Identity id = 0;
  Label input = 0;
  bool adjacency_known = false;
  std::vector<ident::Identity> neighbor_ids;  // valid iff adjacency_known
};

/// Knowledge table keyed by identity (nodes have no global indices in the
/// LOCAL model — identity is the only name they share).
using Knowledge = std::map<ident::Identity, KnownNode>;

/// The flooding collector as a reusable NodeProgram: after `radius` rounds
/// its knowledge table is exactly B_G(v, radius). Subclass and override
/// receive() to run phase two of the simulation theorem *inside* the node
/// (see local/experiment.cpp's native message-passing execution mode).
class BallCollectorProgram : public NodeProgram {
 public:
  explicit BallCollectorProgram(int radius) : radius_(radius) {}

  bool init(const NodeEnv& env) override;
  void send(int round, MessageWriter& out) override;
  bool receive(int round, const Inbox& inbox) override;
  Label output() const override { return 0; }

  int radius() const noexcept { return radius_; }
  ident::Identity self_identity() const noexcept { return self_id_; }
  const Knowledge& knowledge() const noexcept { return knowledge_; }
  Knowledge take_knowledge() noexcept { return std::move(knowledge_); }

 private:
  int radius_;
  ident::Identity self_id_ = 0;
  Knowledge knowledge_;
};

/// Runs the flooding protocol for `radius` rounds and returns every node's
/// final knowledge table, indexed by node index.
std::vector<Knowledge> collect_balls(const Instance& inst, int radius,
                                     const EngineOptions& options = {});

/// Same protocol, writing into a caller-owned table vector so batched
/// executions (local/batch_runner.h) reuse the OUTER vector across trials.
/// Each Knowledge map is still move-assigned fresh from the collector
/// programs — per-trial map-node allocations remain (see the ROADMAP's
/// instance-caching item for the deeper reuse).
void collect_balls_into(const Instance& inst, int radius,
                        const EngineOptions& options,
                        std::vector<Knowledge>& tables);

/// Edges of the ball reconstructed from a knowledge table: unordered
/// identity pairs (a, b), a < b, where at least one endpoint's adjacency is
/// known. This equals the edge set of B_G(v, t) mapped to identities.
std::vector<std::pair<ident::Identity, ident::Identity>> knowledge_edges(
    const Knowledge& knowledge);

/// The ball reconstructed from a knowledge table: a standalone instance
/// whose nodes 0..m-1 are the known identities in ascending order, plus
/// the local index of the collecting node (the center).
struct ReconstructedBall {
  Instance instance;         ///< graph + inputs + identities, ball-only
  graph::NodeId center = 0;  ///< index of the collector in `instance`
};

ReconstructedBall reconstruct_ball(const Knowledge& knowledge,
                                   ident::Identity center_identity);

}  // namespace lnc::local
