// Fault models: the adversity axis (ROADMAP) for resilience sweeps.
//
// The paper's executions assume perfectly reliable synchronous delivery;
// the randomized-network-coding literature (PAPERS.md, Chen & Kishore)
// studies the same protocols coordinating over links that are NOT
// reliable. A FaultModel is a pure, replayable adversary: every fault it
// realizes — a message lost, a node crash-stopped, an edge down for one
// round — is a deterministic function of a dedicated Philox coin stream
// (TrialEnv::fault_coins(), Stream::kFault) and the identities involved,
// never of execution order. That keeps faulty runs bit-identical across
// thread counts, shard partitions, and --trial-range slices — the same
// contract every other layer of the stack already guarantees.
//
// Two execution paths consume a model differently:
//
//  * the MESSAGE ENGINE (local/engine.cpp) resolves faults round by
//    round: crash_round() silences a node from its crash round onward,
//    a LinkTable realizes every edge_down() of a round in one batched
//    draw, and drops_delivery() suppresses individual deliveries.
//    Engine rounds are 1-based, so round index 0 is never drawn there;
//  * the BALL PATH (ball collection + decider evaluation) has no rounds.
//    It realizes a per-trial FAULT SUBGRAPH from the reserved round-0
//    slots: ball_node_failed() erases crashed nodes, ball_edge_fault()
//    erases faulty edges, and BallCensor adapts both to graph::BallFilter
//    so collection happens inside the realized subgraph. The predicates
//    are pure and hop-free, so censored collection stays well-defined and
//    reusable; telemetry is charged once per trial by a separate sweep
//    (local/experiment.cpp), never by the predicates themselves.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "graph/ball.h"
#include "graph/graph.h"
#include "rand/coins.h"

namespace lnc::fault {

/// Sentinel crash round: the node never crashes.
inline constexpr std::uint64_t kNeverCrashes = ~std::uint64_t{0};

/// What the realized fault subgraph says about an edge (ball path).
enum class EdgeFault {
  kNone,     ///< edge intact
  kDropped,  ///< delivery over the edge lost (charges messages_dropped)
  kChurned,  ///< edge deactivated (charges edges_churned)
};

class FaultModel {
 public:
  virtual ~FaultModel() = default;

  virtual std::string_view name() const noexcept = 0;

  /// True only for the `none` model: a trivial model must realize no
  /// faults, and the harness bypasses the fault machinery entirely (the
  /// bit-stability contract with pre-fault runs depends on it).
  virtual bool trivial() const noexcept { return false; }

  /// First 1-based round at which the node with this identity is crashed
  /// (silent from that round onward), or kNeverCrashes.
  virtual std::uint64_t crash_round(
      const rand::CoinProvider& coins, std::uint64_t identity) const {
    (void)coins;
    (void)identity;
    return kNeverCrashes;
  }

  /// Whether drops_delivery() can ever return true. The engine draws
  /// per-delivery drops only for models that say so.
  virtual bool drops_deliveries() const noexcept { return false; }

  /// Whether the delivery sender -> receiver in 1-based round `round` is
  /// lost. Directed: the two directions of an edge drop independently.
  virtual bool drops_delivery(const rand::CoinProvider& coins,
                              std::uint64_t sender, std::uint64_t receiver,
                              std::uint64_t round) const {
    (void)coins;
    (void)sender;
    (void)receiver;
    (void)round;
    return false;
  }

  /// Whether the undirected edge {a, b} is down for the whole 1-based
  /// round `round` (both directions suppressed). Symmetric in a, b. The
  /// engine realizes it through LinkTable, which must agree with it.
  virtual bool edge_down(const rand::CoinProvider& coins, std::uint64_t id_a,
                         std::uint64_t id_b, std::uint64_t round) const {
    (void)coins;
    (void)id_a;
    (void)id_b;
    (void)round;
    return false;
  }

  /// Ball path: whether this node is failed in the trial's realized fault
  /// subgraph. Default: crashed at any round == failed — every node the
  /// engine would eventually silence is censored from balls, a consistent
  /// superset ("crashed between phases") that keeps the two paths' crash
  /// draws shared.
  virtual bool ball_node_failed(const rand::CoinProvider& coins,
                                std::uint64_t identity) const {
    return crash_round(coins, identity) != kNeverCrashes;
  }

  /// Ball path: the realized state of undirected edge {a, b}. Symmetric
  /// in a, b; models draw from the reserved round-0 slots so the engine
  /// rounds (>= 1) never collide.
  virtual EdgeFault ball_edge_fault(const rand::CoinProvider& coins,
                                    std::uint64_t id_a,
                                    std::uint64_t id_b) const {
    (void)coins;
    (void)id_a;
    (void)id_b;
    return EdgeFault::kNone;
  }

 protected:
  friend class LinkTable;

  /// edge_down() in the form LinkTable realizes in batch: {a, b} is down
  /// in round r iff bernoulli(p, coins.draw(key(a, b), r)). p = 0, the
  /// default, takes no link down.
  struct LinkFaults {
    double p = 0.0;
    std::uint64_t (*key)(std::uint64_t id_a, std::uint64_t id_b) = nullptr;
  };
  virtual LinkFaults link_faults() const noexcept { return {}; }
};

/// The engine path's per-run table of a model's link faults: each
/// undirected edge of the run's graph once, with the suppression slots of
/// both its ports and the model's per-edge draw key. realize() then draws
/// a whole round with ONE philox_u64_batch call (counter = (edge key,
/// round)), bit-identical to edge_down() edge by edge. Empty for models
/// that take no link down. The arrays keep their capacity across builds;
/// one per local::EngineScratch, not thread-safe.
class LinkTable {
 public:
  /// Lists g's edges for `model`. Node v has identity ids[v], and the slot
  /// of v's port p is port_offsets[v] + p.
  void build(const FaultModel& model, const graph::Graph& g,
             std::span<const std::uint64_t> ids,
             std::span<const std::size_t> port_offsets);

  /// No link to draw: the model takes none down, or g has no edges.
  bool empty() const noexcept { return keys_.empty(); }

  /// Realizes 1-based round `round`: writes 1 (down) or 0 (up) into both
  /// slots of every link and returns the number of links down.
  std::uint64_t realize(const rand::PhiloxCoins& coins, std::uint64_t round,
                        char* suppressed);

  /// Retained capacity, in bytes (telemetry's arena high-water mark).
  std::size_t footprint_bytes() const noexcept;

 private:
  double p_ = 0.0;
  std::vector<std::uint64_t> keys_;    // counter_hi: edge i's draw key
  std::vector<std::uint64_t> rounds_;  // counter_lo: the round, every lane
  std::vector<std::uint64_t> draws_;
  std::vector<std::size_t> slots_;  // [2i], [2i + 1]: edge i's two ports
};

/// The four builtins behind the `faults` registry (scenario/builtins.cpp
/// owns the registry entries and param schemas; these are the models).
std::shared_ptr<const FaultModel> make_none();
std::shared_ptr<const FaultModel> make_drop(double p_loss);
std::shared_ptr<const FaultModel> make_crash(double p_crash,
                                             std::uint64_t crash_round_cap);
std::shared_ptr<const FaultModel> make_churn(double p_churn);

/// Adapts a FaultModel + the trial's fault coins to graph::BallFilter, so
/// ball collection happens inside the trial's realized fault subgraph.
/// `identity` maps an original graph index to the node identity the model
/// keys its draws by (the same identities the engine path uses, so both
/// paths censor the same nodes). Pure; safe to query repeatedly.
class BallCensor final : public graph::BallFilter {
 public:
  using IdentityFn = std::function<std::uint64_t(graph::NodeId)>;

  BallCensor(const FaultModel& model, const rand::CoinProvider& coins,
             IdentityFn identity)
      : model_(&model), coins_(&coins), identity_(std::move(identity)) {}

  bool node_blocked(graph::NodeId v) const override {
    return model_->ball_node_failed(*coins_, identity_(v));
  }

  bool edge_blocked(graph::NodeId a, graph::NodeId b) const override {
    return model_->ball_edge_fault(*coins_, identity_(a), identity_(b)) !=
           EdgeFault::kNone;
  }

 private:
  const FaultModel* model_;
  const rand::CoinProvider* coins_;
  IdentityFn identity_;
};

}  // namespace lnc::fault
