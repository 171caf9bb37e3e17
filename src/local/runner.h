// Ball-based execution: the paper's observation (section 2.1.1) that a
// t-round algorithm is equivalent to "every node inspects B_G(v, t) and
// maps what it sees to an output". Construction algorithms and deciders in
// liblnc are written against this view; tests/local_test.cpp checks the
// equivalence against the message-passing engine via the ball-collection
// protocol.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>

#include "graph/ball.h"
#include "local/instance.h"
#include "local/telemetry.h"
#include "rand/coins.h"

namespace lnc::local {

/// Everything a node sees after t rounds: the ball, plus per-member labels.
/// Members are addressed by ball-local index; 0 is the center.
///
/// Algorithms MUST read identities through identity() — the order-invariant
/// wrapper (algo/order_invariant.h) substitutes canonical rank identities
/// via `id_override`, which is keyed by ball-LOCAL index.
struct View {
  const graph::BallView* ball = nullptr;
  const Instance* instance = nullptr;
  /// |V|, set only on decision views whose evaluation grants knowledge of
  /// n (decide::EvaluateOptions::grant_n).
  std::optional<std::uint64_t> n_nodes;
  const std::vector<ident::Identity>* id_override = nullptr;

  ident::Identity identity(graph::NodeId local) const noexcept {
    if (id_override != nullptr) return (*id_override)[local];
    return instance->identity_of(ball->to_original(local));
  }
  Label input(graph::NodeId local) const noexcept {
    return instance->input_of(ball->to_original(local));
  }
  ident::Identity center_identity() const noexcept { return identity(0); }
  Label center_input() const noexcept { return input(0); }
};

/// A deterministic constant-round construction algorithm in ball form.
class BallAlgorithm {
 public:
  virtual ~BallAlgorithm() = default;
  virtual std::string name() const = 0;
  virtual int radius() const = 0;
  virtual Label compute(const View& view) const = 0;
};

/// A Monte-Carlo construction algorithm in ball form. The CoinProvider
/// models "random bits may be exchanged": the node may read the coins of
/// any member of its ball (it addresses them by identity), exactly the
/// power the model grants after t rounds of communication.
class RandomizedBallAlgorithm {
 public:
  virtual ~RandomizedBallAlgorithm() = default;
  virtual std::string name() const = 0;
  virtual int radius() const = 0;
  virtual Label compute(const View& view,
                        const rand::CoinProvider& coins) const = 0;

  /// K such that compute() reads mostly draws [0, K) of its members — a
  /// prefetch hint for callers that batch-fill a rand::CoinTable, never a
  /// correctness input (the table falls back to Philox beyond it). 0, the
  /// default, leaves the table empty.
  virtual std::uint64_t coin_prefix() const { return 0; }
};

/// A reusable ball-collection slot: the view's vectors, the scratch's
/// visited map and the ball-local output buffer keep their capacity across
/// collect() calls. The direct ball runner and the decision loop
/// (decide/evaluate.h) hold one per worker, so the steady-state node
/// inspection allocates nothing (ROADMAP "BallView arenas").
struct BallWorkspace {
  graph::BallView ball;
  graph::BallScratch scratch;
  Labeling outputs;  ///< the ball's members' outputs, by ball-LOCAL index

  /// B(v, radius) in `ball`: a view of `table`'s entry when `table` is
  /// set (pick_ball_table below), else collected from `topology` under
  /// `censor`.
  const graph::BallView& load(const graph::Topology& topology,
                              const graph::BallTable* table, graph::NodeId v,
                              int radius, const graph::BallFilter* censor) {
    if (table != nullptr) {
      ball.view(*table, v);
    } else {
      ball.collect(topology, v, radius, scratch, censor);
    }
    return ball;
  }
};

/// The one choice between a ball table and live collection, made once per
/// loop by the ball runner and by the decision loop (decide/evaluate.h):
/// the table among `tables` that holds inst's radius-`radius` balls, or
/// null, meaning collect live. A loop with a `censor` always collects
/// live: each trial censors different balls, so a table of the intact
/// graph is wrong for it. A table of the right radius must belong to
/// inst's graph (asserted).
const graph::BallTable* pick_ball_table(
    std::span<const graph::BallTable> tables, const Instance& inst,
    int radius, const graph::BallFilter* censor);

struct RunOptions {
  /// When set, the run charges its modeled communication volume here (see
  /// local/telemetry.h: per inspected ball, one announcement per member
  /// and the ball's canonical encoding in words; max(radius, 1) rounds
  /// per run). Charges are pure functions of the instance and radius —
  /// deterministic across thread counts.
  Telemetry* telemetry = nullptr;

  /// Reusable ball storage (the batched Monte-Carlo path passes its
  /// worker's slot, keeping capacity warm ACROSS trials). Null still
  /// reuses one call-local workspace across the nodes of this run.
  BallWorkspace* ball = nullptr;

  /// Optional fault censoring (src/fault/): every ball is collected inside
  /// the realized fault subgraph the filter describes. A node whose CENTER
  /// is blocked is crashed: it computes nothing and outputs the 0
  /// tombstone (filters are pure, so the censored run stays a pure
  /// function of the trial). Modeled telemetry charges only the balls of
  /// surviving nodes — crashed nodes neither announce nor read.
  const graph::BallFilter* ball_filter = nullptr;

  /// Read-only tables of this instance's balls (graph/ball.h), shared by
  /// the trials of a fault-free materialized sweep row. When
  /// pick_ball_table finds one for the algorithm's radius, the run views
  /// B(v, radius) in it instead of collecting it; results and telemetry
  /// are the same either way.
  std::span<const graph::BallTable> ball_tables;
};

/// Runs a deterministic ball algorithm at every node.
Labeling run_ball_algorithm(const Instance& inst, const BallAlgorithm& algo,
                            const RunOptions& options = {});

/// Runs a randomized ball algorithm at every node with the given coins
/// (fix the seed upstream to realize a fixed random string sigma).
Labeling run_ball_algorithm(const Instance& inst,
                            const RandomizedBallAlgorithm& algo,
                            const rand::CoinProvider& coins,
                            const RunOptions& options = {});

/// In-place variants writing into a caller-owned labeling (resized to
/// node_count). The batched Monte-Carlo path reuses one labeling per
/// worker across trials instead of allocating one per trial.
void run_ball_algorithm_into(const Instance& inst, const BallAlgorithm& algo,
                             Labeling& output, const RunOptions& options = {});
void run_ball_algorithm_into(const Instance& inst,
                             const RandomizedBallAlgorithm& algo,
                             const rand::CoinProvider& coins, Labeling& output,
                             const RunOptions& options = {});

/// Adapts a deterministic BallAlgorithm to the randomized interface
/// (ignores the coins); convenient for experiments comparing both kinds.
class AsRandomized final : public RandomizedBallAlgorithm {
 public:
  explicit AsRandomized(const BallAlgorithm& inner) : inner_(&inner) {}
  std::string name() const override { return inner_->name(); }
  int radius() const override { return inner_->radius(); }
  Label compute(const View& view,
                const rand::CoinProvider& /*coins*/) const override {
    return inner_->compute(view);
  }

 private:
  const BallAlgorithm* inner_;
};

}  // namespace lnc::local
