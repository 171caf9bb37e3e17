// Tests for the simulation theorem (paper, section 2.1.1) as the
// messages and two-phase execution modes run it: the ball reconstructed
// from a flooding collector's knowledge table is B_G(v, t), phase one
// charges exactly t engine rounds, and granted knowledge of n reaches the
// simulated algorithm. tests/batch_test.cpp checks that both modes agree
// with the direct ball runner label for label.
#include <gtest/gtest.h>

#include <set>

#include "graph/generators.h"
#include "local/experiment.h"

namespace lnc::local {
namespace {

/// Rank of the center identity within its ball — reads ids + structure.
class CenterRank final : public BallAlgorithm {
 public:
  explicit CenterRank(int radius) : radius_(radius) {}
  std::string name() const override { return "center-rank"; }
  int radius() const override { return radius_; }
  Label compute(const View& view) const override {
    Label rank = 0;
    for (graph::NodeId i = 1; i < view.ball->size(); ++i) {
      if (view.identity(i) < view.center_identity()) ++rank;
    }
    return rank;
  }

 private:
  int radius_;
};

Instance labeled_instance(graph::Graph g, std::uint64_t seed) {
  const graph::NodeId n = g.node_count();
  Instance inst = make_instance(std::move(g),
                                ident::random_permutation(n, seed));
  inst.input.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    inst.input[v] = (seed + v * v) % 7;
  }
  return inst;
}

TEST(Simulate, TwoPhaseChargesExactlyRadiusEngineRounds) {
  const Instance inst = labeled_instance(graph::cycle(12), 3);
  for (const int radius : {0, 3}) {
    WorkerArena arena;
    ExecOptions options;
    options.arena = &arena;
    run_construction(inst, CenterRank(radius), ExecMode::kTwoPhase, options);
    EXPECT_EQ(arena.telemetry().rounds_executed,
              static_cast<std::uint64_t>(radius))
        << "radius " << radius;
  }
}

TEST(Simulate, ReconstructionMatchesBallMembership) {
  const Instance inst = labeled_instance(graph::grid(4, 4), 5);
  const auto tables = collect_balls(inst, 2);
  for (graph::NodeId v = 0; v < inst.node_count(); ++v) {
    const ReconstructedBall ball = reconstruct_ball(tables[v], inst.ids[v]);
    const graph::BallView direct(inst.g, v, 2);
    EXPECT_EQ(ball.instance.node_count(), direct.size());
    // Same identity set.
    std::set<ident::Identity> direct_ids;
    for (graph::NodeId i = 0; i < direct.size(); ++i) {
      direct_ids.insert(inst.ids[direct.to_original(i)]);
    }
    std::set<ident::Identity> rec_ids(ball.instance.ids.raw().begin(),
                                      ball.instance.ids.raw().end());
    EXPECT_EQ(rec_ids, direct_ids);
    // Inputs travel with identities.
    for (graph::NodeId i = 0; i < ball.instance.node_count(); ++i) {
      const graph::NodeId orig =
          inst.ids.index_of(ball.instance.ids[i]);
      EXPECT_EQ(ball.instance.input_of(i), inst.input_of(orig));
    }
  }
}

}  // namespace
}  // namespace lnc::local
