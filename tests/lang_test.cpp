// Tests for src/lang: every language's membership predicate and bad-ball
// semantics, plus the relaxation combinators.
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/implicit.h"
#include "lang/amos.h"
#include "lang/coloring.h"
#include "lang/domset.h"
#include "lang/frugal.h"
#include "lang/lll.h"
#include "lang/matching.h"
#include "lang/mis.h"
#include "lang/relax.h"
#include "lang/weak_coloring.h"
#include "rand/splitmix.h"

namespace lnc::lang {
namespace {

local::Instance ring_instance(graph::NodeId n) {
  return local::make_instance(graph::cycle(n), ident::consecutive(n));
}

TEST(ProperColoring, AcceptsProperRejectsMonochromatic) {
  const ProperColoring lang(3);
  const local::Instance inst = ring_instance(6);
  const local::Labeling proper = {0, 1, 0, 1, 0, 1};
  const local::Labeling clash = {0, 0, 1, 0, 1, 2};
  EXPECT_TRUE(lang.contains(inst, proper));
  EXPECT_FALSE(lang.contains(inst, clash));
  // Both endpoints of the monochromatic edge have bad balls.
  const auto bad = lang.bad_ball_centers(inst, clash);
  EXPECT_EQ(bad.size(), 2u);
  EXPECT_EQ(bad[0], 0u);
  EXPECT_EQ(bad[1], 1u);
}

TEST(ProperColoring, PaletteOverflowIsBad) {
  const ProperColoring lang(3);
  const local::Instance inst = ring_instance(5);
  const local::Labeling overflow = {0, 1, 2, 1, 3};  // color 3 out of range
  EXPECT_FALSE(lang.contains(inst, overflow));
}

TEST(ProperColoring, ConflictEdgeCount) {
  const local::Instance inst = ring_instance(5);
  // Ring edges: (0,1),(1,2),(2,3),(3,4),(4,0).
  const local::Labeling y = {0, 0, 0, 1, 0};
  // Conflicts: (0,1), (1,2), (4,0) -> 3.
  EXPECT_EQ(ProperColoring::conflict_edges(inst, y), 3u);
}

TEST(WeakColoring, CenterNeedsOneDifferingNeighbor) {
  const WeakColoring lang(2);
  const local::Instance inst = ring_instance(6);
  // Alternating: everyone has differing neighbors — weakly (and properly)
  // colored.
  EXPECT_TRUE(lang.contains(inst, local::Labeling{0, 1, 0, 1, 0, 1}));
  // Monochromatic: every node's whole neighborhood agrees.
  EXPECT_FALSE(lang.contains(inst, local::Labeling{1, 1, 1, 1, 1, 1}));
  // Blocks of three: interior nodes of each block are bad.
  const local::Labeling blocks = {0, 0, 0, 1, 1, 1};
  const auto bad = lang.bad_ball_centers(inst, blocks);
  EXPECT_EQ(bad.size(), 2u);  // nodes 1 and 4
}

TEST(WeakColoring, WeakIsWeakerThanProper) {
  // A coloring can be weak but not proper: {0,0,1,1} on C4.
  const local::Instance inst = ring_instance(4);
  const local::Labeling y = {0, 0, 1, 1};
  EXPECT_TRUE(WeakColoring(2).contains(inst, y));
  EXPECT_FALSE(ProperColoring(2).contains(inst, y));
}

TEST(Amos, AtMostOneSelected) {
  const Amos amos;
  const local::Instance inst = ring_instance(5);
  EXPECT_TRUE(amos.contains(inst, local::Labeling{0, 0, 0, 0, 0}));
  EXPECT_TRUE(amos.contains(inst, local::Labeling{0, 1, 0, 0, 0}));
  EXPECT_FALSE(amos.contains(inst, local::Labeling{0, 1, 0, 1, 0}));
  EXPECT_EQ(Amos::selected_count(local::Labeling{1, 1, 1}), 3u);
}

TEST(Mis, IndependenceAndMaximality) {
  const MaximalIndependentSet mis;
  const local::Instance inst = ring_instance(6);
  EXPECT_TRUE(mis.contains(inst, local::Labeling{1, 0, 1, 0, 1, 0}));
  // Adjacent members: independence violated.
  EXPECT_FALSE(mis.contains(inst, local::Labeling{1, 1, 0, 0, 1, 0}));
  // Node 3 has no member in N[3]: maximality violated.
  EXPECT_FALSE(mis.contains(inst, local::Labeling{1, 0, 0, 0, 1, 0}));
}

TEST(Mis, PathEdgeCases) {
  const local::Instance inst =
      local::make_instance(graph::path(3), ident::consecutive(3));
  EXPECT_TRUE(MaximalIndependentSet{}.contains(inst, local::Labeling{1, 0, 1}));
  EXPECT_TRUE(MaximalIndependentSet{}.contains(inst, local::Labeling{0, 1, 0}));
  EXPECT_FALSE(MaximalIndependentSet{}.contains(inst, local::Labeling{1, 0, 0}));
}

TEST(Matching, ValidSymmetricMaximal) {
  const MaximalMatching matching;
  // Path 0-1-2-3 with identities 1..4: match (0,1) and (2,3) by identity.
  // The implicit path computes the same identities instead of storing them.
  for (const local::Instance& inst :
       {local::make_instance(graph::path(4), ident::consecutive(4)),
        local::make_implicit_instance(graph::implicit_path(4))}) {
    const local::Labeling matched = {2, 1, 4, 3};
    EXPECT_TRUE(matching.contains(inst, matched));
    // Unmatched middle pair: nodes 1 and 2 both unmatched and adjacent.
    const local::Labeling partial = {2, 1, 0, 0};
    EXPECT_FALSE(matching.contains(inst, partial));
    // Asymmetric pointer: 0 names 2's identity (not a neighbor).
    const local::Labeling invalid = {3, 1, 4, 3};
    EXPECT_FALSE(matching.contains(inst, invalid));
    // Non-reciprocal: 0 points to 1, but 1 claims unmatched.
    const local::Labeling nonrecip = {2, 0, 4, 3};
    EXPECT_FALSE(matching.contains(inst, nonrecip));
  }
}

TEST(Matching, EmptyMatchingOnEdgelessGraphIsLegal) {
  const local::Instance inst =
      local::make_instance(graph::Graph::Builder(3).build(),
                           ident::consecutive(3));
  EXPECT_TRUE(MaximalMatching{}.contains(inst, local::Labeling{0, 0, 0}));
}

TEST(DomSet, DominationAndMinimality) {
  const MinimalDominatingSet ds;
  const local::Instance inst = ring_instance(6);
  // {0, 3} dominates C6 minimally.
  EXPECT_TRUE(ds.contains(inst, local::Labeling{1, 0, 0, 1, 0, 0}));
  // Empty set dominates nothing.
  EXPECT_FALSE(ds.contains(inst, local::Labeling{0, 0, 0, 0, 0, 0}));
  // All nodes: dominating but wildly non-minimal.
  EXPECT_FALSE(ds.contains(inst, local::Labeling{1, 1, 1, 1, 1, 1}));
}

TEST(DomSet, StarCenterIsMinimal) {
  const local::Instance inst =
      local::make_instance(graph::star(5), ident::consecutive(5));
  const MinimalDominatingSet ds;
  local::Labeling center_only(5, 0);
  center_only[0] = 1;
  EXPECT_TRUE(ds.contains(inst, center_only));
  // Center plus one leaf: the leaf is redundant.
  local::Labeling extra = center_only;
  extra[1] = 1;
  EXPECT_FALSE(ds.contains(inst, extra));
}

TEST(Frugal, FrugalityBoundsNeighborhoodColorUse) {
  const FrugalColoring lang(3, 1);  // 1-frugal: each color at most once
  const local::Instance star =
      local::make_instance(graph::star(4), ident::consecutive(4));
  // Center 0 color 0; leaves colored 1, 2, 1: color 1 used twice in the
  // center's neighborhood -> not 1-frugal (but proper).
  EXPECT_FALSE(lang.contains(star, local::Labeling{0, 1, 2, 1}));
  // Leaves all distinct within palette: {1, 2, ...} needs 3 distinct leaf
  // colors but the palette has only {0,1,2} minus center color — so on
  // K_{1,3}, 1-frugal 3-coloring is impossible; 2-frugal succeeds:
  EXPECT_TRUE(FrugalColoring(3, 2).contains(star, local::Labeling{0, 1, 2, 1}));
}

// Multiplicities are counted among a center's neighbours, not over the
// palette: at 1e9 colours a ball costs what it does at 4, and labelings
// inside the small palette get the same verdicts from both.
TEST(Frugal, HugePaletteMatchesTheSmallPaletteVerdicts) {
  const graph::Graph graphs[] = {graph::cycle(60), graph::torus(6, 6),
                                 graph::star(9), graph::hypercube(4)};
  rand::SplitMix64 rng(11);
  std::size_t centers = 0;
  std::size_t bad = 0;
  for (const graph::Graph& g : graphs) {
    const graph::NodeId n = g.node_count();
    const local::Instance inst = local::make_instance(g, ident::consecutive(n));
    for (const int frugality : {1, 2, 3}) {
      const FrugalColoring small(4, frugality);
      const FrugalColoring huge(1000000000, frugality);
      for (int trial = 0; trial < 50; ++trial) {
        local::Labeling y(n);
        for (local::Label& label : y) label = rng.next_below(4);
        const std::vector<graph::NodeId> want = small.bad_ball_centers(inst, y);
        EXPECT_EQ(huge.bad_ball_centers(inst, y), want);
        centers += n;
        bad += want.size();
      }
    }
  }
  EXPECT_GT(bad, 0u);
  EXPECT_LT(bad, centers);
}

TEST(Lll, EventHoldsWhenNeighborhoodAgrees) {
  const LllAvoidance lll;
  const local::Instance inst = ring_instance(5);
  EXPECT_FALSE(lll.contains(inst, local::Labeling{1, 1, 1, 1, 1}));  // every event fires
  EXPECT_TRUE(lll.contains(inst, local::Labeling{0, 1, 0, 1, 0}));
  // One sleepy stretch: nodes 1,2,3 all 1 -> event at node 2 fires.
  EXPECT_FALSE(lll.contains(inst, local::Labeling{0, 1, 1, 1, 0}));
}

TEST(Lll, ConditionHoldsOnHighDegreeRegularGraphs) {
  // C_10: p = 1/4, dependency bound 5, e * 5/4 > 1 — condition fails.
  EXPECT_FALSE(LllAvoidance::lll_condition_holds(graph::cycle(10)));
  // Q_8: p = 2^-8, dependency bound 65, e * 65/256 < 1 — condition holds.
  EXPECT_TRUE(LllAvoidance::lll_condition_holds(graph::hypercube(8)));
  EXPECT_FALSE(LllAvoidance::lll_condition_holds(graph::hypercube(7)));
}

TEST(Relax, FResilientCountsBadBalls) {
  const ProperColoring base(3);
  const local::Instance inst = ring_instance(6);
  // One monochromatic edge -> 2 bad balls.
  const local::Labeling y = {0, 0, 1, 0, 1, 2};
  EXPECT_FALSE(base.contains(inst, y));
  EXPECT_FALSE(FResilient(base, 1).contains(inst, y));
  EXPECT_TRUE(FResilient(base, 2).contains(inst, y));
  EXPECT_TRUE(FResilient(base, 5).contains(inst, y));
}

TEST(Relax, FResilientOfMemberIsMember) {
  const ProperColoring base(3);
  const local::Instance inst = ring_instance(6);
  const local::Labeling proper = {0, 1, 0, 1, 0, 1};
  EXPECT_TRUE(FResilient(base, 0).contains(inst, proper));
}

TEST(Relax, EpsSlackScalesWithN) {
  const ProperColoring base(3);
  const EpsSlack slack(base, 0.4);
  const local::Instance small = ring_instance(5);
  // floor(0.4 * 5) = 2 bad balls allowed.
  EXPECT_EQ(slack.fault_budget(small), 2u);
  const local::Labeling y = {0, 0, 1, 2, 1};  // one bad edge -> 2 bad balls
  EXPECT_TRUE(slack.contains(small, y));
  const EpsSlack tight(base, 0.2);  // budget 1 < 2
  EXPECT_FALSE(tight.contains(small, y));
}

TEST(Relax, PolyResilientInterpolatesBetweenResilientAndSlack) {
  const ProperColoring base(3);
  const local::Instance inst = ring_instance(16);
  // c = 0: budget n^0 = 1 (one bad ball allowed).
  EXPECT_EQ(PolyResilient(base, 0.0).fault_budget(inst), 1u);
  // c = 0.5: floor(sqrt(16)) = 4.
  EXPECT_EQ(PolyResilient(base, 0.5).fault_budget(inst), 4u);
  // c = 1: budget n.
  EXPECT_EQ(PolyResilient(base, 1.0).fault_budget(inst), 16u);

  // An output with 2 bad balls (single clash at edge (0,1)): inside the
  // budget for c >= 0.25, outside for c = 0 (budget 1).
  const local::Labeling single_clash = {0, 0, 1, 0, 1, 0, 1, 0,
                                        1, 0, 1, 0, 1, 0, 1, 2};
  ASSERT_EQ(base.count_bad_balls(inst, single_clash), 2u);
  EXPECT_FALSE(PolyResilient(base, 0.0).contains(inst, single_clash));
  EXPECT_TRUE(PolyResilient(base, 0.5).contains(inst, single_clash));
  EXPECT_TRUE(PolyResilient(base, 1.0).contains(inst, single_clash));
}

TEST(Relax, NamesAreDescriptive) {
  const ProperColoring base(3);
  EXPECT_NE(FResilient(base, 2).name().find("2-resilient"),
            std::string::npos);
  EXPECT_NE(EpsSlack(base, 0.1).name().find("slack"), std::string::npos);
}

}  // namespace
}  // namespace lnc::lang
