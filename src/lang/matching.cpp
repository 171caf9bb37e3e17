#include "lang/matching.h"

#include "ident/identity.h"

namespace lnc::lang {

bool MaximalMatching::is_bad_ball(const LabeledBall& ball) const {
  const auto& inst = *ball.instance;
  const graph::BallView& view = *ball.ball;
  const local::Label center_out = ball.output_of(0);
  const ident::Identity center_id = inst.identity_of(view.to_original(0));
  const auto nbrs = view.neighbors(0);

  if (center_out == kUnmatched) {
    // Maximality: an unmatched center with an unmatched neighbor is bad.
    for (graph::NodeId nbr : nbrs) {
      if (ball.output_of(nbr) == kUnmatched) return true;
    }
    return false;
  }

  // Validity: the output must name a neighbor's identity...
  graph::NodeId mate = graph::kInvalidNode;
  for (graph::NodeId nbr : nbrs) {
    if (inst.identity_of(view.to_original(nbr)) == center_out) {
      mate = nbr;
      break;
    }
  }
  if (mate == graph::kInvalidNode) return true;
  // ... and that neighbor must point back (symmetry).
  return ball.output_of(mate) != center_id;
}

}  // namespace lnc::lang
