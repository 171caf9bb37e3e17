#include "decide/decider.h"

namespace lnc::decide {

bool Decider::accept(const DeciderView& view,
                     const rand::CoinProvider& coins) const {
  if (!bad(view)) return true;
  const double probability = q(view.view.n_nodes.value_or(0));
  if (probability == 0.0) return false;
  // The coin is keyed by the center's true identity and a decision-draw
  // index distinct from any coin the construction algorithm used (the
  // provider's stream tag separates C from D; see rand/coins.h).
  rand::NodeRng rng(coins, view.view.center_identity());
  return rng.bernoulli(probability);
}

}  // namespace lnc::decide
