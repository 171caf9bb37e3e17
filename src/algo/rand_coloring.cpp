#include "algo/rand_coloring.h"

#include "util/assert.h"

namespace lnc::algo {

UniformRandomColoring::UniformRandomColoring(int colors) : colors_(colors) {
  LNC_EXPECTS(colors >= 1);
}

std::string UniformRandomColoring::name() const {
  return "uniform-random-" + std::to_string(colors_) + "-coloring";
}

local::Label UniformRandomColoring::compute(
    const local::View& view, const rand::CoinProvider& coins) const {
  // Zero rounds: the node sees only itself and uses only its own coins.
  // NOTE: coins are addressed by the node's TRUE identity (the physical
  // random source), never by an order-invariant override.
  const ident::Identity self =
      view.instance->identity_of(view.ball->to_original(0));
  rand::NodeRng rng(coins, self);
  return rng.next_below(static_cast<std::uint64_t>(colors_));
}

}  // namespace lnc::algo
