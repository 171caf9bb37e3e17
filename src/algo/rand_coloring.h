// The zero-round uniform random coloring (paper, section 1.1):
//
//   "the trivial randomized algorithm in which every node picks
//    independently uniformly at random a color 1, 2, or 3, enables to
//    guarantee that, with constant probability, a fraction 1 - eps of the
//    nodes are properly colored"
//
// This is the paper's witness that randomization helps for epsilon-slack
// relaxations (experiment E2), and simultaneously the Monte-Carlo
// construction algorithm C whose failure on f-resilient relaxations is
// boosted by the Theorem-1 glue (experiments E6-E8).
#pragma once

#include "local/runner.h"

namespace lnc::algo {

class UniformRandomColoring final : public local::RandomizedBallAlgorithm {
 public:
  explicit UniformRandomColoring(int colors);

  std::string name() const override;
  int radius() const override { return 0; }

  local::Label compute(const local::View& view,
                       const rand::CoinProvider& coins) const override;

  /// compute() reads draw 0 of the center, and a later draw only when
  /// next_below rejects one.
  std::uint64_t coin_prefix() const override { return 1; }

  int colors() const noexcept { return colors_; }

 private:
  int colors_;
};

}  // namespace lnc::algo
