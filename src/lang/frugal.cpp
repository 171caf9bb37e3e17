#include "lang/frugal.h"

#include <algorithm>
#include <vector>

#include "util/assert.h"

namespace lnc::lang {

FrugalColoring::FrugalColoring(int colors, int frugality)
    : colors_(colors), frugality_(frugality) {
  LNC_EXPECTS(colors >= 1);
  LNC_EXPECTS(frugality >= 1);
}

std::string FrugalColoring::name() const {
  return std::to_string(frugality_) + "-frugal-" + std::to_string(colors_) +
         "-coloring";
}

bool FrugalColoring::is_bad_ball(const LabeledBall& ball) const {
  const auto palette = static_cast<local::Label>(colors_);
  const local::Label center_color = ball.output_of(0);
  if (center_color >= palette) return true;
  // Multiplicities are counted among the center's neighbours, so a ball
  // costs its degree, whatever the palette size.
  const auto neighbors = ball.ball->neighbors(0);
  std::vector<local::Label> seen;
  seen.reserve(neighbors.size());
  for (graph::NodeId nbr : neighbors) {
    const local::Label c = ball.output_of(nbr);
    if (c >= palette) return true;
    if (c == center_color) return true;  // not proper
    seen.push_back(c);
  }
  // Sorted, a colour occurs more than `frugality` times iff some entry
  // equals the one `frugality` places after it.
  std::sort(seen.begin(), seen.end());
  const auto limit = static_cast<std::size_t>(frugality_);
  for (std::size_t i = 0; i + limit < seen.size(); ++i) {
    if (seen[i] == seen[i + limit]) return true;
  }
  return false;
}

}  // namespace lnc::lang
