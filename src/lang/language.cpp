#include "lang/language.h"

namespace lnc::lang {
namespace {

/// Calls `on_bad(v)` for each center v of a bad ball, in node order,
/// until it returns false. One view, one scratch and one ball-local output
/// buffer serve every ball, so a membership check allocates the O(n)
/// visited arrays once, not once per node.
template <typename OnBad>
void for_each_bad_ball(const LclLanguage& language,
                       const local::Instance& inst,
                       std::span<const local::Label> output, OnBad on_bad) {
  const graph::Topology& topology = inst.topology();
  const int t = language.radius();
  graph::BallView view;
  graph::BallScratch scratch;
  local::Labeling ball_output;
  for (graph::NodeId v = 0; v < inst.node_count(); ++v) {
    view.collect(topology, v, t, scratch);
    ball_output.resize(view.size());
    for (graph::NodeId m = 0; m < view.size(); ++m) {
      ball_output[m] = output[view.to_original(m)];
    }
    const LabeledBall labeled{&view, &inst, ball_output};
    if (language.is_bad_ball(labeled) && !on_bad(v)) return;
  }
}

}  // namespace

bool LclLanguage::contains(const local::Instance& inst,
                           std::span<const local::Label> output) const {
  bool any_bad = false;
  for_each_bad_ball(*this, inst, output, [&](graph::NodeId) {
    any_bad = true;
    return false;
  });
  return !any_bad;
}

std::vector<graph::NodeId> LclLanguage::bad_ball_centers(
    const local::Instance& inst,
    std::span<const local::Label> output) const {
  std::vector<graph::NodeId> centers;
  for_each_bad_ball(*this, inst, output, [&](graph::NodeId v) {
    centers.push_back(v);
    return true;
  });
  return centers;
}

std::size_t LclLanguage::count_bad_balls(
    const local::Instance& inst,
    std::span<const local::Label> output) const {
  std::size_t count = 0;
  for_each_bad_ball(*this, inst, output, [&](graph::NodeId) {
    ++count;
    return true;
  });
  return count;
}

}  // namespace lnc::lang
