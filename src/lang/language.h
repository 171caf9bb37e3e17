// Distributed languages (paper, section 2.2.1) and locally checkable
// labelings (section 4, Definition 1).
//
// A Language answers the global membership question "(G, (x, y)) in L?".
// An LclLanguage is additionally *defined by the exclusion of bad balls*:
// L contains exactly the configurations with zero balls in Bad(L). Its
// f-resilient relaxation L_f (Definition 1) tolerates at most f bad balls
// and is generally NOT locally checkable — the crux of the paper.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/ball.h"
#include "graph/graph.h"
#include "local/instance.h"

namespace lnc::lang {

/// A labeled ball: structure plus input/output labels of its members
/// (ball-local indexing; 0 is the center). Bad(L) should be a property of
/// the labeled structure — that portability across host graphs is what
/// makes legal/illegal balls meaningful (section 1.1). Languages whose
/// outputs *name* neighbors (e.g. maximal-matching) may read identities
/// through `instance`, which preserves portability because the named
/// identities travel with the ball. Outputs cover exactly the ball's
/// members (see decide::DeciderView).
struct LabeledBall {
  const graph::BallView* ball = nullptr;
  const local::Instance* instance = nullptr;
  std::span<const local::Label> ball_output;  // by ball-LOCAL index

  local::Label input_of(graph::NodeId local) const noexcept {
    return instance->input_of(ball->to_original(local));
  }
  local::Label output_of(graph::NodeId local) const noexcept {
    return ball_output[local];
  }
};

class Language {
 public:
  virtual ~Language() = default;
  virtual std::string name() const = 0;

  /// Global membership: is (G, (x, y)) in L?
  virtual bool contains(const local::Instance& inst,
                        std::span<const local::Label> output) const = 0;
};

/// A language defined by exclusion of a set Bad(L) of radius-t balls.
class LclLanguage : public Language {
 public:
  /// The (constant) radius t of the excluded balls.
  virtual int radius() const = 0;

  /// Is this labeled ball in Bad(L)?
  virtual bool is_bad_ball(const LabeledBall& ball) const = 0;

  /// Membership == no node's ball is bad.
  bool contains(const local::Instance& inst,
                std::span<const local::Label> output) const override;

  /// F(G) in the paper's Corollary-1 proof: the centers of bad balls.
  std::vector<graph::NodeId> bad_ball_centers(
      const local::Instance& inst,
      std::span<const local::Label> output) const;

  /// |F(G)|.
  std::size_t count_bad_balls(const local::Instance& inst,
                              std::span<const local::Label> output) const;
};

}  // namespace lnc::lang
