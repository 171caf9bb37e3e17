// Distributed deciders (paper, sections 2.2 and 2.3).
//
// A decider maps an input-output configuration to per-node boolean
// verdicts; the configuration is ACCEPTED iff every node outputs true.
// Deterministic deciders realize LD; randomized Monte-Carlo deciders with
// guarantee p > 1/2 realize BPLD:
//
//   (G,(x,y)) in L  => Pr[all nodes accept]      >= p
//   (G,(x,y)) not in L => Pr[some node rejects]  >= p        (Eq. 1)
//
// Deciders see the same View as construction algorithms plus the outputs.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "local/runner.h"

namespace lnc::decide {

/// A decider's view: a construction View plus the outputs of the ball's
/// members, by ball-LOCAL index (0 is the center). The decision loop
/// (decide/evaluate.h) fills them from a labeling or from the
/// construction memo, so no decider ever needs an O(n) labeling.
struct DeciderView {
  local::View view;
  std::span<const local::Label> ball_output;  // by ball-LOCAL index

  local::Label output_of(graph::NodeId local) const noexcept {
    return ball_output[local];
  }
};

/// Deterministic decider (class LD when radius is constant).
class Decider {
 public:
  virtual ~Decider() = default;
  virtual std::string name() const = 0;
  virtual int radius() const = 0;
  /// The verdict at the ball's center.
  virtual bool accept(const DeciderView& view) const = 0;
};

/// Randomized Monte-Carlo decider (class BPLD when radius is constant and
/// the guarantee exceeds 1/2). Coins are addressed through the provider by
/// node identity, same contract as construction algorithms.
class RandomizedDecider {
 public:
  virtual ~RandomizedDecider() = default;
  virtual std::string name() const = 0;
  virtual int radius() const = 0;
  /// The decider's advertised guarantee p (for reporting/verification).
  virtual double guarantee() const = 0;
  virtual bool accept(const DeciderView& view,
                      const rand::CoinProvider& coins) const = 0;
};

}  // namespace lnc::decide
