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
// Every decider in the paper has one shape. A node tests a deterministic
// predicate on its ball, bad(), and accepts when it does not fire;
// otherwise it accepts with one probability q(n). q is p for the amos
// decider (section 2.3.1) and Corollary 1's f-resilient decider, p(n) for
// section 5's eps-slack decider, and 0 for an LD decider, whose bad
// centers reject. Each bad center draws its own coin, so with B bad
// centers in a configuration
//
//   Pr[all nodes accept | configuration] = q^B.
//
// Deciders see the same View as construction algorithms plus the outputs.
#pragma once

#include <cstdint>
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

/// A local decider: class LD when radius is constant and q is 0, class
/// BPLD when radius is constant and the guarantee exceeds 1/2.
class Decider {
 public:
  virtual ~Decider() = default;
  virtual std::string name() const = 0;
  virtual int radius() const = 0;
  /// The advertised guarantee p of Eq. (1), for reporting and
  /// verification; 1 for a deterministic decider.
  virtual double guarantee() const { return 1.0; }
  /// The deterministic predicate at the ball's center.
  virtual bool bad(const DeciderView& view) const = 0;
  /// The probability that a bad center accepts on an n-node instance (n
  /// is 0 unless the evaluation grants it); 0 for an LD decider.
  virtual double q(std::uint64_t /*n*/) const { return 0.0; }

  /// The verdict at the ball's center. A good center accepts. A bad one
  /// rejects when q(n) is 0, and otherwise accepts with probability q(n)
  /// from one draw of rand::NodeRng(coins, its own identity). Coins are
  /// addressed by node identity, the same contract as construction
  /// algorithms.
  bool accept(const DeciderView& view, const rand::CoinProvider& coins) const;
};

}  // namespace lnc::decide
