// The epsilon-slack decider — a BPLD#node decider (paper, section 5):
//
//   "the eps-slack relaxation of (Delta+1)-coloring is in BPLD#node
//    (using the same algorithm as in the proof of Corollary 1 with
//    f = eps*n)"
//
// Identical mechanism to ResilientDecider, but the fault budget f is the
// instance-dependent floor(eps * n) — which requires every node to KNOW n.
// That knowledge is what bars the language from BPLD and (section 5) is
// why Theorem 1 does not extend to BPLD#node: the separation experiment E2
// shows randomized construction succeeding where Theorem 1 would forbid it
// if eps-slack were in plain BPLD.
#pragma once

#include "decide/lcl_decider.h"

namespace lnc::decide {

/// The LCL decider's bad(), on an evaluation that grants n; q = p(n).
class SlackDecider final : public LclDecider {
 public:
  SlackDecider(const lang::LclLanguage& base, double eps);

  std::string name() const override;
  /// Advertised guarantee; depends on n, so this reports the infimum over
  /// n >= 1 given the p-schedule (both sides exceed 1/2 for every n).
  double guarantee() const override { return 0.5; }
  /// Asserts that the evaluation granted n, at every center.
  bool bad(const DeciderView& view) const override;
  /// The per-instance acceptance probability p(n) = default_p(eps * n).
  double q(std::uint64_t n_nodes) const override;

  double eps() const noexcept { return eps_; }

 private:
  double eps_;
};

}  // namespace lnc::decide
