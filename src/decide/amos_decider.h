// The zero-round randomized decider for amos (paper, section 2.3.1):
//
//   "Every non selected node v accepts, and every selected node v accepts
//    with probability p, and rejects with probability 1 - p."
//
// With s selected nodes: Pr[all accept] = p^s. For a yes instance (s <= 1)
// the acceptance probability is >= p; for a no instance (s >= 2) the
// rejection probability is >= 1 - p^2. The guarantee min(p, 1 - p^2) is
// maximized at p* = (sqrt(5)-1)/2 ~ 0.618, where p* = 1 - p*^2 — the value
// the paper states. Experiment E1 sweeps p and recovers the curve.
#pragma once

#include "decide/decider.h"

namespace lnc::decide {

/// bad(): the center is selected; q = p.
class AmosDecider final : public Decider {
 public:
  /// p defaults to the golden-ratio optimum.
  explicit AmosDecider(double p = -1.0);

  std::string name() const override;
  int radius() const override { return 0; }
  double guarantee() const override;
  bool bad(const DeciderView& view) const override;
  double q(std::uint64_t /*n*/) const override { return p_; }

  double p() const noexcept { return p_; }

 private:
  double p_;
};

}  // namespace lnc::decide
