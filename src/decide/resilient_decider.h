// The randomized decider for f-resilient relaxations (Corollary 1 proof).
//
// For L in LCL with bad-ball radius t, pick p in (2^{-1/f}, 2^{-1/(f+1)}).
// Every node inspects its radius-t ball: good ball => accept; bad ball =>
// accept with probability p. With |F(G)| bad balls the acceptance
// probability is p^{|F(G)|}, hence
//
//   |F(G)| <= f   => Pr[all accept]       >= p^f     > 1/2
//   |F(G)| >= f+1 => Pr[some node rejects] >= 1-p^{f+1} > 1/2
//
// placing L_f in BPLD — the hypothesis Theorem 1 needs. Experiment E4
// verifies both inequalities empirically across f.
#pragma once

#include "decide/lcl_decider.h"
#include "util/math.h"

namespace lnc::decide {

/// The LCL decider's bad(); q = p.
class ResilientDecider final : public LclDecider {
 public:
  /// Uses the geometric mean of the admissible interval by default; a
  /// custom p must lie in (2^{-1/f}, 2^{-1/(f+1)}).
  ResilientDecider(const lang::LclLanguage& base, std::size_t max_faults,
                   double p = -1.0);

  std::string name() const override;
  double guarantee() const override;
  double q(std::uint64_t /*n*/) const override { return p_; }

  double p() const noexcept { return p_; }
  std::size_t max_faults() const noexcept { return max_faults_; }

  /// The admissible open interval (2^{-1/f}, 2^{-1/(f+1)}).
  static util::Interval admissible_interval(std::size_t max_faults);
  /// The default p: geometric mean of the interval endpoints.
  static double default_p(std::size_t max_faults);
  /// Whether the p a decider built from (max_faults, p) would use, p or
  /// the default when p < 0, lies strictly inside the interval. The
  /// default does for every f up to 1e7 (the registry's cap); from about
  /// f = 5.6e7 on, the interval is a few doubles wide and it can round
  /// onto an end.
  static bool admissible(std::size_t max_faults, double p);

 private:
  std::size_t max_faults_;
  double p_;
};

}  // namespace lnc::decide
