#include "decide/resilient_decider.h"

#include <cmath>

#include "util/assert.h"
#include "util/table.h"

namespace lnc::decide {

util::Interval ResilientDecider::admissible_interval(std::size_t max_faults) {
  LNC_EXPECTS(max_faults >= 1);
  const double f = static_cast<double>(max_faults);
  return {std::pow(2.0, -1.0 / f), std::pow(2.0, -1.0 / (f + 1.0))};
}

double ResilientDecider::default_p(std::size_t max_faults) {
  const util::Interval iv = admissible_interval(max_faults);
  return std::sqrt(iv.lo * iv.hi);
}

bool ResilientDecider::admissible(std::size_t max_faults, double p) {
  if (p < 0.0) p = default_p(max_faults);
  const util::Interval iv = admissible_interval(max_faults);
  return p > iv.lo && p < iv.hi;
}

ResilientDecider::ResilientDecider(const lang::LclLanguage& base,
                                   std::size_t max_faults, double p)
    : LclDecider(base),
      max_faults_(max_faults),
      p_(p < 0.0 ? default_p(max_faults) : p) {
  LNC_EXPECTS(admissible(max_faults, p_));
}

std::string ResilientDecider::name() const {
  return "resilient-decider(f=" + std::to_string(max_faults_) + ", " +
         language().name() + ", p=" + util::format_double(p_, 4) + ")";
}

double ResilientDecider::guarantee() const {
  // min over the two error modes: p^f on yes instances, 1 - p^{f+1} on no
  // instances; both exceed 1/2 by the choice of p.
  const double f = static_cast<double>(max_faults_);
  const double yes_side = std::pow(p_, f);
  const double no_side = 1.0 - std::pow(p_, f + 1.0);
  return std::min(yes_side, no_side);
}

}  // namespace lnc::decide
