#include "decide/slack_decider.h"

#include <algorithm>
#include <cmath>

#include "decide/resilient_decider.h"
#include "util/assert.h"
#include "util/table.h"

namespace lnc::decide {

SlackDecider::SlackDecider(const lang::LclLanguage& base, double eps)
    : LclDecider(base), eps_(eps) {
  LNC_EXPECTS(eps > 0.0 && eps <= 1.0);
}

std::string SlackDecider::name() const {
  return "slack-decider(eps=" + util::format_double(eps_, 4) + ", " +
         language().name() + ")";
}

bool SlackDecider::bad(const DeciderView& view) const {
  LNC_EXPECTS(view.view.n_nodes.has_value() &&
              "SlackDecider is a BPLD#node decider: it must be granted n");
  return LclDecider::bad(view);
}

double SlackDecider::q(std::uint64_t n_nodes) const {
  const auto budget = static_cast<std::size_t>(std::max(
      1.0, std::floor(eps_ * static_cast<double>(n_nodes))));
  return ResilientDecider::default_p(budget);
}

}  // namespace lnc::decide
