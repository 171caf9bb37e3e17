#include "decide/slack_decider.h"

#include <algorithm>
#include <cmath>

#include "decide/resilient_decider.h"
#include "util/assert.h"
#include "util/table.h"

namespace lnc::decide {

SlackDecider::SlackDecider(const lang::LclLanguage& base, double eps)
    : base_(&base), eps_(eps) {
  LNC_EXPECTS(eps > 0.0 && eps <= 1.0);
}

std::string SlackDecider::name() const {
  return "slack-decider(eps=" + util::format_double(eps_, 4) + ", " +
         base_->name() + ")";
}

int SlackDecider::radius() const { return base_->radius(); }

double SlackDecider::p_for(std::uint64_t n_nodes) const {
  const auto budget = static_cast<std::size_t>(std::max(
      1.0, std::floor(eps_ * static_cast<double>(n_nodes))));
  return ResilientDecider::default_p(budget);
}

bool SlackDecider::accept(const DeciderView& view,
                          const rand::CoinProvider& coins) const {
  LNC_EXPECTS(view.view.n_nodes.has_value() &&
              "SlackDecider is a BPLD#node decider: it must be granted n");
  const lang::LabeledBall ball{view.view.ball, view.view.instance,
                               view.ball_output};
  if (!base_->is_bad_ball(ball)) return true;
  const ident::Identity self =
      view.view.instance->identity_of(view.view.ball->to_original(0));
  rand::NodeRng rng(coins, self);
  return rng.bernoulli(p_for(*view.view.n_nodes));
}

}  // namespace lnc::decide
