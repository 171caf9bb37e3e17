#include "decide/amos_decider.h"

#include "lang/amos.h"
#include "util/assert.h"
#include "util/math.h"
#include "util/table.h"

namespace lnc::decide {

AmosDecider::AmosDecider(double p)
    : p_(p < 0.0 ? util::golden_ratio_guarantee() : p) {
  LNC_EXPECTS(p_ >= 0.0 && p_ <= 1.0);
}

std::string AmosDecider::name() const {
  return "amos-decider(p=" + util::format_double(p_, 4) + ")";
}

double AmosDecider::guarantee() const { return util::amos_guarantee(p_); }

bool AmosDecider::accept(const DeciderView& view,
                         const rand::CoinProvider& coins) const {
  if (view.output_of(0) != lang::Amos::kSelected) return true;
  // Selected nodes flip one private coin. The coin is keyed by the node's
  // true identity and a decision-draw index distinct from any coin the
  // construction algorithm used (the provider's stream tag separates C
  // from D; see rand/coins.h).
  const ident::Identity self =
      view.view.instance->identity_of(view.view.ball->to_original(0));
  rand::NodeRng rng(coins, self);
  return rng.bernoulli(p_);
}

}  // namespace lnc::decide
