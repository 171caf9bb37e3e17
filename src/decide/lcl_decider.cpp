#include "decide/lcl_decider.h"

namespace lnc::decide {

LclDecider::LclDecider(const lang::LclLanguage& language)
    : language_(&language) {}

std::string LclDecider::name() const {
  return "lcl-decider(" + language_->name() + ")";
}

int LclDecider::radius() const { return language_->radius(); }

bool LclDecider::bad(const DeciderView& view) const {
  const lang::LabeledBall ball{view.view.ball, view.view.instance,
                               view.ball_output};
  return language_->is_bad_ball(ball);
}

}  // namespace lnc::decide
