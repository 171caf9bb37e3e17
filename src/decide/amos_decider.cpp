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

bool AmosDecider::bad(const DeciderView& view) const {
  return view.output_of(0) == lang::Amos::kSelected;
}

}  // namespace lnc::decide
