// The canonical deterministic decider for an LCL language: node v accepts
// iff its radius-t ball is not in Bad(L). Witnesses L in LD: on a yes
// instance every ball is good (all accept); on a no instance some ball is
// bad and its center rejects. This is the paper's "checking whether a
// given graph coloring is proper can be done in just one round".
//
// The randomized deciders of Corollary 1 and section 5 test the same
// bad-ball predicate and differ only in q (resilient_decider.h,
// slack_decider.h).
#pragma once

#include "decide/decider.h"
#include "lang/language.h"

namespace lnc::decide {

/// bad(): the center's ball is in Bad(L); q = 0.
class LclDecider : public Decider {
 public:
  explicit LclDecider(const lang::LclLanguage& language);

  std::string name() const override;
  int radius() const override;
  bool bad(const DeciderView& view) const override;

  const lang::LclLanguage& language() const noexcept { return *language_; }

 private:
  const lang::LclLanguage* language_;
};

}  // namespace lnc::decide
