// Randomized maximal matching by propose-and-accept (Israeli-Itai style).
// Each phase (two engine rounds): every unmatched node proposes to a
// uniformly random unmatched neighbor; a proposal target picks one
// proposer (highest draw, ties by identity) and accepts; a mutual
// propose/accept pair matches. Expected O(log n) phases; output is the
// matched neighbor's identity (lang/matching.h checks it).
#pragma once

#include "local/engine.h"

namespace lnc::algo {

class RandMatchingFactory final : public local::NodeProgramFactory {
 public:
  std::string name() const override { return "rand-matching"; }
  std::unique_ptr<local::NodeProgram> create() const override;
  bool recreate(local::NodeProgram& program) const override;
  std::unique_ptr<local::VectorProgram> create_vector() const override;
};

local::EngineResult run_rand_matching(const local::Instance& inst,
                                      const rand::CoinProvider& coins);

}  // namespace lnc::algo
