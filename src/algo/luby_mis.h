// Luby's randomized maximal independent set. Each phase (two engine
// rounds) every undecided node draws a fresh random word, joins the MIS
// when it strictly beats all undecided neighbors (ties broken by
// identity), and neighbors of joiners drop out. Expected O(log n) phases —
// the contrast class the paper situates constant-time computation against
// (experiment E10 measures the round growth).
#pragma once

#include "local/engine.h"

namespace lnc::algo {

class LubyMisFactory final : public local::NodeProgramFactory {
 public:
  std::string name() const override { return "luby-mis"; }
  std::unique_ptr<local::NodeProgram> create() const override;
  bool recreate(local::NodeProgram& program) const override;
  std::unique_ptr<local::VectorProgram> create_vector() const override;
};

/// Driver: runs Luby's MIS with the given coins; returns outputs (1 = in
/// the set) and the engine round count (2 rounds per phase).
local::EngineResult run_luby_mis(const local::Instance& inst,
                                 const rand::CoinProvider& coins);

}  // namespace lnc::algo
