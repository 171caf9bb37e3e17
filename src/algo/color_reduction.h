// Iterative color reduction: given a proper coloring with palette size
// `initial_palette` supplied as the node INPUT, remove one color class per
// round until the palette is `target_palette` (>= Delta + 1): each round
// the holders of the largest remaining color re-color to the smallest
// color unused in their neighborhood. Holders of the same color are
// non-adjacent (the coloring is proper), so simultaneous moves are safe.
// The classic Linial pipeline pairs this with a fast palette shrink; here
// it also serves as a second deterministic NodeProgram exercising inputs.
#pragma once

#include "local/engine.h"

namespace lnc::algo {

class ColorReductionFactory final : public local::NodeProgramFactory {
 public:
  ColorReductionFactory(int initial_palette, int target_palette);

  std::string name() const override;
  std::unique_ptr<local::NodeProgram> create() const override;

 private:
  int initial_palette_;
  int target_palette_;
};

/// Driver: inst.input must hold a proper coloring with colors in
/// [0, initial_palette). Returns the reduced coloring and round count.
local::EngineResult run_color_reduction(const local::Instance& inst,
                                        int initial_palette,
                                        int target_palette);

}  // namespace lnc::algo
