#include "algo/color_reduction.h"

#include <algorithm>
#include <vector>

#include "util/assert.h"

namespace lnc::algo {
namespace {

class ColorReductionProgram final : public local::NodeProgram {
 public:
  ColorReductionProgram(int initial_palette, int target_palette)
      : initial_palette_(initial_palette), target_palette_(target_palette) {}

  bool init(const local::NodeEnv& env) override {
    color_ = env.input;
    LNC_EXPECTS(color_ < static_cast<std::uint64_t>(initial_palette_));
    return initial_palette_ <= target_palette_;
  }

  void send(int /*round*/, local::MessageWriter& out) override {
    out.push(color_);
  }

  bool receive(int round, const local::Inbox& inbox) override {
    // Round r eliminates color (initial_palette - r).
    const auto eliminated =
        static_cast<std::uint64_t>(initial_palette_ - round);
    if (color_ == eliminated) {
      used_.clear();
      used_.reserve(inbox.size());
      for (std::size_t p = 0; p < inbox.size(); ++p) {
        used_.push_back(inbox[p][0]);
      }
      std::sort(used_.begin(), used_.end());
      std::uint64_t pick = 0;
      for (std::uint64_t u : used_) {
        if (u == pick) ++pick;
        else if (u > pick) break;
      }
      LNC_ASSERT(pick < eliminated);
      color_ = pick;
    }
    return eliminated == static_cast<std::uint64_t>(target_palette_);
  }

  local::Label output() const override { return color_; }

 private:
  int initial_palette_;
  int target_palette_;
  std::uint64_t color_ = 0;
  std::vector<std::uint64_t> used_;  // recolor scratch, reused across rounds
};

}  // namespace

ColorReductionFactory::ColorReductionFactory(int initial_palette,
                                             int target_palette)
    : initial_palette_(initial_palette), target_palette_(target_palette) {
  LNC_EXPECTS(initial_palette >= 1);
  LNC_EXPECTS(target_palette >= 1);
}

std::string ColorReductionFactory::name() const {
  return "color-reduction(" + std::to_string(initial_palette_) + "->" +
         std::to_string(target_palette_) + ")";
}

std::unique_ptr<local::NodeProgram> ColorReductionFactory::create() const {
  return std::make_unique<ColorReductionProgram>(initial_palette_,
                                                 target_palette_);
}

local::EngineResult run_color_reduction(const local::Instance& inst,
                                        int initial_palette,
                                        int target_palette) {
  ColorReductionFactory factory(initial_palette, target_palette);
  return run_engine(inst, factory, {});
}

}  // namespace lnc::algo
