#include "fault/fault.h"

#include <algorithm>

#include "rand/philox.h"
#include "rand/splitmix.h"
#include "util/assert.h"

namespace lnc::fault {
namespace {

// Sub-stream tags: every draw a model makes goes through the ONE fault
// CoinProvider, addressed as draw(mix_keys(tag, entity-key), slot). The
// tags keep the crash / drop / churn address spaces disjoint even when a
// spec's identities collide with each other numerically.
constexpr std::uint64_t kCrashTag = 0xFA0C;  // per-node crash draws
constexpr std::uint64_t kDropTag = 0xFA0D;   // per-(delivery, round) draws
constexpr std::uint64_t kChurnTag = 0xFA0E;  // per-(edge, round) draws

/// p as a 64-bit acceptance threshold: draw < threshold(p) happens with
/// probability p (to within 2^-64). Short-circuits keep p = 0 exactly
/// never and p = 1 exactly always, independent of rounding.
bool bernoulli(double p, std::uint64_t draw) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  const double scaled = p * 0x1.0p64;
  if (scaled >= 0x1.0p64) return true;
  return draw < static_cast<std::uint64_t>(scaled);
}

/// Order-free key for the undirected edge {a, b}.
std::uint64_t edge_key(std::uint64_t tag, std::uint64_t a, std::uint64_t b) {
  return rand::mix_keys(tag, rand::mix_keys(std::min(a, b), std::max(a, b)));
}

std::uint64_t churn_key(std::uint64_t a, std::uint64_t b) {
  return edge_key(kChurnTag, a, b);
}

class NoneModel final : public FaultModel {
 public:
  std::string_view name() const noexcept override { return "none"; }
  bool trivial() const noexcept override { return true; }
};

class DropModel final : public FaultModel {
 public:
  explicit DropModel(double p_loss) : p_loss_(p_loss) {}

  std::string_view name() const noexcept override { return "drop"; }

  bool drops_deliveries() const noexcept override { return p_loss_ > 0.0; }

  bool drops_delivery(const rand::CoinProvider& coins, std::uint64_t sender,
                      std::uint64_t receiver,
                      std::uint64_t round) const override {
    // Directed key: the two deliveries across one edge are independent.
    const std::uint64_t key =
        rand::mix_keys(kDropTag, rand::mix_keys(sender, receiver));
    return bernoulli(p_loss_, coins.draw(key, round));
  }

  EdgeFault ball_edge_fault(const rand::CoinProvider& coins,
                            std::uint64_t id_a,
                            std::uint64_t id_b) const override {
    // Round-free path: ONE symmetric draw per edge per trial from the
    // reserved round-0 slot (the engine only draws rounds >= 1). The
    // view delivered over a lossy edge is either lost or not; the two
    // directions collapsing into one draw is the model, not a shortcut.
    const std::uint64_t key = edge_key(kDropTag, id_a, id_b);
    return bernoulli(p_loss_, coins.draw(key, 0)) ? EdgeFault::kDropped
                                                  : EdgeFault::kNone;
  }

 private:
  double p_loss_;
};

class CrashModel final : public FaultModel {
 public:
  CrashModel(double p_crash, std::uint64_t crash_round_cap)
      : p_crash_(p_crash), cap_(crash_round_cap) {
    LNC_EXPECTS(cap_ >= 1);
  }

  std::string_view name() const noexcept override { return "crash"; }

  std::uint64_t crash_round(const rand::CoinProvider& coins,
                            std::uint64_t identity) const override {
    const std::uint64_t key = rand::mix_keys(kCrashTag, identity);
    if (!bernoulli(p_crash_, coins.draw(key, 0))) return kNeverCrashes;
    // Crash round uniform-ish in [1, cap] (draw 1; modulo bias is
    // irrelevant to the model, determinism is what matters).
    return 1 + coins.draw(key, 1) % cap_;
  }

 private:
  double p_crash_;
  std::uint64_t cap_;
};

class ChurnModel final : public FaultModel {
 public:
  explicit ChurnModel(double p_churn) : p_churn_(p_churn) {}

  std::string_view name() const noexcept override { return "churn"; }

  bool edge_down(const rand::CoinProvider& coins, std::uint64_t id_a,
                 std::uint64_t id_b, std::uint64_t round) const override {
    return bernoulli(p_churn_, coins.draw(churn_key(id_a, id_b), round));
  }

  EdgeFault ball_edge_fault(const rand::CoinProvider& coins,
                            std::uint64_t id_a,
                            std::uint64_t id_b) const override {
    // Reserved round-0 slot, same stream as the engine's per-round draws.
    return edge_down(coins, id_a, id_b, 0) ? EdgeFault::kChurned
                                           : EdgeFault::kNone;
  }

 private:
  LinkFaults link_faults() const noexcept override {
    return {p_churn_, churn_key};
  }

  double p_churn_;
};

}  // namespace

void LinkTable::build(const FaultModel& model, const graph::Graph& g,
                      std::span<const std::uint64_t> ids,
                      std::span<const std::size_t> port_offsets) {
  const FaultModel::LinkFaults links = model.link_faults();
  p_ = links.p;
  keys_.clear();
  slots_.clear();
  // bernoulli(p <= 0, .) never fires: such a model's links stay up
  // without a single draw.
  if (p_ > 0.0) {
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      const auto nbrs = g.neighbors(v);
      for (std::size_t p = 0; p < nbrs.size(); ++p) {
        const graph::NodeId u = nbrs[p];
        if (u < v) continue;  // listed once, from the lower endpoint
        const auto row = g.neighbors(u);
        const auto back = std::lower_bound(row.begin(), row.end(), v);
        keys_.push_back(links.key(ids[v], ids[u]));
        slots_.push_back(port_offsets[v] + p);
        slots_.push_back(port_offsets[u] +
                         static_cast<std::size_t>(back - row.begin()));
      }
    }
  }
  rounds_.resize(keys_.size());
  draws_.resize(keys_.size());
}

std::uint64_t LinkTable::realize(const rand::PhiloxCoins& coins,
                                 std::uint64_t round, char* suppressed) {
  const std::size_t count = keys_.size();
  if (count == 0) return 0;
  std::fill(rounds_.begin(), rounds_.end(), round);
  rand::philox_u64_batch(coins.key(), keys_.data(), rounds_.data(),
                         draws_.data(), count);
  // Locals, because writes through `suppressed` (a char*) could alias the
  // members and would force a reload per edge.
  const double p = p_;
  const std::uint64_t* draws = draws_.data();
  const std::size_t* slots = slots_.data();
  std::uint64_t down = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const char state = bernoulli(p, draws[i]) ? 1 : 0;
    suppressed[slots[2 * i]] = state;
    suppressed[slots[2 * i + 1]] = state;
    down += static_cast<std::uint64_t>(state);
  }
  return down;
}

std::size_t LinkTable::footprint_bytes() const noexcept {
  return (keys_.capacity() + rounds_.capacity() + draws_.capacity()) *
             sizeof(std::uint64_t) +
         slots_.capacity() * sizeof(std::size_t);
}

std::shared_ptr<const FaultModel> make_none() {
  return std::make_shared<const NoneModel>();
}

std::shared_ptr<const FaultModel> make_drop(double p_loss) {
  return std::make_shared<const DropModel>(p_loss);
}

std::shared_ptr<const FaultModel> make_crash(double p_crash,
                                             std::uint64_t crash_round_cap) {
  return std::make_shared<const CrashModel>(p_crash, crash_round_cap);
}

std::shared_ptr<const FaultModel> make_churn(double p_churn) {
  return std::make_shared<const ChurnModel>(p_churn);
}

}  // namespace lnc::fault
