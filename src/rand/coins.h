// Coin sequences for Monte-Carlo LOCAL algorithms.
//
// The paper models a randomized algorithm's randomness as a multi-set of
// private bit-strings indexed by node identity (section 3, "Rand(C)" and
// "Rand(D)"). CoinProvider reifies that object: a draw is addressed by
// (node identity, draw index) and the whole sequence is determined by a
// 64-bit seed and a stream tag separating the construction algorithm C
// from the decision algorithm D running on the same instance.
//
// Fixing a random string sigma  ==  fixing a seed. Replaying the same seed
// on the same identities yields identical coins even when the surrounding
// graph changes — the property the gluing argument of Theorem 1 exploits.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "rand/philox.h"
#include "rand/splitmix.h"

namespace lnc::rand {

/// Stream tags keep the construction and decision algorithms' coins
/// independent even when run with the same seed on the same instance.
enum class Stream : std::uint64_t {
  kConstruction = 0x433A,  // "C:"
  kDecision = 0x443A,      // "D:"
  kAux = 0x413A,           // "A:" free for tests/experiments
  kFault = 0x463A,         // "F:" adversity draws (fault models)
};

/// Immutable source of coins: a pure function of (identity, draw index).
class CoinProvider {
 public:
  virtual ~CoinProvider() = default;

  /// 64 uniform bits for draw number `draw_index` at the node with the given
  /// identity. Must be a pure function (thread-safe, no state).
  virtual std::uint64_t draw(std::uint64_t identity,
                             std::uint64_t draw_index) const = 0;
};

/// The production provider: Philox4x32-10 keyed by (seed, stream).
class PhiloxCoins final : public CoinProvider {
 public:
  PhiloxCoins(std::uint64_t seed, Stream stream) noexcept
      : key_(mix_keys(seed, static_cast<std::uint64_t>(stream))) {}

  std::uint64_t draw(std::uint64_t identity,
                     std::uint64_t draw_index) const override {
    return philox_u64(key_, identity, draw_index);
  }

  std::uint64_t key() const noexcept { return key_; }

 private:
  std::uint64_t key_;
};

/// PhiloxCoins with a block of draws precomputed: draws [0, prefix) of
/// every identity in [first, first + count), filled by philox_u64_batch
/// calls of kFillBlock draws each. draw() reads the table inside it and
/// falls back to philox_u64 outside it, so a filled table is the same pure
/// function as the PhiloxCoins it was filled from, bit for bit, for any
/// identity and draw index. A materialized trial fills one over all of
/// its instance's identities (local::construct_trial); the streaming
/// implicit path (decide/experiment_plans.cpp) refills one per block of
/// nodes, whose balls draw mostly from one contiguous identity window.
/// The table holds 8 bytes per draw and keeps its capacity across fills;
/// not thread-safe while filling.
class CoinTable final : public CoinProvider {
 public:
  /// Draws per philox_u64_batch call of fill(); its counters live on the
  /// stack, one block at a time.
  static constexpr std::size_t kFillBlock = 256;

  void fill(const PhiloxCoins& coins, std::uint64_t first_identity,
            std::uint64_t count, std::uint64_t prefix);

  std::uint64_t draw(std::uint64_t identity,
                     std::uint64_t draw_index) const override {
    const std::uint64_t slot = identity - first_;  // wraps below first_
    if (slot < count_ && draw_index < prefix_) {
      return draws_[slot * prefix_ + draw_index];
    }
    return philox_u64(key_, identity, draw_index);
  }

 private:
  std::uint64_t key_ = 0;
  std::uint64_t first_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t prefix_ = 0;
  std::vector<std::uint64_t> draws_;  // [slot * prefix_ + draw_index]
};

/// Decorator counting total draws (thread-safe); used by tests asserting
/// that zero-round deciders consume the expected number of coins.
class CountingCoins final : public CoinProvider {
 public:
  explicit CountingCoins(const CoinProvider& inner) noexcept
      : inner_(inner) {}

  std::uint64_t draw(std::uint64_t identity,
                     std::uint64_t draw_index) const override {
    draws_.fetch_add(1, std::memory_order_relaxed);
    return inner_.draw(identity, draw_index);
  }

  std::uint64_t total_draws() const noexcept {
    return draws_.load(std::memory_order_relaxed);
  }

 private:
  const CoinProvider& inner_;
  mutable std::atomic<std::uint64_t> draws_{0};
};

/// Per-node random facade handed to node algorithms: sequential draws from
/// the provider under the node's identity. Not thread-safe per instance;
/// each node in each trial owns its own NodeRng.
class NodeRng {
 public:
  NodeRng(const CoinProvider& provider, std::uint64_t identity) noexcept
      : provider_(&provider), identity_(identity) {}

  std::uint64_t next_u64() { return provider_->draw(identity_, counter_++); }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli(p): true with probability p.
  bool bernoulli(double p) { return next_double() < p; }

  /// Uniform integer in [0, bound); bound must be positive.
  std::uint64_t next_below(std::uint64_t bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (true) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  std::uint64_t draws_used() const noexcept { return counter_; }
  std::uint64_t identity() const noexcept { return identity_; }

 private:
  const CoinProvider* provider_;
  std::uint64_t identity_;
  std::uint64_t counter_ = 0;
};

/// Hash of the full coin prefix a node consumed — a compact fingerprint of
/// the node's private random string, used by the critical-strings
/// experiment (E8) to certify that two executions used identical coins.
std::uint64_t coin_fingerprint(const CoinProvider& provider,
                               std::uint64_t identity,
                               std::uint64_t prefix_length);

}  // namespace lnc::rand
