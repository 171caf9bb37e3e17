// Tests for src/rand: Philox known-answer vectors, stream separation,
// coin determinism, and NodeRng distribution sanity.
#include <gtest/gtest.h>

#include <initializer_list>
#include <set>
#include <vector>

#include "rand/coins.h"
#include "rand/philox.h"
#include "rand/splitmix.h"

namespace lnc::rand {
namespace {

// Known-answer tests from the Random123 reference implementation
// (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11).
TEST(Philox, KnownAnswerZero) {
  const auto out = philox4x32({0, 0, 0, 0}, {0, 0});
  EXPECT_EQ(out[0], 0x6627e8d5u);
  EXPECT_EQ(out[1], 0xe169c58du);
  EXPECT_EQ(out[2], 0xbc57ac4cu);
  EXPECT_EQ(out[3], 0x9b00dbd8u);
}

TEST(Philox, KnownAnswerAllOnes) {
  const auto out = philox4x32(
      {0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu},
      {0xffffffffu, 0xffffffffu});
  EXPECT_EQ(out[0], 0x408f276du);
  EXPECT_EQ(out[1], 0x41c83b0eu);
  EXPECT_EQ(out[2], 0xa20bc7c6u);
  EXPECT_EQ(out[3], 0x6d5451fdu);
}

TEST(Philox, KnownAnswerPiDigits) {
  const auto out = philox4x32(
      {0x243f6a88u, 0x85a308d3u, 0x13198a2eu, 0x03707344u},
      {0xa4093822u, 0x299f31d0u});
  EXPECT_EQ(out[0], 0xd16cfe09u);
  EXPECT_EQ(out[1], 0x94fdccebu);
  EXPECT_EQ(out[2], 0x5001e420u);
  EXPECT_EQ(out[3], 0x24126ea1u);
}

TEST(Philox, U64IsDeterministic) {
  EXPECT_EQ(philox_u64(1, 2, 3), philox_u64(1, 2, 3));
  EXPECT_NE(philox_u64(1, 2, 3), philox_u64(1, 2, 4));
  EXPECT_NE(philox_u64(1, 2, 3), philox_u64(2, 2, 3));
}

// The bulk kernel (SIMD-dispatched at runtime) must reproduce the serial
// path bit for bit — it is the vector engine's draw-pass primitive and
// any divergence would silently break backend bit-identity. Odd counts
// exercise both the wide main loop and the serial tail.
TEST(Philox, BatchMatchesSerialBitForBit) {
  for (const std::size_t count :
       std::initializer_list<std::size_t>{0, 1, 3, 16, 37, 1000}) {
    std::vector<std::uint64_t> hi(count), lo(count), out(count);
    for (std::size_t i = 0; i < count; ++i) {
      hi[i] = 0x9E3779B97F4A7C15ull * i + 7;
      lo[i] = ~i * 3;
    }
    for (const std::uint64_t key : {0ull, 1ull, 0xDEADBEEFCAFEF00Dull}) {
      philox_u64_batch(key, hi.data(), lo.data(), out.data(), count);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(out[i], philox_u64(key, hi[i], lo[i]))
            << "lane " << i << " of " << count << " under key " << key;
      }
    }
  }
}

TEST(SplitMix, MixKeysIsOrderSensitive) {
  EXPECT_NE(mix_keys(1, 2), mix_keys(2, 1));
  EXPECT_EQ(mix_keys(1, 2), mix_keys(1, 2));
}

TEST(SplitMix, NextBelowIsInRange) {
  SplitMix64 rng(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(7), 7u);
  }
}

TEST(Coins, SameSeedSameCoins) {
  const PhiloxCoins a(123, Stream::kConstruction);
  const PhiloxCoins b(123, Stream::kConstruction);
  for (std::uint64_t identity : {1ull, 77ull, 1ull << 40}) {
    for (std::uint64_t draw = 0; draw < 16; ++draw) {
      EXPECT_EQ(a.draw(identity, draw), b.draw(identity, draw));
    }
  }
}

TEST(Coins, StreamsAreIndependent) {
  const PhiloxCoins c(123, Stream::kConstruction);
  const PhiloxCoins d(123, Stream::kDecision);
  int equal = 0;
  for (std::uint64_t draw = 0; draw < 64; ++draw) {
    if (c.draw(5, draw) == d.draw(5, draw)) ++equal;
  }
  EXPECT_EQ(equal, 0);  // 64-bit collisions would be astronomically rare
}

TEST(Coins, IdentityKeysTheStream) {
  // The paper's Rand(C) is indexed by node identity: the same node keeps
  // its coins when the surrounding graph changes (gluing argument).
  const PhiloxCoins coins(9, Stream::kConstruction);
  EXPECT_EQ(coins.draw(42, 0), coins.draw(42, 0));
  EXPECT_NE(coins.draw(42, 0), coins.draw(43, 0));
}

TEST(Coins, CountingDecoratorCounts) {
  const PhiloxCoins inner(1, Stream::kAux);
  const CountingCoins counting(inner);
  NodeRng rng(counting, 7);
  for (int i = 0; i < 5; ++i) rng.next_u64();
  EXPECT_EQ(counting.total_draws(), 5u);
  EXPECT_EQ(rng.draws_used(), 5u);
}

// A filled CoinTable must be the PhiloxCoins it was filled from, bit for
// bit: table reads inside the window and below the prefix, Philox
// fallback for draw indices >= the prefix and for identities outside the
// window — including the wrapped `identity - first` of ids below it.
void expect_table_is_philox(const CoinTable& table, const PhiloxCoins& coins,
                            std::uint64_t first, std::uint64_t count,
                            std::uint64_t prefix) {
  for (std::uint64_t id = first - 2; id != first + count + 2; ++id) {
    for (std::uint64_t k = 0; k < prefix + 3; ++k) {
      ASSERT_EQ(table.draw(id, k), philox_u64(coins.key(), id, k))
          << "identity " << id << ", draw " << k << " of window [" << first
          << ", " << first + count << ") x " << prefix;
    }
  }
}

TEST(Coins, TableMatchesPhiloxInsideAndOutsideItsWindow) {
  const PhiloxCoins coins(0xC0FFEE, Stream::kConstruction);
  CoinTable table;
  // Windows the streaming path fills on an n = 1000 ring with 256-node
  // blocks and a halo of 5: clamped at identity 1, interior, clamped at
  // identity n (the partial last block).
  const std::uint64_t n = 1000;
  struct Window {
    std::uint64_t first, count, prefix;
  };
  // Then a one-id window, a far window, prefix 0 (an empty table), and
  // fills of more than one kFillBlock-draw block and not a multiple of
  // it, one of them with a prefix that does not divide the block.
  constexpr std::uint64_t kBlock = CoinTable::kFillBlock;
  for (const Window w :
       {Window{1, 261, 4}, Window{252, 266, 4}, Window{764, n - 764 + 1, 4},
        Window{1, 1, 1}, Window{1ull << 40, 37, 9}, Window{5, 10, 0},
        Window{1, 3 * kBlock + 5, 1}, Window{900, kBlock + 7, 3}}) {
    table.fill(coins, w.first, w.count, w.prefix);
    expect_table_is_philox(table, coins, w.first, w.count, w.prefix);
  }
  // Ids beyond the clamped windows: the ring's wrap-around neighbours.
  table.fill(coins, 1, 261, 4);
  EXPECT_EQ(table.draw(n, 0), philox_u64(coins.key(), n, 0));
  table.fill(coins, 764, n - 764 + 1, 4);
  EXPECT_EQ(table.draw(1, 3), philox_u64(coins.key(), 1, 3));
  // A refill under another seed replaces the key of the fallback too.
  const PhiloxCoins other(7, Stream::kConstruction);
  table.fill(other, 10, 20, 2);
  expect_table_is_philox(table, other, 10, 20, 2);
}

TEST(NodeRng, DoubleInUnitInterval) {
  const PhiloxCoins coins(5, Stream::kAux);
  NodeRng rng(coins, 1);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(NodeRng, BernoulliFrequency) {
  const PhiloxCoins coins(17, Stream::kAux);
  NodeRng rng(coins, 2);
  int heads = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) heads += rng.bernoulli(0.3) ? 1 : 0;
  const double freq = static_cast<double>(heads) / trials;
  EXPECT_NEAR(freq, 0.3, 0.02);
}

TEST(NodeRng, NextBelowUniform) {
  const PhiloxCoins coins(23, Stream::kAux);
  NodeRng rng(coins, 3);
  std::vector<int> counts(3, 0);
  const int trials = 30000;
  for (int i = 0; i < trials; ++i) {
    ++counts[rng.next_below(3)];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 1.0 / 3.0, 0.02);
  }
}

TEST(NodeRng, SequentialDrawsDiffer) {
  const PhiloxCoins coins(31, Stream::kAux);
  NodeRng rng(coins, 4);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(rng.next_u64());
  EXPECT_EQ(seen.size(), 100u);
}

TEST(Coins, FingerprintDetectsDifferentStrings) {
  const PhiloxCoins a(1, Stream::kConstruction);
  const PhiloxCoins b(2, Stream::kConstruction);
  EXPECT_EQ(coin_fingerprint(a, 5, 8), coin_fingerprint(a, 5, 8));
  EXPECT_NE(coin_fingerprint(a, 5, 8), coin_fingerprint(b, 5, 8));
  EXPECT_NE(coin_fingerprint(a, 5, 8), coin_fingerprint(a, 6, 8));
}

}  // namespace
}  // namespace lnc::rand
