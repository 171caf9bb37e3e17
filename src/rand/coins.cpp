#include "rand/coins.h"

#include <algorithm>
#include <array>

namespace lnc::rand {

void CoinTable::fill(const PhiloxCoins& coins, std::uint64_t first_identity,
                     std::uint64_t count, std::uint64_t prefix) {
  key_ = coins.key();
  first_ = first_identity;
  count_ = count;
  prefix_ = prefix;
  const std::size_t size = static_cast<std::size_t>(count * prefix);
  draws_.resize(size);
  // Table entry i is draw i % prefix of identity first + i / prefix.
  std::array<std::uint64_t, kFillBlock> counter_hi{};
  std::array<std::uint64_t, kFillBlock> counter_lo{};
  std::uint64_t identity = first_identity;
  std::uint64_t draw_index = 0;
  for (std::size_t begin = 0; begin < size; begin += kFillBlock) {
    const std::size_t block = std::min(kFillBlock, size - begin);
    for (std::size_t j = 0; j < block; ++j) {
      counter_hi[j] = identity;
      counter_lo[j] = draw_index;
      if (++draw_index == prefix) {
        draw_index = 0;
        ++identity;
      }
    }
    philox_u64_batch(key_, counter_hi.data(), counter_lo.data(),
                     draws_.data() + begin, block);
  }
}

std::uint64_t coin_fingerprint(const CoinProvider& provider,
                               std::uint64_t identity,
                               std::uint64_t prefix_length) {
  std::uint64_t h = 0x6C6E633A636F696EULL;  // "lnc:coin"
  for (std::uint64_t i = 0; i < prefix_length; ++i) {
    h = mix_keys(h, provider.draw(identity, i));
  }
  return h;
}

}  // namespace lnc::rand
