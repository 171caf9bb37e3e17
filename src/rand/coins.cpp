#include "rand/coins.h"

namespace lnc::rand {

void CoinTable::fill(const PhiloxCoins& coins, std::uint64_t first_identity,
                     std::uint64_t count, std::uint64_t prefix) {
  key_ = coins.key();
  first_ = first_identity;
  count_ = count;
  prefix_ = prefix;
  const std::size_t size = static_cast<std::size_t>(count * prefix);
  draws_.resize(size);
  counter_hi_.resize(size);
  counter_lo_.resize(size);
  std::size_t i = 0;
  for (std::uint64_t slot = 0; slot < count; ++slot) {
    for (std::uint64_t k = 0; k < prefix; ++k, ++i) {
      counter_hi_[i] = first_identity + slot;
      counter_lo_[i] = k;
    }
  }
  philox_u64_batch(key_, counter_hi_.data(), counter_lo_.data(),
                   draws_.data(), size);
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
