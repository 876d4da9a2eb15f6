#include "sim/market.h"

#include <cmath>
#include <cstring>

namespace dasc::sim {

namespace {

constexpr int kDigitBits = 16;
constexpr size_t kBuckets = size_t{1} << kDigitBits;

size_t Digit(uint64_t key, int pass) {
  return static_cast<size_t>(key >> (pass * kDigitBits)) & (kBuckets - 1);
}

}  // namespace

uint64_t ArrivalKey(double start) {
  if (std::isnan(start)) return 0;
  // Flip every bit of a negative value, and the sign bit of a non-negative
  // one; -inf then maps to 0x000f...f, above NaN's 0.
  uint64_t bits;
  std::memcpy(&bits, &start, sizeof bits);
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

std::vector<int32_t> ArrivalOrder(const std::vector<uint64_t>& keys) {
  const size_t n = keys.size();
  std::vector<int32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<int32_t>(i);
  std::vector<int32_t> next(n);
  std::vector<uint32_t> count(kBuckets);
  for (int pass = 0; pass < 64 / kDigitBits; ++pass) {
    std::fill(count.begin(), count.end(), 0);
    for (uint64_t key : keys) ++count[Digit(key, pass)];
    if (n == 0 || count[Digit(keys[0], pass)] == n) continue;  // one digit
    uint32_t offset = 0;
    for (uint32_t& c : count) {
      const uint32_t here = c;
      c = offset;
      offset += here;
    }
    // Scattering in the current order keeps every pass stable.
    for (int32_t i : order) {
      next[count[Digit(keys[static_cast<size_t>(i)], pass)]++] = i;
    }
    order.swap(next);
  }
  return order;
}

}  // namespace dasc::sim
