// Small bit-manipulation helpers for cache indexing.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "support/check.h"
#include "support/types.h"

namespace selcache {

/// True iff v is a power of two (and non-zero).
constexpr bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// log2 of a power of two.
constexpr unsigned log2_exact(std::uint64_t v) {
  return static_cast<unsigned>(std::countr_zero(v));
}

/// Round v up to the next multiple of `align` (align must be a power of two).
constexpr std::uint64_t align_up(std::uint64_t v, std::uint64_t align) {
  return (v + align - 1) & ~(align - 1);
}

/// A table geometry that is a power of two, checked once when built: every
/// simulated table indexes by its shift and mask, x >> shift() being
/// x / value() and x & mask() being x % value(). Default-built it is 1.
class Pow2 {
 public:
  constexpr Pow2() = default;
  /// Throws std::logic_error, naming `what`, unless `v` is a power of two.
  Pow2(std::uint64_t v, const std::string& what)
      : shift_(log2_exact(v)), mask_(v - 1) {
    SELCACHE_CHECK_MSG(is_pow2(v), what + " is not a power of two");
  }

  std::uint64_t value() const { return mask_ + 1; }
  unsigned shift() const { return shift_; }
  std::uint64_t mask() const { return mask_; }

 private:
  unsigned shift_ = 0;
  std::uint64_t mask_ = 0;
};

/// `i` wrapped into [0, n), for n > 0: `i` itself when already in range (the
/// common case, with no division), else its floored remainder.
constexpr std::int64_t wrap_index(std::int64_t i, std::int64_t n) {
  if (static_cast<std::uint64_t>(i) < static_cast<std::uint64_t>(n)) return i;
  const std::int64_t r = i % n;
  return r < 0 ? r + n : r;
}

}  // namespace selcache
