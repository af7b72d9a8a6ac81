// Small bit-manipulation helpers for cache indexing.
#pragma once

#include <bit>
#include <cstdint>

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

/// Extract the block-frame number of an address for a given block size.
constexpr Addr block_of(Addr a, std::uint64_t block_size) {
  return a / block_size;
}

/// `i` wrapped into [0, n), for n > 0: `i` itself when already in range (the
/// common case, with no division), else its floored remainder.
constexpr std::int64_t wrap_index(std::int64_t i, std::int64_t n) {
  if (static_cast<std::uint64_t>(i) < static_cast<std::uint64_t>(n)) return i;
  const std::int64_t r = i % n;
  return r < 0 ? r + n : r;
}

/// First byte address of the block containing `a`.
constexpr Addr block_base(Addr a, std::uint64_t block_size) {
  return a - (a % block_size);
}

}  // namespace selcache
