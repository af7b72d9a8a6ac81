// Shared probe kernels for the 16-byte set-associative slot layout.
//
// Cache::Block and Tlb::Entry are deliberately the same shape — a 16-byte
// slot with the 64-bit key (tag / vpn) at offset 0, the 32-bit LRU stamp at
// offset 8, and the valid byte at offset 12 — so one kernel family serves
// both structures. Two kernels cover every set scan in the memory system:
//
//   match_way(set, n, key)  first way that is valid and whose key matches,
//                           or kNoWay — the tag-compare of a probe.
//   victim_way(set, n)      the way a miss would fill: the first invalid
//                           way if the set has one, else the minimum-LRU
//                           valid way (LRU stamps are strictly distinct, so
//                           the argmin is unique and no tie-break can drift).
//   probe_way(set, n, key)  match_way and victim_way fused into ONE pass:
//                           the demand path's scan. On a hit it is exactly
//                           match_way; on a miss the victim is derived from
//                           the same slot data the tag-compare already
//                           loaded, so a miss no longer walks the set twice.
//
// The build target picks the kernels; nothing switches them at run time.
// With SSE2 (every x86-64 build) match_way is vectorized and the 4-way
// probe_way is fused; every other target compiles the scalar kernels.
// detail::match_way_scalar is always compiled: it is the portable path and
// the reference the kernel tests compare the vector path against. The
// SSE2 and scalar kernels implement the exact same first-match /
// first-free / min-LRU semantics, so the target never changes a simulation
// result — only its speed.
// victim_way is a branch-lean scalar scan (conditional selects, no
// data-dependent branches) on every target.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace selcache::memsys::kernels {

inline constexpr std::uint32_t kNoWay = ~0u;

/// Byte offsets of the shared slot layout (static_asserted against both
/// Cache::Block and Tlb::Entry at their definition sites).
inline constexpr std::size_t kSlotBytes = 16;
inline constexpr std::size_t kSlotKeyOff = 0;
inline constexpr std::size_t kSlotLruOff = 8;
inline constexpr std::size_t kSlotValidOff = 12;

namespace detail {
inline std::uint64_t slot_key(const unsigned char* s) {
  std::uint64_t k;
  std::memcpy(&k, s + kSlotKeyOff, sizeof(k));
  return k;
}
inline std::uint32_t slot_lru(const unsigned char* s) {
  std::uint32_t l;
  std::memcpy(&l, s + kSlotLruOff, sizeof(l));
  return l;
}
inline bool slot_valid(const unsigned char* s) {
  return s[kSlotValidOff] != 0;
}

inline std::uint32_t match_way_scalar(const unsigned char* p, std::uint32_t n,
                                      std::uint64_t key) {
  for (std::uint32_t w = 0; w < n; ++w, p += kSlotBytes)
    if (slot_valid(p) && slot_key(p) == key) return w;
  return kNoWay;
}

#if defined(__SSE2__)
/// 64-bit lane equality out of SSE2's 32-bit compare: equal halves ANDed
/// pairwise, so a lane is all-ones iff the full 64-bit values match.
inline __m128i cmpeq64_sse2(__m128i a, __m128i b) {
  const __m128i eq32 = _mm_cmpeq_epi32(a, b);
  return _mm_and_si128(eq32,
                       _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
}

inline std::uint32_t match_way_sse2(const unsigned char* p, std::uint32_t n,
                                    std::uint64_t key) {
  const __m128i kv = _mm_set1_epi64x(static_cast<long long>(key));
  if (n == 4) {
    // The shipped configurations are 4-way: one 64-byte set, one mask.
    const __m128i v0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const __m128i v1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
    const __m128i v2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32));
    const __m128i v3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48));
    // Keys live in the low 64 bits of each slot; pack them two per vector.
    const __m128i k01 = _mm_unpacklo_epi64(v0, v1);
    const __m128i k23 = _mm_unpacklo_epi64(v2, v3);
    const int eq =
        _mm_movemask_pd(_mm_castsi128_pd(cmpeq64_sse2(k01, kv))) |
        (_mm_movemask_pd(_mm_castsi128_pd(cmpeq64_sse2(k23, kv))) << 2);
    const int valid = (slot_valid(p) ? 1 : 0) | (slot_valid(p + 16) ? 2 : 0) |
                      (slot_valid(p + 32) ? 4 : 0) |
                      (slot_valid(p + 48) ? 8 : 0);
    const int m = eq & valid;
    return m != 0 ? static_cast<std::uint32_t>(__builtin_ctz(
                        static_cast<unsigned>(m)))
                  : kNoWay;
  }
  std::uint32_t w = 0;
  for (; w + 2 <= n; w += 2, p += 2 * kSlotBytes) {
    const __m128i v0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const __m128i v1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
    const int eq = _mm_movemask_pd(
        _mm_castsi128_pd(cmpeq64_sse2(_mm_unpacklo_epi64(v0, v1), kv)));
    if ((eq & 1) != 0 && slot_valid(p)) return w;
    if ((eq & 2) != 0 && slot_valid(p + 16)) return w + 1;
  }
  for (; w < n; ++w, p += kSlotBytes)
    if (slot_valid(p) && slot_key(p) == key) return w;
  return kNoWay;
}
#endif

}  // namespace detail

/// First way of `slots` that is valid with a matching key, else kNoWay.
/// `slots` is the first slot of a set laid out with the shared 16-byte
/// format; `n` is the associativity.
inline std::uint32_t match_way(const void* slots, std::uint32_t n,
                               std::uint64_t key) {
  const auto* p = static_cast<const unsigned char*>(slots);
#if defined(__SSE2__)
  return detail::match_way_sse2(p, n, key);
#else
  return detail::match_way_scalar(p, n, key);
#endif
}

/// Where a miss on this set would fill.
struct VictimWay {
  std::uint32_t way = 0;  ///< first invalid way, else the min-LRU valid way
  bool free = false;      ///< true when `way` is invalid (no eviction)
};

/// Miss-path scan: branch-lean conditional-select loop, no data-dependent
/// branches. LRU stamps are widened to 64 bits so the UINT32_MAX sentinel
/// cannot collide with a real stamp.
inline VictimWay victim_way(const void* slots, std::uint32_t n) {
  const auto* p = static_cast<const unsigned char*>(slots);
  std::uint32_t free_way = kNoWay;
  std::uint32_t lru_way = 0;
  std::uint64_t best = ~std::uint64_t{0};
  for (std::uint32_t w = 0; w < n; ++w, p += kSlotBytes) {
    const bool valid = detail::slot_valid(p);
    const std::uint64_t lru = detail::slot_lru(p);
    const bool take_free = !valid && free_way == kNoWay;
    free_way = take_free ? w : free_way;
    const bool take_lru = valid && lru < best;
    best = take_lru ? lru : best;
    lru_way = take_lru ? w : lru_way;
  }
  if (free_way != kNoWay) return {.way = free_way, .free = true};
  return {.way = lru_way, .free = false};
}

/// Outcome of a fused demand-path scan (probe_way).
struct ProbeResult {
  bool hit = false;
  std::uint32_t way = 0;  ///< hit way; on a miss, the way a fill would use
  bool free = false;      ///< miss only: `way` is an invalid (free) way
};

/// Tag-compare and victim preview fused into one pass over the set: exactly
/// match_way(), followed on a miss by exactly victim_way(), but the SSE2
/// 4-way path derives the victim from the slot vectors the tag-compare
/// already loaded instead of walking the set a second time.
inline ProbeResult probe_way(const void* slots, std::uint32_t n,
                             std::uint64_t key) {
#if defined(__SSE2__)
  if (n == 4) {
    const auto* p = static_cast<const unsigned char*>(slots);
    const __m128i kv = _mm_set1_epi64x(static_cast<long long>(key));
    const __m128i v0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const __m128i v1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
    const __m128i v2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32));
    const __m128i v3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48));
    const __m128i k01 = _mm_unpacklo_epi64(v0, v1);
    const __m128i k23 = _mm_unpacklo_epi64(v2, v3);
    // High half of each slot is [lru:32 | valid:8 dirty:8 pad:16]; gather
    // the four LRU stamps and the four meta words into one vector each.
    const __m128i h01 = _mm_unpackhi_epi64(v0, v1);
    const __m128i h23 = _mm_unpackhi_epi64(v2, v3);
    const __m128i lru = _mm_castps_si128(
        _mm_shuffle_ps(_mm_castsi128_ps(h01), _mm_castsi128_ps(h23),
                       _MM_SHUFFLE(2, 0, 2, 0)));
    const __m128i meta = _mm_castps_si128(
        _mm_shuffle_ps(_mm_castsi128_ps(h01), _mm_castsi128_ps(h23),
                       _MM_SHUFFLE(3, 1, 3, 1)));
    const __m128i invalid = _mm_cmpeq_epi32(
        _mm_and_si128(meta, _mm_set1_epi32(0xFF)), _mm_setzero_si128());
    const int inv_mask = _mm_movemask_ps(_mm_castsi128_ps(invalid));
    const int eq =
        _mm_movemask_pd(_mm_castsi128_pd(detail::cmpeq64_sse2(k01, kv))) |
        (_mm_movemask_pd(_mm_castsi128_pd(detail::cmpeq64_sse2(k23, kv)))
         << 2);
    const int m = eq & ~inv_mask & 0xF;
    if (m != 0)
      return {.hit = true,
              .way = static_cast<std::uint32_t>(
                  __builtin_ctz(static_cast<unsigned>(m)))};
    if (inv_mask != 0)
      return {.way = static_cast<std::uint32_t>(
                  __builtin_ctz(static_cast<unsigned>(inv_mask))),
              .free = true};
    // Full set: every lane is a valid stamp and stamps are strictly
    // distinct, so the argmin is unique (same way victim_way picks).
    alignas(16) std::uint32_t l[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(l), lru);
    std::uint32_t way = 0;
    std::uint32_t best = l[0];
    way = l[1] < best ? 1u : way;
    best = l[1] < best ? l[1] : best;
    way = l[2] < best ? 2u : way;
    best = l[2] < best ? l[2] : best;
    way = l[3] < best ? 3u : way;
    return {.way = way};
  }
#endif
  // Other targets and odd geometries: the two kernels back to back.
  const std::uint32_t w = match_way(slots, n, key);
  if (w != kNoWay) return {.hit = true, .way = w};
  const VictimWay v = victim_way(slots, n);
  return {.way = v.way, .free = v.free};
}

}  // namespace selcache::memsys::kernels
