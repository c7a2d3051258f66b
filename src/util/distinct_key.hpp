// distinct_key: the hash that lets the pull sampler deduplicate elements
// without sorting them.
//
// distinct_key(e) -> uint64 is an ADL customization point.  It must be
// consistent with operator==: equal elements, equal keys.  Element types
// that provide one get dense per-round ids in shard::StoreSnapshot, and
// the sampler then deduplicates pull answers by id (core/sampling.hpp).
// Elements without one are sorted and uniqued instead.  The overloads for
// the built-in element types live here; class types put theirs next to the
// type (geom::Vec2 in geometry/vec2.hpp).
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>

namespace lpt::util {

// Exact-type constrained, so no element reaches these through a lossy
// implicit conversion.
template <std::same_as<std::uint32_t> T>
std::uint64_t distinct_key(T v) noexcept {
  std::uint64_t h =
      (static_cast<std::uint64_t>(v) + 1) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 31);
}

template <std::same_as<double> T>
std::uint64_t distinct_key(T d) noexcept {
  // Normalize -0.0 so the key stays consistent with operator==.
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(d == 0.0 ? 0.0 : d);
  std::uint64_t h = (bits + 1) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 31);
}

template <typename Element>
concept HasDistinctKey = requires(const Element& e) {
  { distinct_key(e) } -> std::convertible_to<std::uint64_t>;
};

}  // namespace lpt::util
