// Smallest enclosing disk as an LP-type problem (paper Sections 1.1 and 5).
//
// H = points in the plane, f(S) = radius of the smallest disk enclosing S.
// Combinatorial dimension 3 (at most 3 points determine the disk).  This is
// the problem the paper's experimental evaluation (Figures 1-3) runs.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "geometry/circle.hpp"
#include "geometry/welzl.hpp"
#include "gossip/codec.hpp"

namespace lpt::problems {

struct MinDiskSolution {
  geom::Circle disk{};             // empty() encodes f(∅) = -infinity
  std::vector<geom::Vec2> basis;   // sorted support set, |basis| <= 3

  friend bool operator==(const MinDiskSolution& a,
                         const MinDiskSolution& b) = default;
};

/// Shard wire codec (found by ADL from shard/wire.hpp): exact round-trip —
/// center, radius, and the sorted support set, so a solution crossing a
/// shard-worker boundary compares bit-identically on the coordinator.
inline void wire_put(gossip::Encoder& e, const MinDiskSolution& s) {
  e.put(s.disk.center);
  e.put_f64(s.disk.radius);
  e.put_u8(static_cast<std::uint8_t>(s.basis.size()));
  for (const geom::Vec2& b : s.basis) e.put(b);
}

inline void wire_get(gossip::Decoder& d, MinDiskSolution& s) {
  s.disk.center = d.get_vec2();
  s.disk.radius = d.get_f64();
  const std::uint8_t k = d.get_u8();
  s.basis.clear();
  s.basis.reserve(k);
  for (std::uint8_t i = 0; i < k; ++i) s.basis.push_back(d.get_vec2());
}

class MinDisk {
 public:
  using Element = geom::Vec2;
  using Solution = MinDiskSolution;

  std::size_t dimension() const noexcept { return 3; }

  /// Canonical optimal solution: Welzl to find the support, then the disk is
  /// re-derived from the *sorted* support so equal bases give bit-identical
  /// Solutions (see the canonicality contract in core/lp_type.hpp).
  Solution solve(std::span<const Element> s) const;

  /// Fast path for inputs already in random order (the engines' samples):
  /// identical disk, skips Welzl's internal copy + shuffle.
  Solution solve_shuffled(std::span<const Element> s) const;

  /// Canonical solve for a (candidate) basis of <= 3 points received over
  /// the wire; also correct for any small point set.
  Solution from_basis(std::span<const Element> b) const;

  /// solve() into a reused output: the shuffle copy lands in the caller's
  /// buffer (`buf.size() >= s.size()`, e.g. a slab-arena slot), and once
  /// `out.basis` has warmed its <= 3-point capacity the call allocates
  /// nothing — the query service's serve-path contract.  solve() is this
  /// call over a per-thread buffer, so the two are bit-identical.
  void solve_into(std::span<const Element> s, std::span<Element> buf,
                  Solution& out) const;

  /// solve_into over the per-thread buffer solve() uses (the engines'
  /// stage-A solves, reusing each node's Solution).
  void solve_into(std::span<const Element> s, Solution& out) const;

  bool violates(const Solution& sol, const Element& e) const noexcept {
    // Empty disk: f(∅) < f({e}) always.  Otherwise: e outside the disk.
    return !sol.disk.contains(e);
  }

  bool value_less(const Solution& a, const Solution& b) const noexcept {
    return a.disk.radius < b.disk.radius - tol(a, b);
  }
  bool same_value(const Solution& a, const Solution& b) const noexcept {
    const double d = a.disk.radius - b.disk.radius;
    return (d < 0 ? -d : d) <= tol(a, b);
  }

 private:
  static double tol(const Solution& a, const Solution& b) noexcept {
    const double m = a.disk.radius > b.disk.radius ? a.disk.radius
                                                   : b.disk.radius;
    return 1e-9 * (m + 1.0);
  }
};

/// Instance codec (shard::WirableInstance): a MinDisk carries no state, so
/// a shard worker's bootstrap frame holds nothing for it.
inline void wire_put(gossip::Encoder&, const MinDisk&) {}
inline MinDisk wire_make(gossip::Decoder&, std::type_identity<MinDisk>) {
  return {};
}

}  // namespace lpt::problems
