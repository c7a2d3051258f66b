// Fixed-dimension linear programming as an LP-type problem (paper §1.1).
//
// H = half-plane constraints, f(S) = canonical optimum of "minimize c.x
// subject to S" inside an implicit bounding box.  Combinatorial dimension =
// number of variables = 2.  The LP substrate is Seidel's algorithm (src/lp).
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "gossip/codec.hpp"
#include "lp/seidel.hpp"

namespace lpt::problems {

struct Lp2dSolution {
  lp::LpValue value{};
  std::vector<lp::Halfplane> basis;  // sorted, <= 2 constraints

  friend bool operator==(const Lp2dSolution&, const Lp2dSolution&) = default;
};

/// Shard wire codec (found by ADL from shard/wire.hpp): exact round-trip of
/// the canonical value and the sorted basis, mirroring MinDiskSolution's —
/// it makes LinearProgram2D shardable and lets the query service frame LP
/// solutions in its responses.
inline void wire_put(gossip::Encoder& e, const Lp2dSolution& s) {
  e.put_f64(s.value.objective);
  e.put(s.value.point);
  e.put_u8(s.value.infeasible ? 1 : 0);
  e.put_u8(static_cast<std::uint8_t>(s.basis.size()));
  for (const lp::Halfplane& h : s.basis) e.put(h);
}

inline void wire_get(gossip::Decoder& d, Lp2dSolution& s) {
  s.value.objective = d.get_f64();
  s.value.point = d.get_vec2();
  s.value.infeasible = d.get_u8() != 0;
  const std::uint8_t k = d.get_u8();
  s.basis.clear();
  s.basis.reserve(k);
  for (std::uint8_t i = 0; i < k; ++i) s.basis.push_back(d.get_halfplane());
}

class LinearProgram2D {
 public:
  using Element = lp::Halfplane;
  using Solution = Lp2dSolution;

  explicit LinearProgram2D(geom::Vec2 objective, double box = 1e6)
      : solver_(objective, box) {}

  std::size_t dimension() const noexcept { return 2; }

  Solution solve(std::span<const Element> s) const;
  Solution from_basis(std::span<const Element> b) const;

  bool violates(const Solution& sol, const Element& e) const noexcept {
    return solver_.violates(sol.value, e);
  }
  bool value_less(const Solution& a, const Solution& b) const noexcept;
  bool same_value(const Solution& a, const Solution& b) const noexcept;

  const lp::Seidel2D& solver() const noexcept { return solver_; }

 private:
  lp::Seidel2D solver_;
};

/// Instance codec (shard::WirableInstance): the objective and the bounding
/// box, all a shard worker needs to rebuild the problem.  Schema: objective
/// (Vec2) · f64 box.
inline void wire_put(gossip::Encoder& e, const LinearProgram2D& p) {
  e.put(p.solver().objective());
  e.put_f64(p.solver().box());
}

inline LinearProgram2D wire_make(gossip::Decoder& d,
                                 std::type_identity<LinearProgram2D>) {
  const geom::Vec2 objective = d.get_vec2();
  return LinearProgram2D(objective, d.get_f64());
}

}  // namespace lpt::problems
