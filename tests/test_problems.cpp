// Property tests: every problem adapter satisfies the LP-type axioms
// (monotonicity, locality, basis contract) on random instances, solves are
// canonical, and the hitting-set / set-cover substrate behaves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "core/lp_type.hpp"
#include "geometry/circle.hpp"
#include "geometry/welzl.hpp"
#include "problems/hitting_set_problem.hpp"
#include "problems/linear_program2d.hpp"
#include "problems/min_ball.hpp"
#include "problems/min_disk.hpp"
#include "problems/polytope_distance.hpp"
#include "problems/set_cover.hpp"
#include "util/rng.hpp"
#include "workloads/hs_data.hpp"
#include "workloads/lp_data.hpp"

namespace lpt {
namespace {

static_assert(core::LpTypeProblem<problems::MinDisk>);
static_assert(core::LpTypeProblem<problems::MinBall<3>>);
static_assert(core::LpTypeProblem<problems::LinearProgram2D>);
static_assert(core::LpTypeProblem<problems::PolytopeDistance>);

class MinDiskAxioms : public ::testing::TestWithParam<int> {};

TEST_P(MinDiskAxioms, HoldOnRandomInstances) {
  util::Rng rng(GetParam());
  problems::MinDisk p;
  std::vector<geom::Vec2> ground;
  const std::size_t n = 4 + rng.below(10);
  for (std::size_t i = 0; i < n; ++i) {
    ground.push_back({rng.uniform(-4, 4), rng.uniform(-4, 4)});
  }
  const auto rep = core::check_axioms(p, ground, 40, rng);
  EXPECT_EQ(rep.monotonicity_failures, 0u);
  EXPECT_EQ(rep.locality_failures, 0u);
  EXPECT_EQ(rep.basis_failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinDiskAxioms, ::testing::Range(1, 21));

class PolytopeDistanceAxioms : public ::testing::TestWithParam<int> {};

TEST_P(PolytopeDistanceAxioms, HoldOnRandomInstances) {
  util::Rng rng(100 + GetParam());
  problems::PolytopeDistance p;
  std::vector<geom::Vec2> ground;
  const std::size_t n = 4 + rng.below(10);
  for (std::size_t i = 0; i < n; ++i) {
    // Mix of configurations: sometimes the origin ends up inside.
    ground.push_back({rng.uniform(-1, 5), rng.uniform(-3, 3)});
  }
  const auto rep = core::check_axioms(p, ground, 40, rng);
  EXPECT_EQ(rep.monotonicity_failures, 0u);
  EXPECT_EQ(rep.locality_failures, 0u);
  EXPECT_EQ(rep.basis_failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolytopeDistanceAxioms,
                         ::testing::Range(1, 21));

class Lp2dAxioms : public ::testing::TestWithParam<int> {};

TEST_P(Lp2dAxioms, HoldOnRandomFeasibleInstances) {
  util::Rng rng(200 + GetParam());
  const auto inst = workloads::generate_lp_instance(10, rng);
  problems::LinearProgram2D p(inst.objective);
  const auto rep = core::check_axioms(p, inst.constraints, 40, rng);
  EXPECT_EQ(rep.monotonicity_failures, 0u);
  EXPECT_EQ(rep.locality_failures, 0u);
  EXPECT_EQ(rep.basis_failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lp2dAxioms, ::testing::Range(1, 21));

class MinBallAxioms : public ::testing::TestWithParam<int> {};

TEST_P(MinBallAxioms, HoldOnRandom3DInstances) {
  util::Rng rng(300 + GetParam());
  problems::MinBall<3> p;
  std::vector<geom::VecD<3>> ground(5 + rng.below(6));
  for (auto& g : ground) {
    for (int k = 0; k < 3; ++k) g[k] = rng.uniform(-3, 3);
  }
  const auto rep = core::check_axioms(p, ground, 25, rng);
  EXPECT_EQ(rep.monotonicity_failures, 0u);
  EXPECT_EQ(rep.locality_failures, 0u);
  EXPECT_EQ(rep.basis_failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinBallAxioms, ::testing::Range(1, 11));

TEST(MinDisk, SolveIsCanonical) {
  problems::MinDisk p;
  util::Rng rng(5);
  std::vector<geom::Vec2> pts;
  for (int i = 0; i < 50; ++i) {
    pts.push_back({rng.uniform(-2, 2), rng.uniform(-2, 2)});
  }
  const auto a = p.solve(pts);
  // Same multiset, different order -> identical Solution.
  rng.shuffle(pts);
  const auto b = p.solve(pts);
  EXPECT_EQ(a.basis, b.basis);
  EXPECT_EQ(a.disk, b.disk);
  // from_basis on the basis reproduces the same Solution bit-for-bit.
  const auto c = p.from_basis(a.basis);
  EXPECT_EQ(a.disk, c.disk);
  EXPECT_EQ(a.basis, c.basis);
}

TEST(MinDisk, EmptySolveViolatedByEverything) {
  problems::MinDisk p;
  const auto sol = p.solve({});
  EXPECT_TRUE(sol.disk.empty());
  EXPECT_TRUE(p.violates(sol, {0, 0}));
}

TEST(MinDisk, FromBasisDropsInteriorPoint) {
  problems::MinDisk p;
  // Two diametral points plus an interior one: the basis is the pair.
  std::vector<geom::Vec2> b{{-1, 0}, {1, 0}, {0.1, 0.1}};
  const auto sol = p.from_basis(b);
  EXPECT_EQ(sol.basis.size(), 2u);
  EXPECT_NEAR(sol.disk.radius, 1.0, 1e-9);
}

// MinDisk::from_basis as it was before its candidate supports moved into
// fixed arrays: the bit-exactness reference for the current one.
geom::Circle reference_disk_of_small(std::span<const geom::Vec2> pts) {
  switch (pts.size()) {
    case 0:
      return geom::Circle{};
    case 1:
      return geom::circle_from(pts[0]);
    case 2:
      return geom::circle_from(pts[0], pts[1]);
    default: {
      geom::Circle best{};
      bool found = false;
      for (int drop = 2; drop >= 0; --drop) {
        const geom::Vec2 a = pts[(drop + 1) % 3];
        const geom::Vec2 b = pts[(drop + 2) % 3];
        const geom::Circle c = geom::circle_from(a, b);
        if (c.contains(pts[static_cast<std::size_t>(drop)]) &&
            (!found || c.radius < best.radius)) {
          best = c;
          found = true;
        }
      }
      if (found) return best;
      return geom::circle_from(pts[0], pts[1], pts[2]);
    }
  }
}

problems::MinDiskSolution reference_from_basis(
    std::span<const geom::Vec2> b) {
  if (b.size() <= 3) {
    problems::MinDiskSolution sol;
    sol.basis.assign(b.begin(), b.end());
    std::sort(sol.basis.begin(), sol.basis.end());
    sol.basis.erase(std::unique(sol.basis.begin(), sol.basis.end()),
                    sol.basis.end());
    sol.disk = reference_disk_of_small(sol.basis);
    if (geom::encloses_all(sol.disk, sol.basis)) {
      if (sol.basis.size() == 3) {
        for (std::size_t i = 0; i < 3; ++i) {
          std::vector<geom::Vec2> two;
          for (std::size_t j = 0; j < 3; ++j) {
            if (j != i) two.push_back(sol.basis[j]);
          }
          const auto c = reference_disk_of_small(two);
          if (c.radius >= sol.disk.radius - 1e-12 * (sol.disk.radius + 1.0) &&
              c.contains(sol.basis[i])) {
            sol.basis = std::move(two);
            sol.disk = c;
            break;
          }
        }
      }
      return sol;
    }
  }
  return problems::MinDisk{}.solve(b);
}

TEST(MinDisk, FromBasisMatchesReferenceOnSmallInputs) {
  const problems::MinDisk p;
  util::Rng rng(4242);
  auto point = [&] {
    return geom::Vec2{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
  };
  auto check = [&](std::vector<geom::Vec2> b, const char* what) {
    for (int perm = 0; perm < 3; ++perm) {
      const auto got = p.from_basis(b);
      const auto want = reference_from_basis(b);
      ASSERT_EQ(got, want) << what << " |b|=" << b.size();
      rng.shuffle(b);
    }
  };
  for (int trial = 0; trial < 400; ++trial) {
    // Random sets of 0-3 points.
    std::vector<geom::Vec2> b;
    const std::size_t k = rng.below(4);
    for (std::size_t i = 0; i < k; ++i) b.push_back(point());
    check(b, "random");
    // Duplicates: a repeated point, alone and with a partner.
    const geom::Vec2 a = point();
    const geom::Vec2 c = point();
    check({a, a}, "duplicate pair");
    check({a, a, c}, "duplicate in triple");
    check({a, a, a}, "triple duplicate");
    // Near-duplicates: two points within the containment tolerance, so
    // more than one diametral pair encloses the third point and the
    // first-qualifying-pair order decides the basis.
    const double eps = rng.uniform(1e-13, 1e-10);
    check({a, c, c + geom::Vec2{eps, -eps}}, "near-duplicate");
    check({a, a + geom::Vec2{0.0, eps}, c}, "near-duplicate");
    // Collinear triples: the middle point lies on the segment.
    const double t = rng.uniform(0.0, 1.0);
    check({a, c, a + t * (c - a)}, "collinear");
    // A diametral pair plus an interior point.
    const geom::Vec2 mid = 0.5 * (a + c);
    const double r = geom::dist(a, c) / 2.0;
    const double ang = rng.uniform(0.0, 6.283185307179586);
    const double s = rng.uniform(0.0, 0.99) * r;
    check({a, c, mid + geom::Vec2{s * std::cos(ang), s * std::sin(ang)}},
          "diametral pair + interior");
    // Cocircular triples (on the boundary up to rounding).
    const geom::Vec2 o = point();
    const double rr = rng.uniform(0.1, 4.0);
    std::vector<geom::Vec2> ring;
    for (int i = 0; i < 3; ++i) {
      const double th = rng.uniform(0.0, 6.283185307179586);
      ring.push_back(o + geom::Vec2{rr * std::cos(th), rr * std::sin(th)});
    }
    check(ring, "cocircular");
  }
}

TEST(MinDisk, SolutionOrderBreaksTiesDeterministically) {
  problems::MinDisk p;
  const auto a = p.from_basis(std::vector<geom::Vec2>{{-1, 0}, {1, 0}});
  const auto b = p.from_basis(std::vector<geom::Vec2>{{-1, 1}, {1, 1}});
  // Same radius, different bases: order must be deterministic and strict.
  EXPECT_TRUE(p.same_value(a, b));
  const int ab = core::solution_order(p, a, b);
  const int ba = core::solution_order(p, b, a);
  EXPECT_NE(ab, 0);
  EXPECT_EQ(ab, -ba);
}

TEST(PolytopeDistance, OriginInsideHullGivesZeroAndTriangleWitness) {
  problems::PolytopeDistance p;
  std::vector<geom::Vec2> pts{{-1, -1}, {1, -1}, {0, 2}, {3, 3}};
  const auto sol = p.solve(pts);
  EXPECT_DOUBLE_EQ(sol.distance, 0.0);
  EXPECT_EQ(sol.basis.size(), 3u);
  // Nothing violates a zero-distance solution.
  EXPECT_FALSE(p.violates(sol, {5, 5}));
  EXPECT_FALSE(p.violates(sol, {-5, -5}));
}

TEST(PolytopeDistance, ValueIncreasesWhenPointRemoved) {
  problems::PolytopeDistance p;
  std::vector<geom::Vec2> far{{3, 0}, {4, 1}};
  std::vector<geom::Vec2> near{{3, 0}, {4, 1}, {1, 0}};
  const auto sf = p.solve(far);
  const auto sn = p.solve(near);
  // f = -distance: more points -> smaller distance -> larger f.
  EXPECT_TRUE(p.value_less(sf, sn));
  EXPECT_NEAR(sn.distance, 1.0, 1e-9);
}

TEST(Lp2d, SolveMatchesPlantedOptimum) {
  util::Rng rng(77);
  const auto inst = workloads::generate_lp_instance(30, rng);
  problems::LinearProgram2D p(inst.objective);
  const auto sol = p.solve(inst.constraints);
  EXPECT_FALSE(sol.value.infeasible);
  EXPECT_NEAR(sol.value.objective, inst.optimal_value, 1e-6);
  EXPECT_LE(sol.basis.size(), 2u);
}

TEST(Lp2d, FromBasisCanonical) {
  util::Rng rng(78);
  const auto inst = workloads::generate_lp_instance(30, rng);
  problems::LinearProgram2D p(inst.objective);
  const auto sol = p.solve(inst.constraints);
  const auto back = p.from_basis(sol.basis);
  EXPECT_TRUE(p.same_value(sol, back));
  EXPECT_EQ(sol.basis, back.basis);
}

// --- Set systems -----------------------------------------------------------

problems::SetSystem small_system() {
  // X = {0..5}; sets: {0,1}, {1,2}, {3}, {4,5}.
  return problems::SetSystem(
      6, {{0, 1}, {1, 2}, {3}, {4, 5}});
}

TEST(SetSystem, InvertedIndexAndFrequency) {
  const auto sys = small_system();
  EXPECT_EQ(sys.set_count(), 4u);
  EXPECT_EQ(sys.universe_size(), 6u);
  ASSERT_EQ(sys.sets_containing(1).size(), 2u);
  EXPECT_EQ(sys.max_frequency(), 2u);
}

TEST(HittingSet, ValueCountsHitSets) {
  auto sys = std::make_shared<problems::SetSystem>(small_system());
  problems::HittingSetProblem p(sys);
  std::vector<std::uint32_t> u{1};
  EXPECT_EQ(p.value_of(u), 2u);  // hits {0,1} and {1,2}
  u = {1, 3, 4};
  EXPECT_EQ(p.value_of(u), 4u);
  EXPECT_TRUE(p.is_hitting_set(u));
  EXPECT_FALSE(p.is_hitting_set(std::vector<std::uint32_t>{0}));
}

TEST(HittingSet, UnhitSets) {
  auto sys = std::make_shared<problems::SetSystem>(small_system());
  problems::HittingSetProblem p(sys);
  std::vector<std::uint32_t> u{0};
  const auto unhit = p.unhit_sets(u);
  EXPECT_EQ(unhit, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(HittingSet, GreedyIsValid) {
  auto sys = std::make_shared<problems::SetSystem>(small_system());
  problems::HittingSetProblem p(sys);
  const auto g = p.greedy_hitting_set();
  EXPECT_TRUE(p.is_hitting_set(g));
  EXPECT_LE(g.size(), 4u);
}

TEST(HittingSet, ExactMinimumOnSmallInstance) {
  auto sys = std::make_shared<problems::SetSystem>(small_system());
  problems::HittingSetProblem p(sys);
  const auto e = p.exact_minimum_hitting_set(6);
  EXPECT_TRUE(p.is_hitting_set(e));
  EXPECT_EQ(e.size(), 3u);  // {1, 3, 4-or-5}
}

TEST(HittingSet, ExactRespectsCap) {
  auto sys = std::make_shared<problems::SetSystem>(small_system());
  problems::HittingSetProblem p(sys);
  EXPECT_TRUE(p.exact_minimum_hitting_set(1).empty());
}

class PlantedHsProperty : public ::testing::TestWithParam<int> {};

TEST_P(PlantedHsProperty, PlantedSetIsMinimum) {
  util::Rng rng(GetParam());
  const std::size_t d = 1 + rng.below(3);
  const auto inst =
      workloads::generate_planted_hitting_set(60, 20, d, 4, rng);
  problems::HittingSetProblem p(inst.system);
  EXPECT_TRUE(p.is_hitting_set(inst.planted));
  EXPECT_EQ(inst.planted.size(), d);
  const auto exact = p.exact_minimum_hitting_set(d);
  EXPECT_EQ(exact.size(), d);  // cannot do better than d
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlantedHsProperty, ::testing::Range(1, 11));

TEST(SetCover, DualTransformRoundTrip) {
  // Primal: X = {0,1,2}; S0={0,1}, S1={1,2}, S2={2}.
  auto primal = problems::SetSystem(3, {{0, 1}, {1, 2}, {2}});
  const auto dual = problems::dual_of_set_cover(primal);
  // Dual universe = set indices {0,1,2}; M_0={0}, M_1={0,1}, M_2={1,2}.
  EXPECT_EQ(dual->universe_size(), 3u);
  EXPECT_EQ(dual->set_count(), 3u);
  EXPECT_EQ(dual->set(0), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(dual->set(1), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(dual->set(2), (std::vector<std::uint32_t>{1, 2}));
  // A hitting set of the dual is a set cover of the primal.
  problems::HittingSetProblem hs(dual);
  const auto h = hs.greedy_hitting_set();
  EXPECT_TRUE(problems::is_set_cover(primal, h));
}

TEST(SetCover, GreedyCoversEverything) {
  util::Rng rng(9);
  const auto inst = workloads::generate_planted_set_cover(50, 12, 3, rng);
  const auto cover = problems::greedy_set_cover(*inst.instance);
  EXPECT_TRUE(problems::is_set_cover(*inst.instance, cover));
  EXPECT_TRUE(problems::is_set_cover(*inst.instance, inst.planted_cover));
  EXPECT_GE(cover.size(), inst.planted_cover.size());
}

TEST(SetCover, PlantedCoverIsMinimum) {
  util::Rng rng(10);
  const auto inst = workloads::generate_planted_set_cover(40, 10, 4, rng);
  // Via duality: the minimum hitting set of the dual has size exactly 4.
  const auto dual = problems::dual_of_set_cover(*inst.instance);
  problems::HittingSetProblem hs(dual);
  const auto exact = hs.exact_minimum_hitting_set(4);
  EXPECT_EQ(exact.size(), 4u);
}

}  // namespace
}  // namespace lpt
