// Tests for the sequential baselines: Clarkson's Algorithm 1, the generic
// MSW basis-exchange solver, and the empirical sampling bound of Lemma 1.
#include <gtest/gtest.h>

#include <cmath>

#include "core/clarkson.hpp"
#include "core/hypercube_clarkson.hpp"
#include "problems/linear_program2d.hpp"
#include "problems/min_disk.hpp"
#include "problems/polytope_distance.hpp"
#include "support/test_support.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads/disk_data.hpp"
#include "workloads/lp_data.hpp"

namespace lpt {
namespace {

using workloads::DiskDataset;

class ClarksonOnDatasets
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ClarksonOnDatasets, MatchesOracle) {
  const auto [dataset_idx, seed] = GetParam();
  const auto dataset = workloads::kAllDiskDatasets[dataset_idx];
  util::Rng rng(seed);
  const auto pts = workloads::generate_disk_dataset(dataset, 500, rng);
  problems::MinDisk p;
  const auto oracle = p.solve(pts);
  const auto res = core::clarkson_solve(p, pts, rng);
  EXPECT_TRUE(res.stats.converged);
  EXPECT_TRUE(p.same_value(res.solution, oracle))
      << workloads::dataset_name(dataset) << ": " << res.solution.disk.radius
      << " vs " << oracle.disk.radius;
}

TEST_P(ClarksonOnDatasets, IterationCountIsLogarithmic) {
  const auto [dataset_idx, seed] = GetParam();
  const auto dataset = workloads::kAllDiskDatasets[dataset_idx];
  util::Rng rng(100 + seed);
  const auto pts = workloads::generate_disk_dataset(dataset, 2000, rng);
  problems::MinDisk p;
  const auto res = core::clarkson_solve(p, pts, rng);
  ASSERT_TRUE(res.stats.converged);
  // Lemma 2: O(d log n) iterations in expectation; with d = 3 and
  // n = 2000 a generous constant gives 3 * 11 * 6 = 198.
  EXPECT_LE(res.stats.iterations, 200u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ClarksonOnDatasets,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Range(1, 6)));

TEST(Clarkson, SmallInputSolvedDirectly) {
  problems::MinDisk p;
  util::Rng rng(1);
  std::vector<geom::Vec2> pts{{0, 0}, {1, 0}, {0, 1}};
  const auto res = core::clarkson_solve(p, pts, rng);
  EXPECT_TRUE(res.stats.converged);
  EXPECT_EQ(res.stats.iterations, 0u);
  EXPECT_EQ(res.stats.basis_computations, 1u);
}

TEST(Clarkson, WorksOnLpInstances) {
  util::Rng rng(2);
  const auto inst = workloads::generate_lp_instance(800, rng);
  problems::LinearProgram2D p(inst.objective);
  const auto res = core::clarkson_solve(p, inst.constraints, rng);
  EXPECT_TRUE(res.stats.converged);
  EXPECT_NEAR(res.solution.value.objective, inst.optimal_value, 1e-6);
}

TEST(Clarkson, WorksOnPolytopeDistance) {
  util::Rng rng(3);
  problems::PolytopeDistance p;
  std::vector<geom::Vec2> pts;
  for (int i = 0; i < 600; ++i) {
    pts.push_back({rng.uniform(1.0, 6.0), rng.uniform(-4.0, 4.0)});
  }
  const auto oracle = p.solve(pts);
  const auto res = core::clarkson_solve(p, pts, rng);
  EXPECT_TRUE(res.stats.converged);
  EXPECT_TRUE(p.same_value(res.solution, oracle));
}

// Empirical check of Lemma 1: E|V_R| <= d (m - r) / (r + 1) for uniform
// multiplicities.  We estimate the expectation over many random samples.
TEST(Lemma1, SamplingBoundHolds) {
  util::Rng rng(4);
  problems::MinDisk p;
  const std::size_t m = 600;
  const auto pts =
      workloads::generate_disk_dataset(DiskDataset::kTripleDisk, m, rng);
  const std::size_t d = p.dimension();
  for (std::size_t r : {10ul, 54ul, 100ul}) {
    util::RunningStat v_size;
    for (int trial = 0; trial < 300; ++trial) {
      std::vector<geom::Vec2> sample;
      for (auto idx : rng.sample_indices(m, r)) sample.push_back(pts[idx]);
      const auto sol = p.solve(sample);
      v_size.add(static_cast<double>(core::count_violators(p, sol, pts)));
    }
    const double bound = static_cast<double>(d) *
                         static_cast<double>(m - r) /
                         static_cast<double>(r + 1);
    // Allow 3 standard errors of slack on the Monte Carlo estimate.
    const double slack =
        3.0 * v_size.stddev() / std::sqrt(static_cast<double>(v_size.count()));
    EXPECT_LE(v_size.mean(), bound + slack) << "r = " << r;
  }
}


TEST(HypercubeClarkson, MatchesOracleAndCountsRounds) {
  problems::MinDisk p;
  const auto pts =
      testsupport::make_disk_points(DiskDataset::kTripleDisk, 1024, 9);
  const auto oracle = p.solve(pts);
  core::HypercubeClarksonConfig cfg;
  cfg.seed = 42;
  const auto res = core::run_hypercube_clarkson(p, pts, 1024, cfg);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(p.same_value(res.solution, oracle));
  // Rounds = Theta(iterations * log n): at least log2(1024) = 10 per
  // iteration, and a constant number of collectives per iteration.
  EXPECT_GE(res.rounds, res.iterations * 10);
  EXPECT_LE(res.rounds, res.iterations * 50 + 50);
}

TEST(HypercubeClarkson, SmallInputShortCircuits) {
  problems::MinDisk p;
  std::vector<geom::Vec2> pts{{0, 0}, {1, 0}};
  core::HypercubeClarksonConfig cfg;
  cfg.seed = 1;
  const auto res = core::run_hypercube_clarkson(p, pts, 16, cfg);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0u);
  EXPECT_GT(res.rounds, 0u);
}

}  // namespace
}  // namespace lpt
