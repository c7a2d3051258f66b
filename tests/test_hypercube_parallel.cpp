// Thread-count invariance for the hypercube Clarkson baseline: the
// per-node compute stage (weight totals, violation scans, doubling) fans
// out over a thread pool, and the results — solution, iteration count, hypercube round count — must be
// bit-identical to the serial run for every thread count, including under
// loss/sleep faults and when the iteration cap terminates the run early.
#include <gtest/gtest.h>

#include <thread>

#include "core/hypercube_clarkson.hpp"
#include "problems/min_disk.hpp"
#include "support/test_support.hpp"
#include "util/math.hpp"
#include "workloads/disk_data.hpp"

namespace lpt {
namespace {

using problems::MinDisk;
using workloads::DiskDataset;

using Result = core::HypercubeClarksonResult<MinDisk>;

void expect_identical(const Result& serial, const Result& par,
                      std::size_t threads) {
  EXPECT_EQ(serial.solution.basis, par.solution.basis) << threads;
  EXPECT_EQ(serial.solution.disk, par.solution.disk) << threads;
  EXPECT_EQ(serial.iterations, par.iterations) << threads;
  EXPECT_EQ(serial.rounds, par.rounds) << threads;
  EXPECT_EQ(serial.converged, par.converged) << threads;
}

std::vector<std::size_t> thread_sweep() {
  const std::size_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  return {2, 4, hw};
}

TEST(HypercubeParallel, ClarksonBitIdenticalAcrossParallelNodes) {
  MinDisk p;
  const std::size_t n = 512;
  const auto pts = testsupport::golden_disk_points(DiskDataset::kTripleDisk,
                                                   n);
  const auto oracle = p.solve(pts);

  core::HypercubeClarksonConfig serial_cfg;
  serial_cfg.seed = 21;
  const auto serial = core::run_hypercube_clarkson(p, pts, n, serial_cfg);
  ASSERT_TRUE(serial.converged);
  EXPECT_TRUE(p.same_value(serial.solution, oracle));
  // Four collectives of ceil(log2 n) rounds per iteration, exactly.
  EXPECT_EQ(serial.rounds, serial.iterations * 4 * util::ceil_log2(n));

  for (const std::size_t threads : thread_sweep()) {
    core::HypercubeClarksonConfig cfg = serial_cfg;
    cfg.parallel_nodes = threads;
    expect_identical(serial, core::run_hypercube_clarkson(p, pts, n, cfg),
                     threads);
  }
}

TEST(HypercubeParallel, ClarksonBitIdenticalUnderFaults) {
  MinDisk p;
  const std::size_t n = 256;
  const auto pts = testsupport::golden_disk_points(DiskDataset::kHull, n);
  const auto oracle = p.solve(pts);

  core::HypercubeClarksonConfig serial_cfg;
  serial_cfg.seed = 34;
  serial_cfg.faults.push_loss = 0.25;
  serial_cfg.faults.sleep_probability = 0.15;
  const auto serial = core::run_hypercube_clarkson(p, pts, n, serial_cfg);
  ASSERT_TRUE(serial.converged);
  // Faults only shrink samples; they never corrupt the answer.
  EXPECT_TRUE(p.same_value(serial.solution, oracle));

  for (const std::size_t threads : thread_sweep()) {
    core::HypercubeClarksonConfig cfg = serial_cfg;
    cfg.parallel_nodes = threads;
    expect_identical(serial, core::run_hypercube_clarkson(p, pts, n, cfg),
                     threads);
  }
}

TEST(HypercubeParallel, EarlyTerminationIsBitIdenticalToo) {
  MinDisk p;
  const std::size_t n = 256;
  const auto pts =
      testsupport::golden_disk_points(DiskDataset::kTriangle, n);

  core::HypercubeClarksonConfig serial_cfg;
  serial_cfg.seed = 55;
  serial_cfg.max_iterations = 2;  // cap far below convergence
  const auto serial = core::run_hypercube_clarkson(p, pts, n, serial_cfg);
  EXPECT_FALSE(serial.converged);
  EXPECT_EQ(serial.iterations, 2u);

  for (const std::size_t threads : thread_sweep()) {
    core::HypercubeClarksonConfig cfg = serial_cfg;
    cfg.parallel_nodes = threads;
    expect_identical(serial, core::run_hypercube_clarkson(p, pts, n, cfg),
                     threads);
  }
}

TEST(HypercubeParallel, SmallInputShortCircuitIsThreadCountInvariant) {
  MinDisk p;
  std::vector<geom::Vec2> pts{{0, 0}, {1, 0}, {0, 1}};
  core::HypercubeClarksonConfig serial_cfg;
  serial_cfg.seed = 3;
  const auto serial = core::run_hypercube_clarkson(p, pts, 16, serial_cfg);
  EXPECT_TRUE(serial.converged);
  EXPECT_EQ(serial.iterations, 0u);
  EXPECT_GT(serial.rounds, 0u);

  core::HypercubeClarksonConfig cfg = serial_cfg;
  cfg.parallel_nodes = 4;
  expect_identical(serial, core::run_hypercube_clarkson(p, pts, 16, cfg), 4);
}

}  // namespace
}  // namespace lpt
