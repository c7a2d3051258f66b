// Thread-count invariance tests for the parallel sweep machinery: the
// bench harness's average_runs and the engines' parallel per-node compute
// phase must produce bit-identical results for any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "common.hpp"
#include "core/high_load.hpp"
#include "core/hitting_set.hpp"
#include "core/low_load.hpp"
#include "problems/min_disk.hpp"
#include "support/test_support.hpp"
#include "util/rng.hpp"
#include "workloads/disk_data.hpp"
#include "workloads/hs_data.hpp"

namespace lpt {
namespace {

using problems::MinDisk;
using workloads::DiskDataset;

// parallel_nodes values the bit-identity tests sweep: odd and even pool
// sizes, more threads than cores, and the host's core count.
const std::size_t kThreadCounts[] = {
    2, 3, 4, 8, std::max<std::size_t>(2, std::thread::hardware_concurrency())};

double engine_run(std::uint64_t seed) {
  MinDisk p;
  util::Rng data_rng(seed);
  const std::size_t n = 128;
  const auto pts =
      workloads::generate_disk_dataset(DiskDataset::kTripleDisk, n, data_rng);
  core::LowLoadConfig cfg;
  cfg.seed = seed;
  const auto res = core::run_low_load(p, pts, n, cfg);
  return static_cast<double>(res.stats.rounds_to_first) +
         1e-9 * static_cast<double>(res.stats.total_push_ops);
}

TEST(ParallelAverageRuns, BitIdenticalAcrossThreadCounts) {
  const std::size_t reps = 8;
  const auto serial = bench::average_runs(reps, engine_run, 1, 1);
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}, hw}) {
    const auto par = bench::average_runs(reps, engine_run, 1, threads);
    EXPECT_EQ(serial.count(), par.count()) << threads << " threads";
    EXPECT_EQ(serial.mean(), par.mean()) << threads << " threads";
    EXPECT_EQ(serial.min(), par.min()) << threads << " threads";
    EXPECT_EQ(serial.max(), par.max()) << threads << " threads";
    EXPECT_EQ(serial.stddev(), par.stddev()) << threads << " threads";
  }
}

// The thm3 bench kernel: low-load run folding rounds, work, and load into
// one value so any divergence across thread counts trips the comparison.
double thm3_kernel(std::uint64_t seed) {
  MinDisk p;
  util::Rng data_rng(seed * 101 + 7);
  const std::size_t n = 128;
  const auto pts =
      workloads::generate_disk_dataset(DiskDataset::kTripleDisk, n, data_rng);
  core::LowLoadConfig cfg;
  cfg.seed = seed;
  const auto res = core::run_low_load(p, pts, n, cfg);
  return static_cast<double>(res.stats.rounds_to_first) +
         1e-3 * res.stats.max_work_per_round +
         1e-9 * static_cast<double>(res.stats.max_total_elements);
}

// The thm4 bench kernel: accelerated high-load (C = 4 basis copies).
double thm4_kernel(std::uint64_t seed) {
  MinDisk p;
  util::Rng data_rng(seed * 131 + 7);
  const std::size_t n = 128;
  const auto pts =
      workloads::generate_disk_dataset(DiskDataset::kTripleDisk, n, data_rng);
  core::HighLoadConfig cfg;
  cfg.seed = seed;
  cfg.push_copies = 4;
  const auto res = core::run_high_load(p, pts, n, cfg);
  return static_cast<double>(res.stats.rounds_to_first) +
         1e-3 * res.stats.max_work_per_round +
         1e-9 * static_cast<double>(res.stats.total_push_ops);
}

// The thm5 bench kernel: planted hitting set, rounds + answer size.
double thm5_kernel(std::uint64_t seed) {
  util::Rng data_rng(seed * 17 + 3);
  const std::size_t n = 128;
  const auto inst =
      workloads::generate_planted_hitting_set(n, 32, 2, 2, data_rng);
  problems::HittingSetProblem p(inst.system);
  core::HittingSetConfig cfg;
  cfg.seed = seed;
  cfg.hitting_set_size = 2;
  const auto res = core::run_hitting_set(p, n, cfg);
  return static_cast<double>(res.stats.rounds_to_first) +
         1e-3 * static_cast<double>(res.hitting_set.size()) +
         1e-9 * static_cast<double>(res.stats.total_push_ops);
}

// The newly threaded thm3/thm4/thm5 bench kernels must give bit-identical
// sweep statistics for any --threads value.
TEST(ParallelAverageRuns, ThmKernelsBitIdenticalAcrossThreadCounts) {
  struct Kernel {
    const char* name;
    double (*run)(std::uint64_t);
  };
  const Kernel kernels[] = {
      {"thm3", thm3_kernel}, {"thm4", thm4_kernel}, {"thm5", thm5_kernel}};
  const std::size_t reps = 6;
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  for (const auto& kernel : kernels) {
    const auto serial = bench::average_runs(reps, kernel.run, 1, 1);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4}, hw}) {
      const auto par = bench::average_runs(reps, kernel.run, 1, threads);
      EXPECT_EQ(serial.count(), par.count())
          << kernel.name << " @ " << threads << " threads";
      EXPECT_EQ(serial.mean(), par.mean())
          << kernel.name << " @ " << threads << " threads";
      EXPECT_EQ(serial.min(), par.min())
          << kernel.name << " @ " << threads << " threads";
      EXPECT_EQ(serial.max(), par.max())
          << kernel.name << " @ " << threads << " threads";
      EXPECT_EQ(serial.stddev(), par.stddev())
          << kernel.name << " @ " << threads << " threads";
    }
  }
}

TEST(ParallelAverageRuns, IndexedVariantSeesStableRepIndices) {
  const std::size_t reps = 6;
  std::vector<double> seeds_seen(reps, 0.0);
  const auto stat = bench::average_runs_indexed(
      reps,
      [&](std::size_t rep, std::uint64_t seed) {
        seeds_seen[rep] = static_cast<double>(seed);
        return static_cast<double>(seed % 101);
      },
      1, 4);
  EXPECT_EQ(stat.count(), reps);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    EXPECT_EQ(seeds_seen[rep], static_cast<double>(1 + rep * 7919));
  }
}

TEST(ParallelNodes, LowLoadBitIdenticalToSerial) {
  MinDisk p;
  const std::size_t n = 256;
  const auto pts = testsupport::golden_disk_points(DiskDataset::kHull, n);

  core::LowLoadConfig serial_cfg;
  serial_cfg.seed = 33;
  const auto serial = core::run_low_load(p, pts, n, serial_cfg);

  for (const std::size_t threads : kThreadCounts) {
    core::LowLoadConfig cfg;
    cfg.seed = 33;
    cfg.parallel_nodes = threads;
    const auto par = core::run_low_load(p, pts, n, cfg);
    EXPECT_EQ(serial.solution.basis, par.solution.basis) << threads;
    EXPECT_EQ(serial.solution.disk, par.solution.disk) << threads;
    EXPECT_EQ(serial.stats.rounds_to_first, par.stats.rounds_to_first);
    EXPECT_EQ(serial.stats.total_push_ops, par.stats.total_push_ops);
    EXPECT_EQ(serial.stats.total_pull_ops, par.stats.total_pull_ops);
    EXPECT_EQ(serial.stats.total_bytes, par.stats.total_bytes);
    EXPECT_EQ(serial.stats.max_total_elements, par.stats.max_total_elements);
    EXPECT_EQ(serial.stats.max_work_per_round, par.stats.max_work_per_round);
    EXPECT_EQ(serial.stats.sampling_attempts, par.stats.sampling_attempts);
  }
}

TEST(ParallelNodes, LowLoadBitIdenticalUnderFaults) {
  MinDisk p;
  const std::size_t n = 256;
  const auto pts =
      testsupport::golden_disk_points(DiskDataset::kTripleDisk, n);

  core::LowLoadConfig serial_cfg;
  serial_cfg.seed = 44;
  serial_cfg.faults.push_loss = 0.2;
  serial_cfg.faults.sleep_probability = 0.1;
  const auto serial = core::run_low_load(p, pts, n, serial_cfg);

  core::LowLoadConfig cfg = serial_cfg;
  cfg.parallel_nodes = 4;
  const auto par = core::run_low_load(p, pts, n, cfg);
  EXPECT_EQ(serial.stats.rounds_to_first, par.stats.rounds_to_first);
  EXPECT_EQ(serial.stats.total_push_ops, par.stats.total_push_ops);
  EXPECT_EQ(serial.stats.total_bytes, par.stats.total_bytes);
}

TEST(ParallelNodes, HighLoadBitIdenticalToSerial) {
  MinDisk p;
  const std::size_t n = 256;
  const auto pts = testsupport::golden_disk_points(DiskDataset::kTriangle, n);

  core::HighLoadConfig serial_cfg;
  serial_cfg.seed = 55;
  const auto serial = core::run_high_load(p, pts, n, serial_cfg);

  for (const std::size_t threads : {2, 4}) {
    core::HighLoadConfig cfg;
    cfg.seed = 55;
    cfg.parallel_nodes = threads;
    const auto par = core::run_high_load(p, pts, n, cfg);
    EXPECT_EQ(serial.solution.basis, par.solution.basis) << threads;
    EXPECT_EQ(serial.stats.rounds_to_first, par.stats.rounds_to_first);
    EXPECT_EQ(serial.stats.total_push_ops, par.stats.total_push_ops);
    EXPECT_EQ(serial.stats.total_bytes, par.stats.total_bytes);
    EXPECT_EQ(serial.stats.max_total_elements, par.stats.max_total_elements);
    EXPECT_EQ(serial.extras.max_single_w, par.extras.max_single_w);
    EXPECT_EQ(serial.extras.max_local_elements, par.extras.max_local_elements);
  }
}

TEST(ParallelNodes, HittingSetBitIdenticalToSerial) {
  util::Rng data_rng(19);
  const std::size_t n = 256;
  const auto inst =
      workloads::generate_planted_hitting_set(n, 64, 2, 2, data_rng);
  problems::HittingSetProblem p(inst.system);

  core::HittingSetConfig serial_cfg;
  serial_cfg.seed = 77;
  serial_cfg.hitting_set_size = 2;
  const auto serial = core::run_hitting_set(p, n, serial_cfg);
  ASSERT_TRUE(serial.valid);

  for (const std::size_t threads : kThreadCounts) {
    core::HittingSetConfig cfg = serial_cfg;
    cfg.parallel_nodes = threads;
    const auto par = core::run_hitting_set(p, n, cfg);
    EXPECT_EQ(serial.hitting_set, par.hitting_set) << threads;
    EXPECT_EQ(serial.d_used, par.d_used) << threads;
    EXPECT_EQ(serial.sample_size, par.sample_size) << threads;
    EXPECT_EQ(serial.stats.rounds_to_first, par.stats.rounds_to_first);
    EXPECT_EQ(serial.stats.total_push_ops, par.stats.total_push_ops);
    EXPECT_EQ(serial.stats.total_pull_ops, par.stats.total_pull_ops);
    EXPECT_EQ(serial.stats.total_bytes, par.stats.total_bytes);
    EXPECT_EQ(serial.stats.max_total_elements, par.stats.max_total_elements);
    EXPECT_EQ(serial.stats.sampling_attempts, par.stats.sampling_attempts);
    EXPECT_EQ(serial.stats.sampling_failures, par.stats.sampling_failures);
  }
}

TEST(ParallelNodes, HittingSetBitIdenticalUnderFaults) {
  util::Rng data_rng(23);
  const std::size_t n = 128;
  const auto inst =
      workloads::generate_planted_hitting_set(n, 32, 2, 2, data_rng);
  problems::HittingSetProblem p(inst.system);

  core::HittingSetConfig serial_cfg;
  serial_cfg.seed = 88;
  serial_cfg.hitting_set_size = 2;
  serial_cfg.faults.push_loss = 0.2;
  serial_cfg.faults.response_loss = 0.1;
  serial_cfg.faults.sleep_probability = 0.1;
  const auto serial = core::run_hitting_set(p, n, serial_cfg);
  ASSERT_TRUE(serial.valid);

  core::HittingSetConfig cfg = serial_cfg;
  cfg.parallel_nodes = 4;
  const auto par = core::run_hitting_set(p, n, cfg);
  EXPECT_EQ(serial.hitting_set, par.hitting_set);
  EXPECT_EQ(serial.stats.rounds_to_first, par.stats.rounds_to_first);
  EXPECT_EQ(serial.stats.total_push_ops, par.stats.total_push_ops);
  EXPECT_EQ(serial.stats.total_bytes, par.stats.total_bytes);
}

// ---------------------------------------------------------------------
// Sparse-bookkeeping (large-n engine) contract: the non-compute loops must
// cost O(active), not O(n).  The pre-slab engines paid a fixed >= 4n node
// touches per round (stage-B scan, delivery walks over all n, filter walk,
// store-header walk); the counters below are what replaced that.
// ---------------------------------------------------------------------

TEST(SparseBookkeeping, HighLoadEarlyRoundsTouchOnlyOccupiedNodes) {
  // 256 elements on 16384 nodes: in round 1 only ~256 nodes are occupied,
  // so the bookkeeping walks (basis push, violator push, delivery) must
  // touch O(occupied) nodes — three orders below the old 4n floor.
  MinDisk p;
  const std::size_t n = 16384;
  const std::size_t m = 256;
  util::Rng data_rng(7);
  const auto pts =
      workloads::generate_disk_dataset(DiskDataset::kTripleDisk, m, data_rng);
  core::HighLoadConfig cfg;
  cfg.seed = 5;
  cfg.max_rounds = 1;  // probe exactly the sparsest round
  const auto res = core::run_high_load(p, pts, n, cfg);
  EXPECT_GT(res.stats.last_round_bookkeeping_touches, 0u);
  EXPECT_LT(res.stats.last_round_bookkeeping_touches, 4 * m);
  EXPECT_LT(res.stats.last_round_bookkeeping_touches, n / 8);
}

TEST(SparseBookkeeping, HighLoadTotalTracksElementSpreadNotRoundsTimesN) {
  // Across a whole sparse-start run, summed bookkeeping must be o(rounds *
  // n): occupancy grows geometrically, so the early rounds are nearly
  // free.  (Measured ~0.4 * rounds * n at convergence for this instance;
  // the pre-slab engines paid >= 4 * rounds * n.)
  MinDisk p;
  const std::size_t n = 16384;
  util::Rng data_rng(7);
  const auto pts =
      workloads::generate_disk_dataset(DiskDataset::kTripleDisk, 256, data_rng);
  core::HighLoadConfig cfg;
  cfg.seed = 5;
  const auto res = core::run_high_load(p, pts, n, cfg);
  ASSERT_TRUE(res.stats.reached_optimum);
  ASSERT_GT(res.stats.rounds_to_first, 10u);  // long sparse growth phase
  EXPECT_LT(res.stats.bookkeeping_touches_total,
            static_cast<std::uint64_t>(res.stats.rounds_to_first) * n);
}

TEST(SparseBookkeeping, LowLoadSteadyStateStaysBelowTheOldPerRoundFloor) {
  // Long past convergence (min_rounds) the low-load engine sits in a
  // steady state where the bookkeeping is proportional to the active sets
  // (W_i pushers + receivers + copy holders + the long-empty pull list).
  // That lands well under the old fixed 4n-per-round floor even though
  // every node still samples (which is inherent algorithm work, excluded).
  MinDisk p;
  const std::size_t n = 4096;
  util::Rng data_rng(7);
  const auto pts =
      workloads::generate_disk_dataset(DiskDataset::kDuoDisk, n, data_rng);
  core::LowLoadConfig cfg;
  cfg.seed = 5;
  cfg.min_rounds = 40;
  const auto res = core::run_low_load(p, pts, n, cfg);
  ASSERT_TRUE(res.stats.reached_optimum);
  EXPECT_GT(res.stats.last_round_bookkeeping_touches, 0u);
  EXPECT_LT(res.stats.last_round_bookkeeping_touches, 2 * n);
  EXPECT_LT(res.stats.bookkeeping_touches_total,
            static_cast<std::uint64_t>(40) * 2 * n);
}

TEST(ParallelNodes, BookkeepingCountersBitIdenticalAcrossThreadCounts) {
  // The sparse-tracking paths (chunked stage-B collection, receiver walks,
  // holder-list filtering) must not only preserve results but report the
  // same bookkeeping for any parallel_nodes value — the counters are part
  // of the determinism contract.
  MinDisk p;
  const std::size_t n = 512;
  const auto pts = testsupport::golden_disk_points(DiskDataset::kHull, n);
  core::LowLoadConfig serial_cfg;
  serial_cfg.seed = 91;
  serial_cfg.min_rounds = 12;  // include quiescent late rounds
  const auto serial = core::run_low_load(p, pts, n, serial_cfg);
  for (const std::size_t threads : kThreadCounts) {
    core::LowLoadConfig cfg = serial_cfg;
    cfg.parallel_nodes = threads;
    const auto par = core::run_low_load(p, pts, n, cfg);
    EXPECT_EQ(serial.stats.rounds_to_first, par.stats.rounds_to_first);
    EXPECT_EQ(serial.stats.total_push_ops, par.stats.total_push_ops);
    EXPECT_EQ(serial.stats.total_bytes, par.stats.total_bytes);
    EXPECT_EQ(serial.stats.bookkeeping_touches_total,
              par.stats.bookkeeping_touches_total)
        << threads;
    EXPECT_EQ(serial.stats.last_round_bookkeeping_touches,
              par.stats.last_round_bookkeeping_touches)
        << threads;
  }
  // Same contract for the hitting-set engine's chunked stage B.
  util::Rng data_rng(19);
  const auto inst =
      workloads::generate_planted_hitting_set(256, 64, 2, 2, data_rng);
  problems::HittingSetProblem hs(inst.system);
  core::HittingSetConfig hs_serial;
  hs_serial.seed = 77;
  hs_serial.hitting_set_size = 2;
  const auto hs_ref = core::run_hitting_set(hs, 256, hs_serial);
  for (const std::size_t threads : {2, 8}) {
    core::HittingSetConfig cfg = hs_serial;
    cfg.parallel_nodes = threads;
    const auto par = core::run_hitting_set(hs, 256, cfg);
    EXPECT_EQ(hs_ref.stats.bookkeeping_touches_total,
              par.stats.bookkeeping_touches_total)
        << threads;
    EXPECT_EQ(hs_ref.stats.last_round_bookkeeping_touches,
              par.stats.last_round_bookkeeping_touches)
        << threads;
  }
}

TEST(ParallelNodes, TerminationProtocolStaysCorrect) {
  MinDisk p;
  const std::size_t n = 128;
  const auto pts = testsupport::golden_disk_points(DiskDataset::kDuoDisk, n);
  core::LowLoadConfig cfg;
  cfg.seed = 66;
  cfg.run_termination = true;
  cfg.parallel_nodes = 4;
  const auto res = core::run_low_load(p, pts, n, cfg);
  ASSERT_TRUE(res.stats.reached_optimum);
  EXPECT_TRUE(res.stats.all_outputs_correct);
}

}  // namespace
}  // namespace lpt
