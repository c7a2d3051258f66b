// The low-load, high-load, hitting-set and hypercube Clarkson engines
// against their reference loops (tests/support/reference_engines.hpp):
// every result field must be equal — solution bits, round and iteration
// counts, every DistributedRunStats field, the high-load extras, the
// hitting set and its doubling-search outcome — across seeds, datasets,
// sleep / loss / burst / straggler faults, parallel_nodes in {1, 2, 4},
// and, for low and high load, churn in which nodes leave and rejoin.
#include <gtest/gtest.h>

#include <functional>
#include <ranges>
#include <string>
#include <vector>

#include "core/churn.hpp"
#include "core/high_load.hpp"
#include "core/hitting_set.hpp"
#include "core/hypercube_clarkson.hpp"
#include "core/low_load.hpp"
#include "core/round_driver.hpp"
#include "problems/hitting_set_problem.hpp"
#include "problems/linear_program2d.hpp"
#include "problems/min_disk.hpp"
#include "support/reference_engines.hpp"
#include "support/test_support.hpp"
#include "util/rng.hpp"
#include "workloads/disk_data.hpp"
#include "workloads/hs_data.hpp"
#include "workloads/lp_data.hpp"

namespace lpt {
namespace {

using problems::MinDisk;
using workloads::DiskDataset;

void expect_stats_equal(const core::DistributedRunStats& a,
                        const core::DistributedRunStats& b) {
  EXPECT_EQ(a.rounds_to_first, b.rounds_to_first);
  EXPECT_EQ(a.rounds_to_all_output, b.rounds_to_all_output);
  EXPECT_EQ(a.reached_optimum, b.reached_optimum);
  EXPECT_EQ(a.all_outputs_correct, b.all_outputs_correct);
  EXPECT_EQ(a.max_work_per_round, b.max_work_per_round);
  EXPECT_EQ(a.total_push_ops, b.total_push_ops);
  EXPECT_EQ(a.total_pull_ops, b.total_pull_ops);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.initial_total_elements, b.initial_total_elements);
  EXPECT_EQ(a.max_total_elements, b.max_total_elements);
  EXPECT_EQ(a.final_total_elements, b.final_total_elements);
  EXPECT_EQ(a.sampling_attempts, b.sampling_attempts);
  EXPECT_EQ(a.sampling_failures, b.sampling_failures);
  EXPECT_EQ(a.bookkeeping_touches_total, b.bookkeeping_touches_total);
  EXPECT_EQ(a.last_round_bookkeeping_touches,
            b.last_round_bookkeeping_touches);
}

template <typename P>
void expect_high_load_equal(const P& p,
                            std::span<const typename P::Element> h_set,
                            std::size_t n, const core::HighLoadConfig& cfg) {
  const auto ref = testsupport::reference_high_load(p, h_set, n, cfg);
  for (const std::size_t threads : {1, 2, 4}) {
    SCOPED_TRACE("parallel_nodes=" + std::to_string(threads));
    core::HighLoadConfig c = cfg;
    c.parallel_nodes = threads;
    const auto res = core::run_high_load(p, h_set, n, c);
    EXPECT_TRUE(res.solution == ref.solution);
    expect_stats_equal(res.stats, ref.stats);
    EXPECT_EQ(res.extras.max_local_elements, ref.extras.max_local_elements);
    EXPECT_EQ(res.extras.max_single_w, ref.extras.max_single_w);
  }
}

template <typename P>
void expect_low_load_equal(const P& p,
                           std::span<const typename P::Element> h_set,
                           std::size_t n, const core::LowLoadConfig& cfg,
                           bool also_sharded = false) {
  const auto ref = testsupport::reference_low_load(p, h_set, n, cfg);
  auto check = [&](const core::LowLoadConfig& c) {
    const auto res = core::run_low_load(p, h_set, n, c);
    EXPECT_TRUE(res.solution == ref.solution);
    expect_stats_equal(res.stats, ref.stats);
  };
  for (const std::size_t threads : {1, 2, 4}) {
    SCOPED_TRACE("parallel_nodes=" + std::to_string(threads));
    core::LowLoadConfig c = cfg;
    c.parallel_nodes = threads;
    check(c);
  }
  if (also_sharded) {
    SCOPED_TRACE("2 inproc shards");
    core::LowLoadConfig c = cfg;
    c.shard.shards = 2;
    check(c);
  }
}

/// Returns the reference result.
core::HittingSetRunResult expect_hitting_set_equal(
    const problems::HittingSetProblem& p, std::size_t n,
    const core::HittingSetConfig& cfg, bool also_sharded = false) {
  const auto ref = testsupport::reference_hitting_set(p, n, cfg);
  auto check = [&](const core::HittingSetConfig& c) {
    const auto res = core::run_hitting_set(p, n, c);
    EXPECT_EQ(res.hitting_set, ref.hitting_set);
    EXPECT_EQ(res.valid, ref.valid);
    EXPECT_EQ(res.d_used, ref.d_used);
    EXPECT_EQ(res.sample_size, ref.sample_size);
    expect_stats_equal(res.stats, ref.stats);
  };
  for (const std::size_t threads : {1, 2, 4}) {
    SCOPED_TRACE("parallel_nodes=" + std::to_string(threads));
    core::HittingSetConfig c = cfg;
    c.parallel_nodes = threads;
    check(c);
  }
  if (also_sharded) {
    SCOPED_TRACE("2 inproc shards");
    core::HittingSetConfig c = cfg;
    c.shard.shards = 2;
    check(c);
  }
  return ref;
}

void expect_hypercube_equal(std::span<const geom::Vec2> pts, std::size_t n,
                            const core::HypercubeClarksonConfig& cfg) {
  const MinDisk p;
  const auto ref = testsupport::reference_hypercube_clarkson(p, pts, n, cfg);
  for (const std::size_t threads : {1, 2, 4}) {
    SCOPED_TRACE("parallel_nodes=" + std::to_string(threads));
    core::HypercubeClarksonConfig c = cfg;
    c.parallel_nodes = threads;
    const auto res = core::run_hypercube_clarkson(p, pts, n, c);
    EXPECT_EQ(res.solution, ref.solution);
    EXPECT_EQ(res.iterations, ref.iterations);
    EXPECT_EQ(res.rounds, ref.rounds);
    EXPECT_EQ(res.converged, ref.converged);
  }
}

// Fault settings shared by both engines, by name.
struct FaultCase {
  const char* name;
  std::function<void(gossip::FaultModel&)> apply;
};

std::vector<FaultCase> fault_cases() {
  return {
      {"none", [](gossip::FaultModel&) {}},
      {"sleep", [](gossip::FaultModel& f) { f.sleep_probability = 0.2; }},
      {"loss",
       [](gossip::FaultModel& f) {
         f.push_loss = 0.25;
         f.response_loss = 0.1;
       }},
      {"burst",
       [](gossip::FaultModel& f) {
         f.burst.push_loss = 0.6;
         f.burst.enter = 0.3;
         f.burst.exit = 0.4;
       }},
      {"stragglers",
       [](gossip::FaultModel& f) {
         f.straggler.rate = 0.05;
         f.straggler.scale = 2.0;
         f.straggler.cap_rounds = 6;
       }},
  };
}

constexpr DiskDataset kDatasets[] = {DiskDataset::kTriangle,
                                     DiskDataset::kHull,
                                     DiskDataset::kTripleDisk};

TEST(EngineReference, HighLoadMatchesAcrossSeedsAndDatasets) {
  const MinDisk p;
  const std::size_t n = 512;
  for (const DiskDataset ds : kDatasets) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(workloads::dataset_name(ds)) + " seed " +
                   std::to_string(seed));
      const auto pts = testsupport::make_disk_points(ds, n, 40 + seed);
      core::HighLoadConfig cfg;
      cfg.seed = seed;
      expect_high_load_equal<MinDisk>(p, pts, n, cfg);
    }
  }
}

TEST(EngineReference, HighLoadMatchesUnderFaults) {
  const MinDisk p;
  const std::size_t n = 512;
  const auto pts = testsupport::make_disk_points(DiskDataset::kHull, n, 7);
  for (const FaultCase& fc : fault_cases()) {
    SCOPED_TRACE(fc.name);
    core::HighLoadConfig cfg;
    cfg.seed = 11;
    fc.apply(cfg.faults);
    expect_high_load_equal<MinDisk>(p, pts, n, cfg);
  }
}

TEST(EngineReference, HighLoadMatchesWithCopiesAndTermination) {
  const MinDisk p;
  const std::size_t n = 256;
  const auto pts =
      testsupport::make_disk_points(DiskDataset::kTripleDisk, n, 8);
  core::HighLoadConfig cfg;
  cfg.seed = 12;
  cfg.push_copies = 3;  // the three copies of a push share one slice
  expect_high_load_equal<MinDisk>(p, pts, n, cfg);
  cfg.push_copies = 1;
  cfg.run_termination = true;
  expect_high_load_equal<MinDisk>(p, pts, n, cfg);
}

/// Six leavers a round over rounds 1-8 on n nodes, each back one or two
/// rounds later.
core::ChurnSchedule rejoining_churn(std::size_t n) {
  core::ChurnSchedule churn;
  std::vector<std::size_t> back_at(n, 0);  // round a leaver rejoins
  util::Rng rng(77);
  for (std::size_t round = 1; round <= 8; ++round) {
    for (int k = 0; k < 6; ++k) {
      const auto v = static_cast<gossip::NodeId>(rng.below(n));
      if (back_at[v] > round) continue;  // still away
      back_at[v] = round + 1 + rng.below(2);
      churn.events.push_back({round, v, false});
      churn.events.push_back({back_at[v], v, true});
    }
  }
  churn.sort();
  return churn;
}

TEST(EngineReference, HighLoadMatchesUnderChurnWithRejoins) {
  const MinDisk p;
  const std::size_t n = 256;
  const auto pts = testsupport::make_disk_points(DiskDataset::kTriangle, n, 9);
  // Leavers hand their stores off and sit empty; rejoiners refill through
  // deliveries, possibly to the size they left with — the case a size
  // comparison would miss.
  const core::ChurnSchedule churn = rejoining_churn(n);
  for (const std::uint64_t seed : {5u, 6u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    core::HighLoadConfig cfg;
    cfg.seed = seed;
    cfg.churn = &churn;
    expect_high_load_equal<MinDisk>(p, pts, n, cfg);
  }
}

TEST(EngineReference, HighLoadMatchesOnAProblemWithoutSolveInto) {
  util::Rng rng(9);
  const std::size_t n = 256;
  const auto inst = workloads::generate_lp_instance(2 * n, rng);
  const problems::LinearProgram2D p(inst.objective);
  core::HighLoadConfig cfg;
  cfg.seed = 23;
  expect_high_load_equal<problems::LinearProgram2D>(p, inst.constraints, n,
                                                    cfg);
}

TEST(EngineReference, LowLoadMatchesAcrossSeedsAndDatasets) {
  const MinDisk p;
  const std::size_t n = 512;
  for (const DiskDataset ds : kDatasets) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(workloads::dataset_name(ds)) + " seed " +
                   std::to_string(seed));
      const auto pts = testsupport::make_disk_points(ds, n, 60 + seed);
      core::LowLoadConfig cfg;
      cfg.seed = seed;
      expect_low_load_equal<MinDisk>(p, pts, n, cfg, seed == 1);
    }
  }
}

TEST(EngineReference, LowLoadMatchesUnderFaults) {
  const MinDisk p;
  const std::size_t n = 512;
  const auto pts = testsupport::make_disk_points(DiskDataset::kHull, n, 27);
  for (const FaultCase& fc : fault_cases()) {
    SCOPED_TRACE(fc.name);
    core::LowLoadConfig cfg;
    cfg.seed = 31;
    fc.apply(cfg.faults);
    expect_low_load_equal<MinDisk>(p, pts, n, cfg);
  }
}

TEST(EngineReference, LowLoadMatchesUnderChurnWithRejoins) {
  const MinDisk p;
  const std::size_t n = 256;
  // Fewer elements than nodes: leavers drop out of the pull phase and
  // rejoiners re-enter it, next to nodes that never had an element.
  const auto pts =
      testsupport::make_disk_points(DiskDataset::kTriangle, 3 * n / 4, 29);
  const core::ChurnSchedule churn = rejoining_churn(n);
  for (const std::uint64_t seed : {5u, 6u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    core::LowLoadConfig cfg;
    cfg.seed = seed;
    cfg.churn = &churn;
    cfg.min_rounds = 12;  // keep filtering and delivering past the churn
    expect_low_load_equal<MinDisk>(p, pts, n, cfg);
  }
}

TEST(EngineReference, LowLoadMatchesWithTerminationAndMinRounds) {
  const MinDisk p;
  const std::size_t n = 256;
  const auto pts =
      testsupport::make_disk_points(DiskDataset::kTripleDisk, n, 28);
  core::LowLoadConfig cfg;
  cfg.seed = 32;
  cfg.run_termination = true;
  expect_low_load_equal<MinDisk>(p, pts, n, cfg, true);
  cfg.run_termination = false;
  cfg.min_rounds = 40;  // long-horizon load past the first optimum
  expect_low_load_equal<MinDisk>(p, pts, n, cfg);
  cfg.min_rounds = 0;
  cfg.max_rounds = 2;  // the round cap ends the run before the optimum
  expect_low_load_equal<MinDisk>(p, pts, n, cfg);
}

TEST(EngineReference, LowLoadMatchesWithIdealizedSamplingAndFewElements) {
  const MinDisk p;
  const std::size_t n = 512;
  const auto pts = testsupport::make_disk_points(DiskDataset::kHull, n, 30);
  core::LowLoadConfig cfg;
  cfg.seed = 33;
  cfg.sampling = core::SamplingMode::kIdealized;
  expect_low_load_equal<MinDisk>(p, pts, n, cfg);
  // Fewer elements than nodes: most nodes start in the Section 2.3 pull
  // phase.
  cfg.sampling = core::SamplingMode::kPullBased;
  expect_low_load_equal<MinDisk>(p, std::span(pts).first(100), n, cfg, true);
  // An empty input: the answer is the oracle's, and no round runs.
  expect_low_load_equal<MinDisk>(p, std::span(pts).first(0), n, cfg);
}

TEST(EngineReference, LowLoadMatchesOnAnLp2dProblem) {
  util::Rng rng(19);
  const std::size_t n = 256;
  const auto inst = workloads::generate_lp_instance(2 * n, rng);
  const problems::LinearProgram2D p(inst.objective);
  core::LowLoadConfig cfg;
  cfg.seed = 34;
  expect_low_load_equal<problems::LinearProgram2D>(p, inst.constraints, n,
                                                   cfg);
}

TEST(EngineReference, HittingSetMatchesWithAFixedD) {
  const std::size_t n = 512;
  for (const std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(70 + seed);
    const auto inst = workloads::generate_planted_hitting_set(n, 64, 3, 6, rng);
    const problems::HittingSetProblem p(inst.system);
    core::HittingSetConfig cfg;
    cfg.seed = seed;
    cfg.hitting_set_size = 3;
    expect_hitting_set_equal(p, n, cfg, seed == 1);
  }
}

TEST(EngineReference, HittingSetMatchesUnderFaults) {
  const std::size_t n = 256;
  util::Rng rng(73);
  const auto inst = workloads::generate_planted_hitting_set(n, 48, 3, 6, rng);
  const problems::HittingSetProblem p(inst.system);
  for (const FaultCase& fc : fault_cases()) {
    SCOPED_TRACE(fc.name);
    core::HittingSetConfig cfg;
    cfg.seed = 35;
    cfg.hitting_set_size = 3;
    fc.apply(cfg.faults);
    expect_hitting_set_equal(p, n, cfg);
  }
}

TEST(EngineReference, HittingSetMatchesThroughTheDoublingSearch) {
  const std::size_t n = 512;
  util::Rng rng(74);
  const auto inst = workloads::generate_planted_hitting_set(n, 48, 4, 5, rng);
  const problems::HittingSetProblem p(inst.system);
  core::HittingSetConfig cfg;
  cfg.seed = 36;
  cfg.hitting_set_size = 0;  // doubling search from d = 1
  expect_hitting_set_equal(p, n, cfg);
  // Short stages: d doubles before a stage succeeds.
  cfg.max_rounds = 1;
  EXPECT_GT(expect_hitting_set_equal(p, n, cfg, true).d_used, 1u);
  cfg.max_rounds = 2;
  expect_hitting_set_equal(p, n, cfg);
  // A fixed d whose stage runs out: the run gives up.
  cfg.hitting_set_size = 1;
  cfg.max_rounds = 3;
  expect_hitting_set_equal(p, n, cfg);
}

TEST(EngineReference, EnginesSteppedRoundRobinMatch) {
  // Three driven runs, one round each in turn: every run's rounds have the
  // other two runs' rounds between them, and each result still equals its
  // reference.  Stage A runs inline, on a pool and on shard workers.
  const MinDisk p;
  const std::size_t n = 256;
  const auto pts = testsupport::make_disk_points(DiskDataset::kHull, n, 41);
  util::Rng rng(75);
  const auto inst = workloads::generate_planted_hitting_set(n, 48, 4, 5, rng);
  const problems::HittingSetProblem hs(inst.system);

  core::LowLoadConfig ll_cfg;
  ll_cfg.seed = 42;
  ll_cfg.min_rounds = 30;
  ll_cfg.parallel_nodes = 2;
  core::HighLoadConfig hl_cfg;
  hl_cfg.seed = 43;
  core::HittingSetConfig hs_cfg;
  hs_cfg.seed = 44;
  hs_cfg.max_rounds = 1;  // doubling stages end between the other rounds
  hs_cfg.shard.shards = 2;

  core::LowLoadRun<MinDisk> ll(p, pts, n, ll_cfg);
  core::RoundDriver<core::HighLoadEngine<MinDisk>> hl(p, pts, n, hl_cfg);
  core::RoundDriver<core::HittingSetEngine> hsr(
      hs,
      std::views::iota(0u, static_cast<std::uint32_t>(
                               hs.system().universe_size())),
      n, hs_cfg);
  while (!ll.done() || !hl.done() || !hsr.done()) {
    if (!ll.done()) ll.step();
    if (!hl.done()) hl.step();
    if (!hsr.done()) hsr.step();
  }

  const auto ll_res = ll.finish();
  const auto ll_ref = testsupport::reference_low_load(p, pts, n, ll_cfg);
  EXPECT_TRUE(ll_res.solution == ll_ref.solution);
  expect_stats_equal(ll_res.stats, ll_ref.stats);

  const auto hl_res = hl.finish();
  const auto hl_ref = testsupport::reference_high_load(p, pts, n, hl_cfg);
  EXPECT_TRUE(hl_res.solution == hl_ref.solution);
  expect_stats_equal(hl_res.stats, hl_ref.stats);
  EXPECT_EQ(hl_res.extras.max_local_elements,
            hl_ref.extras.max_local_elements);
  EXPECT_EQ(hl_res.extras.max_single_w, hl_ref.extras.max_single_w);

  const auto hs_res = hsr.finish();
  const auto hs_ref = testsupport::reference_hitting_set(hs, n, hs_cfg);
  EXPECT_EQ(hs_res.hitting_set, hs_ref.hitting_set);
  EXPECT_EQ(hs_res.d_used, hs_ref.d_used);
  EXPECT_GT(hs_res.d_used, 1u);  // the run went through stage ends
  expect_stats_equal(hs_res.stats, hs_ref.stats);
}

TEST(EngineReference, HypercubeMatchesAcrossSeedsAndDatasets) {
  const std::size_t n = 1024;
  for (const DiskDataset ds : kDatasets) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(workloads::dataset_name(ds)) + " seed " +
                   std::to_string(seed));
      const auto pts = testsupport::make_disk_points(ds, n, 50 + seed);
      core::HypercubeClarksonConfig cfg;
      cfg.seed = seed;
      expect_hypercube_equal(pts, n, cfg);
    }
  }
}

TEST(EngineReference, HypercubeMatchesUnderFaults) {
  const std::size_t n = 512;
  const auto pts = testsupport::make_disk_points(DiskDataset::kHull, n, 17);
  for (const FaultCase& fc : fault_cases()) {
    SCOPED_TRACE(fc.name);
    core::HypercubeClarksonConfig cfg;
    cfg.seed = 19;
    fc.apply(cfg.faults);
    expect_hypercube_equal(pts, n, cfg);
  }
}

TEST(EngineReference, HypercubeMatchesAtTheIterationCapAndOnSmallInputs) {
  const auto pts =
      testsupport::make_disk_points(DiskDataset::kTriangle, 256, 18);
  core::HypercubeClarksonConfig cfg;
  cfg.seed = 55;
  cfg.max_iterations = 2;  // not converged: the sequential fallback answer
  expect_hypercube_equal(pts, 256, cfg);
  cfg.max_iterations = 0;
  // n <= 6 d^2: the gather-solve-broadcast short circuit.
  expect_hypercube_equal(std::span(pts).first(20), 64, cfg);
  // More nodes than elements: most nodes stay empty.
  expect_hypercube_equal(std::span(pts).first(200), 1024, cfg);
}

}  // namespace
}  // namespace lpt
