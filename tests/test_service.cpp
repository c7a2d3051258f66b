// Query-service tests: schema wire round-trips, admission batching by
// kind, size dispatch (direct short-circuit vs distributed engine), edge
// payloads (empty, singleton, duplicates), the unsupported-kind path, the
// in-flight distributed run (direct queries served between its rounds,
// one run at a time), and the headline contract — every served solution
// is bit-identical to the corresponding engine run (MinDisk::solve for
// direct, run_low_load under engine_config_for for distributed), for every
// worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/low_load.hpp"
#include "problems/linear_program2d.hpp"
#include "problems/min_disk.hpp"
#include "service/query.hpp"
#include "service/service.hpp"
#include "shard/wire.hpp"
#include "support/test_support.hpp"
#include "workloads/disk_data.hpp"
#include "workloads/lp_data.hpp"

namespace lpt {
namespace {

using service::EngineUsed;
using service::LptService;
using service::QueryKind;
using service::QueryRequest;
using service::QueryResponse;
using service::QueryStatus;
using service::ServiceConfig;
using workloads::DiskDataset;

ServiceConfig small_test_config() {
  ServiceConfig cfg;
  cfg.direct_cutoff = 128;    // small enough to exercise both paths cheaply
  cfg.distributed_nodes = 32;
  return cfg;
}

QueryRequest disk_query(std::uint64_t id, std::vector<geom::Vec2> pts) {
  QueryRequest q;
  q.id = id;
  q.kind = QueryKind::kMinDisk;
  q.seed = 5;
  q.points = std::move(pts);
  return q;
}

std::vector<QueryResponse> serve_all(LptService& svc) {
  std::vector<QueryResponse> out;
  while (svc.pending() > 0) svc.run_epoch(out);
  return out;
}

bool answered(const std::vector<QueryResponse>& out, std::uint64_t id) {
  return std::any_of(out.begin(), out.end(),
                     [&](const QueryResponse& r) { return r.id == id; });
}

const QueryResponse& response_for(const std::vector<QueryResponse>& out,
                                  std::uint64_t id) {
  const auto it = std::find_if(out.begin(), out.end(),
                               [&](const QueryResponse& r) { return r.id == id; });
  EXPECT_NE(it, out.end()) << "no response for id " << id;
  return it != out.end() ? *it : out.front();
}

std::size_t position_of(const std::vector<QueryResponse>& out,
                        std::uint64_t id) {
  return static_cast<std::size_t>(
      std::find_if(out.begin(), out.end(),
                   [&](const QueryResponse& r) { return r.id == id; }) -
      out.begin());
}

// ---------------------------------------------------------------------
// Wire schema.
// ---------------------------------------------------------------------

TEST(ServiceWire, RequestBatchRoundTripsBitIdentically) {
  std::vector<QueryRequest> batch;
  batch.push_back(disk_query(1, testsupport::golden_disk_points(
                                    DiskDataset::kDuoDisk, 16)));
  QueryRequest lp;
  lp.id = 2;
  lp.kind = QueryKind::kLp2d;
  lp.seed = 9;
  lp.planes = {{{1.0, 0.0}, 4.0}, {{-1.0, 0.5}, 2.0}};
  lp.objective = {0.25, -1.0};
  batch.push_back(lp);
  batch.push_back(disk_query(3, {}));  // empty payload must survive

  gossip::Encoder e;
  shard::put_seq(e, std::span<const QueryRequest>(batch));
  gossip::Decoder d(e.bytes());
  std::vector<QueryRequest> got;
  shard::get_seq(d, got);
  EXPECT_TRUE(d.exhausted());
  ASSERT_EQ(got.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(got[i], batch[i]) << "request " << i;
  }
}

TEST(ServiceWire, ResponseBatchRoundTripsBitIdentically) {
  LptService svc(small_test_config());
  svc.submit(disk_query(7, testsupport::golden_disk_points(
                               DiskDataset::kTripleDisk, 64)));
  svc.submit(disk_query(8, {}));
  const auto served = serve_all(svc);
  ASSERT_EQ(served.size(), 2u);

  gossip::Encoder e;
  shard::put_seq(e, std::span<const QueryResponse>(served));
  gossip::Decoder d(e.bytes());
  std::vector<QueryResponse> got;
  shard::get_seq(d, got);
  EXPECT_TRUE(d.exhausted());
  ASSERT_EQ(got.size(), served.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(got[i], served[i]) << "response " << i;
  }
}

// ---------------------------------------------------------------------
// Edge payloads through the direct path.
// ---------------------------------------------------------------------

TEST(Service, EmptyPointSetYieldsEmptyDisk) {
  LptService svc(small_test_config());
  svc.submit(disk_query(1, {}));
  const auto served = serve_all(svc);
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].status, QueryStatus::kOk);
  EXPECT_EQ(served[0].engine, EngineUsed::kDirect);
  EXPECT_TRUE(served[0].disk.basis.empty());
  EXPECT_TRUE(served[0].disk.disk.empty());
}

TEST(Service, SingletonAndDuplicatePointsSolveCanonically) {
  LptService svc(small_test_config());
  svc.submit(disk_query(1, {{2.0, -3.0}}));
  svc.submit(disk_query(2, std::vector<geom::Vec2>(17, {1.0, 1.0})));
  const auto served = serve_all(svc);
  ASSERT_EQ(served.size(), 2u);

  EXPECT_EQ(served[0].disk.basis.size(), 1u);
  EXPECT_EQ(served[0].disk.disk.center, (geom::Vec2{2.0, -3.0}));
  EXPECT_EQ(served[0].disk.disk.radius, 0.0);

  // 17 copies of one point: the canonical basis dedupes to that point.
  EXPECT_EQ(served[1].disk.basis.size(), 1u);
  EXPECT_EQ(served[1].disk.disk.center, (geom::Vec2{1.0, 1.0}));
  EXPECT_EQ(served[1].disk.disk.radius, 0.0);
}

// ---------------------------------------------------------------------
// Dispatch and admission.
// ---------------------------------------------------------------------

TEST(Service, SizeDispatchRoutesAcrossTheCutoff) {
  LptService svc(small_test_config());
  const auto small = testsupport::golden_disk_points(DiskDataset::kHull, 100);
  const auto large =
      testsupport::golden_disk_points(DiskDataset::kDuoDisk, 300);
  svc.submit(disk_query(1, small));
  svc.submit(disk_query(2, large));
  svc.submit(disk_query(3, small));
  const auto served = serve_all(svc);
  ASSERT_EQ(served.size(), 3u);
  EXPECT_EQ(response_for(served, 1).engine, EngineUsed::kDirect);
  EXPECT_EQ(response_for(served, 2).engine, EngineUsed::kDistributed);
  EXPECT_EQ(response_for(served, 3).engine, EngineUsed::kDirect);
  EXPECT_GT(response_for(served, 2).rounds, 0u);
  EXPECT_EQ(svc.stats().direct_solves, 2u);
  EXPECT_EQ(svc.stats().distributed_solves, 1u);
}

TEST(Service, EpochsBatchByKindPreservingArrivalOrder) {
  LptService svc(small_test_config());
  const auto pts = testsupport::golden_disk_points(DiskDataset::kTriangle, 20);
  QueryRequest lp;
  lp.kind = QueryKind::kLp2d;
  lp.id = 2;
  lp.planes = {{{0.0, 1.0}, 5.0}};
  svc.submit(disk_query(1, pts));
  svc.submit(std::move(lp));
  svc.submit(disk_query(3, pts));

  // Epoch 1 admits the min-disk queries (ids 1 and 3, arrival order); the
  // LP query waits despite arriving between them.
  std::vector<QueryResponse> out;
  EXPECT_EQ(svc.run_epoch(out), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 1u);
  EXPECT_EQ(out[0].kind, QueryKind::kMinDisk);
  EXPECT_EQ(out[1].id, 3u);
  EXPECT_EQ(svc.pending(), 1u);

  EXPECT_EQ(svc.run_epoch(out), 1u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2].id, 2u);
  EXPECT_EQ(out[2].kind, QueryKind::kLp2d);
  EXPECT_EQ(svc.pending(), 0u);
  EXPECT_EQ(svc.stats().epochs, 2u);
}

TEST(Service, MaxBatchBoundsOneEpoch) {
  ServiceConfig cfg = small_test_config();
  cfg.max_batch = 2;
  LptService svc(cfg);
  const auto pts = testsupport::golden_disk_points(DiskDataset::kHull, 10);
  for (std::uint64_t id = 0; id < 5; ++id) svc.submit(disk_query(id, pts));
  std::vector<QueryResponse> out;
  EXPECT_EQ(svc.run_epoch(out), 2u);
  EXPECT_EQ(svc.pending(), 3u);
  EXPECT_EQ(svc.run_epoch(out), 2u);
  EXPECT_EQ(svc.run_epoch(out), 1u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].id, i);
}

TEST(Service, UnsupportedKindsAnswerWithoutSolving) {
  LptService svc(small_test_config());
  QueryRequest q;
  q.id = 11;
  q.kind = QueryKind::kMinBall;
  svc.submit(std::move(q));
  QueryRequest h;
  h.id = 12;
  h.kind = QueryKind::kHittingSet;
  svc.submit(std::move(h));
  const auto served = serve_all(svc);
  ASSERT_EQ(served.size(), 2u);
  for (const auto& r : served) {
    EXPECT_EQ(r.status, QueryStatus::kUnsupported);
    EXPECT_EQ(r.engine, EngineUsed::kNone);
  }
  EXPECT_EQ(svc.stats().unsupported, 2u);
}

// ---------------------------------------------------------------------
// Bit-identity: served == the corresponding engine run.
// ---------------------------------------------------------------------

TEST(Service, DirectServedDiskIsBitIdenticalToMinDiskSolve) {
  LptService svc(small_test_config());
  const problems::MinDisk p;
  for (const auto dataset :
       {DiskDataset::kDuoDisk, DiskDataset::kTriangle, DiskDataset::kHull}) {
    const auto pts = testsupport::golden_disk_points(dataset, 90);
    svc.submit(disk_query(1 + static_cast<std::uint64_t>(dataset), pts));
    const auto served = serve_all(svc);
    ASSERT_EQ(served.size(), 1u);
    EXPECT_EQ(served[0].engine, EngineUsed::kDirect);
    EXPECT_EQ(served[0].disk, p.solve(pts));  // bit-identical, not near
  }
}

TEST(Service, DistributedServedDiskIsBitIdenticalToEngineRun) {
  LptService svc(small_test_config());
  const auto pts =
      testsupport::golden_disk_points(DiskDataset::kTripleDisk, 400);
  const auto q = disk_query(21, pts);
  const auto engine_cfg = svc.engine_config_for(q);
  svc.submit(QueryRequest(q));
  const auto served = serve_all(svc);
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].engine, EngineUsed::kDistributed);

  const problems::MinDisk p;
  const auto engine = core::run_low_load(p, std::span<const geom::Vec2>(pts),
                                         32, engine_cfg);
  EXPECT_TRUE(engine.stats.reached_optimum);
  EXPECT_EQ(served[0].disk, engine.solution);
  EXPECT_EQ(served[0].rounds, engine.stats.rounds_to_first);
}

TEST(Service, PerQuerySeedsDecorrelateEqualPayloads) {
  LptService svc(small_test_config());
  const auto pts = testsupport::golden_disk_points(DiskDataset::kHull, 200);
  const auto a = svc.engine_config_for(disk_query(1, pts));
  const auto b = svc.engine_config_for(disk_query(2, pts));
  EXPECT_NE(a.seed, b.seed);  // same payload, different ids → fresh streams
}

TEST(Service, ResponsesBitIdenticalForEveryWorkerCount) {
  const auto small = testsupport::golden_disk_points(DiskDataset::kHull, 80);
  const auto large =
      testsupport::golden_disk_points(DiskDataset::kDuoDisk, 260);
  std::vector<QueryResponse> baseline;
  for (const std::size_t workers : {1u, 2u, 3u}) {
    ServiceConfig cfg = small_test_config();
    cfg.workers = workers;
    LptService svc(cfg);
    for (std::uint64_t id = 0; id < 6; ++id) {
      svc.submit(disk_query(id, id % 3 == 0 ? large : small));
    }
    auto served = serve_all(svc);
    ASSERT_EQ(served.size(), 6u);
    for (auto& r : served) r.solve_nanos = 0;  // timing is not part of it
    if (workers == 1) {
      baseline = std::move(served);
    } else {
      EXPECT_EQ(served, baseline) << "workers=" << workers;
    }
  }
}

// ---------------------------------------------------------------------
// The in-flight distributed run: direct queries between its rounds.
// ---------------------------------------------------------------------

TEST(Service, DirectQueriesAreAnsweredBetweenTheRoundsOfARun) {
  LptService svc(small_test_config());
  const problems::MinDisk p;
  const auto large =
      testsupport::golden_disk_points(DiskDataset::kTripleDisk, 1000);
  const auto small = testsupport::golden_disk_points(DiskDataset::kHull, 60);
  const auto q = disk_query(1, large);
  const auto engine = core::run_low_load(p, std::span<const geom::Vec2>(large),
                                         32, svc.engine_config_for(q));
  ASSERT_GE(engine.stats.rounds_to_first, 3u);  // enough rounds to overtake

  const std::size_t rounds = engine.stats.rounds_to_first;
  std::vector<QueryResponse> out;
  std::uint64_t run_answered_at = 0;  // the epoch that answered query 1
  auto epoch = [&] {
    const std::size_t n = svc.run_epoch(out);
    if (run_answered_at == 0 && answered(out, 1)) {
      run_answered_at = svc.stats().epochs;
    }
    return n;
  };
  svc.submit(QueryRequest(q));
  EXPECT_EQ(epoch(), 0u);  // starts the run: its set-up only

  // Submitted while the run is in flight, a direct query is answered in
  // the next epoch, ahead of the run's response.
  svc.submit(disk_query(2, small));
  EXPECT_EQ(epoch(), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 2u);
  EXPECT_EQ(svc.pending(), 1u);  // the run

  // At any point of the run, the only pending direct query is answered
  // within two epochs: at most one round stands in front of it.  Direct
  // queries keep coming, yet the run still ends within 2R + 1 epochs.
  std::uint64_t id = 3;
  for (; run_answered_at == 0; ++id) {
    ASSERT_LT(id, 3 + 4 * rounds) << "the run is starved by direct queries";
    svc.submit(disk_query(id, small));
    epoch();
    if (!answered(out, id)) epoch();
    ASSERT_TRUE(answered(out, id)) << "query " << id << " waited > 2 epochs";
  }
  EXPECT_LE(run_answered_at, 2 * rounds + 1);
  EXPECT_GE(id - 3, rounds - 1);  // direct queries went between the rounds
  while (svc.pending() > 0) epoch();

  for (const QueryResponse& r : out) {
    EXPECT_EQ(r.status, QueryStatus::kOk);
    if (r.id == 1) continue;
    EXPECT_EQ(r.engine, EngineUsed::kDirect);
    EXPECT_EQ(r.disk, p.solve(small));
  }
  const QueryResponse& dist = response_for(out, 1);
  EXPECT_EQ(dist.engine, EngineUsed::kDistributed);
  EXPECT_EQ(dist.disk, engine.solution);
  EXPECT_EQ(dist.rounds, engine.stats.rounds_to_first);
  EXPECT_EQ(svc.stats().distributed_solves, 1u);
  EXPECT_EQ(svc.stats().distributed_rounds, engine.stats.rounds_to_first);
}

TEST(Service, PendingCountsTheInFlightRunAndIdleEpochsStepIt) {
  LptService svc(small_test_config());
  const auto large =
      testsupport::golden_disk_points(DiskDataset::kTripleDisk, 1000);
  const auto q = disk_query(4, large);
  const auto engine =
      core::run_low_load(problems::MinDisk{}, std::span<const geom::Vec2>(large),
                         32, svc.engine_config_for(q));
  ASSERT_GE(engine.stats.rounds_to_first, 2u);

  std::vector<QueryResponse> out;
  svc.submit(QueryRequest(q));
  EXPECT_EQ(svc.pending(), 1u);
  EXPECT_EQ(svc.run_epoch(out), 0u);  // set-up
  EXPECT_EQ(svc.pending(), 1u);       // the queue is empty; the run is not

  // With nothing queued, each epoch advances the run by one round and
  // answers nothing until the last.
  for (std::size_t round = 1; round < engine.stats.rounds_to_first; ++round) {
    EXPECT_EQ(svc.run_epoch(out), 0u) << "round " << round;
    EXPECT_EQ(svc.pending(), 1u) << "round " << round;
  }
  EXPECT_EQ(svc.run_epoch(out), 1u);
  EXPECT_EQ(svc.pending(), 0u);
  EXPECT_EQ(svc.run_epoch(out), 0u);  // idle
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].disk, engine.solution);
  EXPECT_EQ(out[0].rounds, engine.stats.rounds_to_first);
  EXPECT_GT(out[0].solve_nanos, 0u);
  EXPECT_EQ(svc.stats().epochs, 1 + engine.stats.rounds_to_first);
}

TEST(Service, ASecondDistributedQueryWaitsWhileDirectOnesAreServed) {
  LptService svc(small_test_config());
  const problems::MinDisk p;
  const auto large_a =
      testsupport::golden_disk_points(DiskDataset::kTripleDisk, 1000);
  const auto large_b =
      testsupport::golden_disk_points(DiskDataset::kDuoDisk, 300);
  const auto small = testsupport::golden_disk_points(DiskDataset::kHull, 40);
  const auto qa = disk_query(1, large_a);
  const auto qb = disk_query(2, large_b);
  const auto engine_a = core::run_low_load(
      p, std::span<const geom::Vec2>(large_a), 32, svc.engine_config_for(qa));
  const auto engine_b = core::run_low_load(
      p, std::span<const geom::Vec2>(large_b), 32, svc.engine_config_for(qb));
  ASSERT_GE(engine_a.stats.rounds_to_first, 3u);

  std::vector<QueryResponse> out;
  svc.submit(QueryRequest(qa));
  svc.submit(QueryRequest(qb));
  svc.submit(disk_query(3, small));
  // One epoch admits query 1 (the run starts) and query 3; query 2 is
  // queued behind the run without holding query 3 back.
  EXPECT_EQ(svc.run_epoch(out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 3u);
  EXPECT_EQ(svc.pending(), 2u);

  std::uint64_t id = 4;
  for (; !answered(out, 1); ++id) {
    ASSERT_LT(id, 4 + 4 * engine_a.stats.rounds_to_first)
        << "the run is starved by direct queries";
    EXPECT_FALSE(answered(out, 2));
    svc.submit(disk_query(id, small));
    svc.run_epoch(out);
    if (!answered(out, id)) svc.run_epoch(out);
    EXPECT_TRUE(answered(out, id)) << "query " << id;
  }
  EXPECT_FALSE(answered(out, 2));
  while (svc.pending() > 0) svc.run_epoch(out);

  EXPECT_LT(position_of(out, 1), position_of(out, 2));
  EXPECT_EQ(response_for(out, 1).disk, engine_a.solution);
  EXPECT_EQ(response_for(out, 1).rounds, engine_a.stats.rounds_to_first);
  EXPECT_EQ(response_for(out, 2).disk, engine_b.solution);
  EXPECT_EQ(response_for(out, 2).rounds, engine_b.stats.rounds_to_first);
  EXPECT_EQ(svc.stats().distributed_solves, 2u);
  EXPECT_EQ(svc.stats().direct_solves, id - 3);
}

TEST(Service, DistributedLpInterleavesBitIdentically) {
  LptService svc(small_test_config());
  auto rng = testsupport::seeded_rng("service-lp2d-interleaved");
  const auto large_inst = workloads::generate_lp_instance(300, rng);
  const auto small_inst = workloads::generate_lp_instance(40, rng);
  QueryRequest ql;
  ql.id = 1;
  ql.kind = QueryKind::kLp2d;
  ql.seed = 3;
  ql.planes = large_inst.constraints;
  ql.objective = large_inst.objective;
  const auto engine_cfg = svc.engine_config_for(ql);

  std::vector<QueryResponse> out;
  svc.submit(std::move(ql));
  for (std::uint64_t id = 2; svc.pending() > 0; ++id) {
    if (id < 40) {
      QueryRequest qs;
      qs.id = id;
      qs.kind = id % 2 ? QueryKind::kLp2d : QueryKind::kMinDisk;
      qs.planes = small_inst.constraints;
      qs.objective = small_inst.objective;
      qs.points = testsupport::golden_disk_points(DiskDataset::kHull, 30);
      svc.submit(std::move(qs));
    }
    svc.run_epoch(out);
  }

  const problems::LinearProgram2D p(large_inst.objective);
  const auto engine = core::run_low_load(
      p, std::span<const lp::Halfplane>(large_inst.constraints), 32,
      engine_cfg);
  ASSERT_GE(engine.stats.rounds_to_first, 2u);
  const QueryResponse& dist = response_for(out, 1);
  EXPECT_GT(position_of(out, 1), 1u);  // direct answers went first
  EXPECT_EQ(dist.engine, EngineUsed::kDistributed);
  EXPECT_EQ(dist.lp, engine.solution);
  EXPECT_EQ(dist.rounds, engine.stats.rounds_to_first);
  const problems::LinearProgram2D small_p(small_inst.objective);
  for (const QueryResponse& r : out) {
    if (r.id == 1 || r.kind != QueryKind::kLp2d) continue;
    EXPECT_EQ(r.engine, EngineUsed::kDirect);
    EXPECT_EQ(r.lp, small_p.solve(std::span<const lp::Halfplane>(
                        small_inst.constraints)));
  }
}

// ---------------------------------------------------------------------
// 2D LP queries.
// ---------------------------------------------------------------------

TEST(Service, Lp2dQueriesServeOnBothPaths) {
  ServiceConfig cfg = small_test_config();
  LptService svc(cfg);
  auto rng = testsupport::seeded_rng("service-lp2d");
  const auto small_inst = workloads::generate_lp_instance(60, rng);
  const auto large_inst = workloads::generate_lp_instance(300, rng);
  const geom::Vec2 objective = small_inst.objective;
  const auto& small = small_inst.constraints;
  const auto& large = large_inst.constraints;

  QueryRequest qs;
  qs.id = 1;
  qs.kind = QueryKind::kLp2d;
  qs.seed = 3;
  qs.planes = small;
  qs.objective = objective;
  QueryRequest ql = qs;
  ql.id = 2;
  ql.planes = large;
  const auto engine_cfg = svc.engine_config_for(ql);
  svc.submit(std::move(qs));
  svc.submit(std::move(ql));
  const auto served = serve_all(svc);
  ASSERT_EQ(served.size(), 2u);

  const problems::LinearProgram2D p(objective);
  EXPECT_EQ(served[0].engine, EngineUsed::kDirect);
  EXPECT_EQ(served[0].lp, p.solve(std::span<const lp::Halfplane>(small)));

  EXPECT_EQ(served[1].engine, EngineUsed::kDistributed);
  const auto engine = core::run_low_load(
      p, std::span<const lp::Halfplane>(large), 32, engine_cfg);
  EXPECT_TRUE(engine.stats.reached_optimum);
  EXPECT_EQ(served[1].lp, engine.solution);
}

// ---------------------------------------------------------------------
// Slot recycling.
// ---------------------------------------------------------------------

TEST(Service, RecycledSlotsKeepServingCorrectly) {
  LptService svc(small_test_config());
  const problems::MinDisk p;
  std::vector<QueryResponse> out;
  for (int cycle = 0; cycle < 4; ++cycle) {
    const auto pts = testsupport::make_disk_points(
        DiskDataset::kTriangle, 50, 100 + static_cast<std::uint64_t>(cycle));
    auto q = svc.acquire_request();
    q.id = static_cast<std::uint64_t>(cycle);
    q.points.assign(pts.begin(), pts.end());
    svc.submit(std::move(q));
    EXPECT_EQ(svc.run_epoch(out), 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].disk, p.solve(pts)) << "cycle " << cycle;
    svc.recycle_response(std::move(out[0]));
    out.clear();
  }
  EXPECT_EQ(svc.stats().served, 4u);
  EXPECT_EQ(svc.stats().arena_resets, 4u);
}

}  // namespace
}  // namespace lpt
