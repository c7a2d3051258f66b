// Fault-tolerance tests for the shard runtime: structured failure
// detection at the transport layer (timeouts, EOF, truncation, oversized
// prefixes, EPIPE, waitpid causes), deterministic recovery in the harness
// (respawn and reassign both bit-identical to fault-free runs — the
// headline acceptance criterion), policy-exhaustion escalation as
// ShardError, and the service layer answering kTransientFailure while it
// keeps serving.  Faults are injected through FaultyTransport (which kills
// the real forked child / closes the real lane — nothing simulated above
// the transport) and through the harness's own kill_worker hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/hitting_set.hpp"
#include "core/low_load.hpp"
#include "core/result.hpp"
#include "problems/min_disk.hpp"
#include "service/service.hpp"
#include "shard/fault.hpp"
#include "shard/plan.hpp"
#include "shard/runtime.hpp"
#include "shard/transport.hpp"
#include "shard/wire.hpp"
#include "support/test_support.hpp"
#include "util/rng.hpp"
#include "workloads/disk_data.hpp"
#include "workloads/hs_data.hpp"

namespace lpt {
namespace {

using problems::MinDisk;
using shard::DownCause;
using shard::FaultEvent;
using shard::FaultOp;
using shard::FaultScript;
using shard::RecoveryMode;
using shard::RecoveryPolicy;
using shard::RecvResult;
using shard::ShardError;
using shard::TransportKind;
using shard::WorkerExit;
using workloads::DiskDataset;

// ---------------------------------------------------------------------
// Transport-level detection: every stream failure is data, not an abort.
// ---------------------------------------------------------------------

TEST(ShardRecvFrame, PipeTimesOutWhenNoFrameArrives) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  shard::PipeEndpoint ep(fds[0], fds[1]);  // writer open: no EOF possible
  const RecvResult r = ep.recv_frame(50);
  EXPECT_EQ(r.status, RecvResult::Status::kTimeout);
}

TEST(ShardRecvFrame, PipeReportsCleanEofAsDown) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[1]);
  shard::PipeEndpoint ep(fds[0], -1);
  const RecvResult r = ep.recv_frame(-1);
  EXPECT_EQ(r.status, RecvResult::Status::kDown);
  EXPECT_EQ(r.cause, DownCause::kEof);
}

TEST(ShardRecvFrame, PipeReportsMidFrameTruncationAsDown) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::uint32_t len = 100;
  ASSERT_EQ(::write(fds[1], &len, sizeof len),
            static_cast<ssize_t>(sizeof len));
  const std::uint8_t partial[10] = {};
  ASSERT_EQ(::write(fds[1], partial, sizeof partial),
            static_cast<ssize_t>(sizeof partial));
  ::close(fds[1]);  // EOF arrives mid-frame
  shard::PipeEndpoint ep(fds[0], -1);
  const RecvResult r = ep.recv_frame(-1);
  EXPECT_EQ(r.status, RecvResult::Status::kDown);
  EXPECT_EQ(r.cause, DownCause::kTruncated);
}

TEST(ShardRecvFrame, PipeReportsOversizedPrefixAsDown) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::uint32_t huge = shard::kMaxFrameBytes + 1;
  ASSERT_EQ(::write(fds[1], &huge, sizeof huge),
            static_cast<ssize_t>(sizeof huge));
  shard::PipeEndpoint ep(fds[0], fds[1]);
  const RecvResult r = ep.recv_frame(-1);
  EXPECT_EQ(r.status, RecvResult::Status::kDown);
  EXPECT_EQ(r.cause, DownCause::kOversized);
}

TEST(ShardRecvFrame, PipeSendReturnsFalseOnEpipe) {
  ::signal(SIGPIPE, SIG_IGN);  // normally done by PipeTransport::spawn
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);  // the peer's read end is gone
  shard::PipeEndpoint ep(-1, fds[1]);
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  EXPECT_FALSE(ep.send(payload));
}

TEST(ShardRecvFrame, SubMillisecondDeadlineStillDeliversArrivedFrame) {
  // A frame already sitting in the pipe must be delivered even when the
  // remaining budget is under one millisecond: the deadline arithmetic
  // rounds the poll budget UP, so a sub-ms remainder polls once (and the
  // data is ready, so that poll returns immediately) instead of being
  // truncated to 0 ms and misreported as a timeout.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::uint8_t payload[4] = {9, 8, 7, 6};
  ASSERT_EQ(::write(fds[1], payload, sizeof payload),
            static_cast<ssize_t>(sizeof payload));
  std::uint8_t got[4] = {};
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(400);
  const auto st = shard::detail::read_all_deadline(
      fds[0], got, sizeof got, /*has_deadline=*/true, deadline);
  EXPECT_EQ(st, shard::detail::ReadStatus::kOk);
  EXPECT_EQ(got[0], 9);
  EXPECT_EQ(got[3], 6);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ShardRecvFrame, ExpiredDeadlineWithNoDataTimesOut) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::uint8_t got[4] = {};
  const auto deadline = std::chrono::steady_clock::now() -
                        std::chrono::milliseconds(1);
  const auto st = shard::detail::read_all_deadline(
      fds[0], got, sizeof got, /*has_deadline=*/true, deadline);
  EXPECT_EQ(st, shard::detail::ReadStatus::kTimeout);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ShardRecvFrame, FrameQueueTimesOutThenReportsEofWhenClosed) {
  shard::detail::FrameQueue q;
  EXPECT_EQ(q.pop(50).status, RecvResult::Status::kTimeout);
  q.push({7});
  const RecvResult r = q.pop(-1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.frame, std::vector<std::uint8_t>{7});
  q.close();
  EXPECT_EQ(q.pop(-1).status, RecvResult::Status::kDown);
  EXPECT_EQ(q.pop(-1).cause, DownCause::kEof);
}

// ---------------------------------------------------------------------
// Respawn backoff arithmetic: the delay doubles per attempt but must
// saturate instead of shifting into undefined behaviour at attempt >= 32.
// ---------------------------------------------------------------------

TEST(ShardRecoveryPolicy, RespawnBackoffDoublesThenSaturates) {
  RecoveryPolicy p;
  p.backoff_base_ms = 3;
  p.max_backoff_ms = 10'000;
  EXPECT_EQ(shard::respawn_backoff_ms(p, 0), 3u);
  EXPECT_EQ(shard::respawn_backoff_ms(p, 1), 6u);
  EXPECT_EQ(shard::respawn_backoff_ms(p, 10), 3072u);
  // 3 << 12 = 12288 crosses the cap mid-range.
  EXPECT_EQ(shard::respawn_backoff_ms(p, 12), 10'000u);
  // Attempt >= 32 would be UB as a u32 shift: saturates at the cap.
  EXPECT_EQ(shard::respawn_backoff_ms(p, 32), 10'000u);
  EXPECT_EQ(shard::respawn_backoff_ms(p, 40), 10'000u);
  EXPECT_EQ(shard::respawn_backoff_ms(p, 1000), 10'000u);
}

TEST(ShardRecoveryPolicy, RespawnBackoffZeroBaseMeansNoDelayEver) {
  RecoveryPolicy p;
  p.backoff_base_ms = 0;
  EXPECT_EQ(shard::respawn_backoff_ms(p, 0), 0u);
  EXPECT_EQ(shard::respawn_backoff_ms(p, 31), 0u);
  EXPECT_EQ(shard::respawn_backoff_ms(p, 64), 0u);
}

TEST(ShardRecoveryPolicy, RespawnBackoffRespectsCustomCap) {
  RecoveryPolicy p;
  p.backoff_base_ms = 1;
  p.max_backoff_ms = 7;
  EXPECT_EQ(shard::respawn_backoff_ms(p, 0), 1u);
  EXPECT_EQ(shard::respawn_backoff_ms(p, 2), 4u);
  EXPECT_EQ(shard::respawn_backoff_ms(p, 3), 7u);
  EXPECT_EQ(shard::respawn_backoff_ms(p, 50), 7u);
}

// ---------------------------------------------------------------------
// Worker exit causes: waitpid status is recorded, not silently lost.
// ---------------------------------------------------------------------

// Serve handler that echoes the task payload back as the result payload.
void echo_serve(gossip::Decoder& d, gossip::Encoder& e) {
  shard::put_msg_type(e, shard::MsgType::kStageAResult);
  while (!d.exhausted()) e.put_u8(d.get_u8());
}

TEST(ShardWorkerExit, PipeRecordsSigkillCause) {
  shard::PipeTransport t;
  t.spawn(1, [](std::size_t, shard::Endpoint& ep) {
    shard::worker_loop(ep, echo_serve);
  });
  EXPECT_EQ(t.exit_status(0).kind, WorkerExit::Kind::kRunning);
  t.kill_worker(0);
  const WorkerExit ex = t.exit_status(0);
  EXPECT_EQ(ex.kind, WorkerExit::Kind::kSignaled);
  EXPECT_EQ(ex.value, SIGKILL);
  t.join();  // the kill was expected: no abort
}

TEST(ShardWorkerExit, PipeRecordsNonzeroExitCode) {
  shard::PipeTransport t;
  t.spawn(1, [](std::size_t, shard::Endpoint&) { ::_exit(3); });
  WorkerExit ex;
  do {  // WNOHANG reap: poll until the child actually died
    ex = t.exit_status(0);
  } while (ex.kind == WorkerExit::Kind::kRunning);
  EXPECT_EQ(ex.kind, WorkerExit::Kind::kExited);
  EXPECT_EQ(ex.value, 3);
  t.expect_down(0);  // handled here: teardown must not abort
  t.join();
}

TEST(ShardWorkerExitDeathTest, UnhandledAbnormalExitStillAbortsAtJoin) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        shard::PipeTransport t;
        t.spawn(1, [](std::size_t, shard::Endpoint&) { ::_exit(3); });
        t.join();  // nobody called expect_down: must die loudly
      },
      "exited abnormally");
}

TEST(ShardWorkerExit, InProcKillReportsSignaledAnalogue) {
  shard::InProcTransport t;
  t.spawn(2, [](std::size_t, shard::Endpoint& ep) {
    shard::worker_loop(ep, echo_serve);
  });
  t.kill_worker(1);
  const WorkerExit ex = t.exit_status(1);
  EXPECT_EQ(ex.kind, WorkerExit::Kind::kSignaled);
  EXPECT_EQ(ex.value, SIGKILL);
  // Shard 0 is still alive and must keep serving.
  gossip::Encoder task;
  shard::put_msg_type(task, shard::MsgType::kStageATask);
  task.put_u8(42);
  EXPECT_TRUE(t.endpoint(0).send(task.bytes()));
  const RecvResult r = t.endpoint(0).recv_frame(-1);
  ASSERT_TRUE(r.ok());
  gossip::Encoder bye;
  shard::put_msg_type(bye, shard::MsgType::kShutdown);
  EXPECT_TRUE(t.endpoint(0).send(bye.bytes()));
  EXPECT_FALSE(t.endpoint(1).send(bye.bytes()));  // dead lane: EPIPE analogue
  t.join();
}

// ---------------------------------------------------------------------
// Harness-level recovery with the kill_worker hook (a real SIGKILL for
// pipes): the next round detects the death at send time and recovers.
// ---------------------------------------------------------------------

void triple_serve(gossip::Decoder& d, gossip::Encoder& e) {
  const std::uint32_t begin = d.get_u32();
  const std::uint32_t end = d.get_u32();
  shard::put_msg_type(e, shard::MsgType::kStageAResult);
  for (std::uint32_t v = begin; v < end; ++v) e.put_u32(v * 3 + 1);
}

void run_harness_rounds_with_kill(TransportKind kind) {
  const std::size_t n = 64;
  shard::ShardConfig cfg;
  cfg.shards = 4;
  cfg.transport = kind;
  cfg.max_frame_nodes = 8;  // 2 sub-frames per shard per round
  // An empty bootstrap payload: the serve handler needs no run state.
  shard::ShardHarness h(n, cfg, {},
                        [](gossip::Decoder&) { return &triple_serve; });
  for (int round = 0; round < 3; ++round) {
    if (round == 1) h.kill_worker(2);  // real SIGKILL between rounds
    std::vector<std::uint32_t> out(n, 0);
    h.round(
        [](const shard::ShardRange r, gossip::Encoder& e) {
          e.put_u32(r.begin);
          e.put_u32(r.end);
        },
        [&](std::size_t, const shard::ShardRange r, gossip::Decoder& d) {
          for (std::uint32_t v = r.begin; v < r.end; ++v) {
            out[v] = d.get_u32();
          }
        });
    for (std::uint32_t v = 0; v < n; ++v) {
      ASSERT_EQ(out[v], v * 3 + 1) << "round " << round << " node " << v;
    }
  }
  EXPECT_GE(h.recovery_stats().workers_lost, 1u);
  EXPECT_GE(h.recovery_stats().respawns, 1u);
  EXPECT_EQ(h.recovery_stats().last_down_shard, 2u);
  if (kind != TransportKind::kInProc) {
    // Both process transports reap the real SIGKILLed child.
    EXPECT_EQ(h.recovery_stats().last_down_exit.kind,
              WorkerExit::Kind::kSignaled);
    EXPECT_EQ(h.recovery_stats().last_down_exit.value, SIGKILL);
  }
}

TEST(ShardHarnessRecovery, KillHookRecoversOverPipe) {
  run_harness_rounds_with_kill(TransportKind::kPipe);
}

TEST(ShardHarnessRecovery, KillHookRecoversInProc) {
  run_harness_rounds_with_kill(TransportKind::kInProc);
}

TEST(ShardHarnessRecovery, KillHookRecoversOverSocket) {
  // Respawn-over-reconnect: the replacement worker dials a brand-new
  // loopback connection and is re-sent the bootstrap frame, and the rounds
  // after the kill still produce identical output.
  run_harness_rounds_with_kill(TransportKind::kSocket);
}

// ---------------------------------------------------------------------
// The acceptance criterion: engine runs under injected faults are
// bit-identical — solution, rounds, every DistributedRunStats counter —
// to the fault-free serial run.
// ---------------------------------------------------------------------

void expect_stats_equal(const core::DistributedRunStats& a,
                        const core::DistributedRunStats& b,
                        const std::string& what) {
  EXPECT_EQ(a.rounds_to_first, b.rounds_to_first) << what;
  EXPECT_EQ(a.rounds_to_all_output, b.rounds_to_all_output) << what;
  EXPECT_EQ(a.reached_optimum, b.reached_optimum) << what;
  EXPECT_EQ(a.all_outputs_correct, b.all_outputs_correct) << what;
  EXPECT_EQ(a.max_work_per_round, b.max_work_per_round) << what;
  EXPECT_EQ(a.total_push_ops, b.total_push_ops) << what;
  EXPECT_EQ(a.total_pull_ops, b.total_pull_ops) << what;
  EXPECT_EQ(a.total_bytes, b.total_bytes) << what;
  EXPECT_EQ(a.initial_total_elements, b.initial_total_elements) << what;
  EXPECT_EQ(a.max_total_elements, b.max_total_elements) << what;
  EXPECT_EQ(a.final_total_elements, b.final_total_elements) << what;
  EXPECT_EQ(a.sampling_attempts, b.sampling_attempts) << what;
  EXPECT_EQ(a.sampling_failures, b.sampling_failures) << what;
  EXPECT_EQ(a.bookkeeping_touches_total, b.bookkeeping_touches_total) << what;
  EXPECT_EQ(a.last_round_bookkeeping_touches,
            b.last_round_bookkeeping_touches)
      << what;
}

std::string transport_name(TransportKind t) {
  switch (t) {
    case TransportKind::kInProc: return "inproc";
    case TransportKind::kPipe: return "pipe";
    case TransportKind::kSocket: return "socket";
  }
  return "?";
}

// Every fault script below runs over all three transports.
const TransportKind kTransports[] = {TransportKind::kInProc,
                                     TransportKind::kPipe,
                                     TransportKind::kSocket};

TEST(ShardFaultScript, CountsTaskFramesOnlyOnEveryTransport) {
  // at_frame counts task frames: the bootstrap send every worker gets
  // first does not use up at_frame 0, and the first task send does.  A
  // kill reaps synchronously, so the exit status reads right after it.
  for (const auto kind : kTransports) {
    const std::string what = transport_name(kind);
    shard::FaultyTransport t(shard::make_transport(kind),
                             {{0, FaultOp::kKillWorker, 0}});
    t.spawn(1, [](std::size_t, shard::Endpoint& ep) {
      shard::bootstrap_worker_loop(
          ep, [](gossip::Decoder&) { return &echo_serve; });
    });
    gossip::Encoder boot;
    shard::put_msg_type(boot, shard::MsgType::kBootstrap);
    EXPECT_TRUE(t.endpoint(0).send(boot.bytes())) << what;
    EXPECT_EQ(t.exit_status(0).kind, WorkerExit::Kind::kRunning) << what;
    gossip::Encoder task;
    shard::put_msg_type(task, shard::MsgType::kStageATask);
    task.put_u8(1);
    (void)t.endpoint(0).send(task.bytes());  // at_frame 0: the kill fires
    const WorkerExit ex = t.exit_status(0);
    EXPECT_EQ(ex.kind, WorkerExit::Kind::kSignaled) << what;
    EXPECT_EQ(ex.value, SIGKILL) << what;
    t.join();  // the scripted kill is an expected death
  }
}

/// Run low-load with the given faults and compare bit-for-bit against the
/// fault-free serial run (same seed, same dataset).
void check_faulted_low_load(const FaultScript& script,
                            const RecoveryPolicy& policy, std::size_t shards,
                            TransportKind transport, const std::string& what,
                            std::size_t max_frame_nodes = 0) {
  MinDisk p;
  const std::size_t n = 256;
  const auto pts = testsupport::golden_disk_points(DiskDataset::kHull, n);
  core::LowLoadConfig base;
  base.seed = 33;
  const auto serial = core::run_low_load(p, pts, n, base);

  core::LowLoadConfig cfg = base;
  cfg.shard.shards = shards;
  cfg.shard.transport = transport;
  if (max_frame_nodes != 0) cfg.shard.max_frame_nodes = max_frame_nodes;
  cfg.shard.recovery = policy;
  cfg.shard.fault_script = script;
  const auto res = core::run_low_load(p, pts, n, cfg);
  EXPECT_EQ(serial.solution, res.solution) << what;
  expect_stats_equal(serial.stats, res.stats, what);
}

TEST(ShardedLowLoadRecovery, KillEachShardAtRoundBoundary) {
  // at_frame 0: the very first task this lane ever sees — a worker dying
  // on round one, at a round boundary.
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const auto transport : kTransports) {
      for (std::size_t victim = 0; victim < shards; ++victim) {
        check_faulted_low_load(
            {{victim, FaultOp::kKillWorker, 0}}, RecoveryPolicy{}, shards,
            transport,
            "kill shard " + std::to_string(victim) + "/" +
                std::to_string(shards) + " at frame 0 over " +
                transport_name(transport));
      }
    }
  }
}

TEST(ShardedLowLoadRecovery, KillEachShardMidRound) {
  // Tiny sub-frames force several frames per shard per round, so frame 3
  // lands mid-round: the harness loses one in-flight sub-frame with others
  // already applied, and must replay only what was lost.
  for (const std::size_t shards : {2u, 4u}) {
    for (const auto transport : kTransports) {
      for (std::size_t victim = 0; victim < shards; ++victim) {
        check_faulted_low_load(
            {{victim, FaultOp::kKillWorker, 3}}, RecoveryPolicy{}, shards,
            transport,
            "kill shard " + std::to_string(victim) + "/" +
                std::to_string(shards) + " at frame 3 over " +
                transport_name(transport),
            /*max_frame_nodes=*/16);
      }
    }
  }
}

TEST(ShardedLowLoadRecovery, RepeatedKillsWithinBudgetRecover) {
  // Two kills on the same shard: exactly the default respawn budget.
  for (const auto transport : kTransports) {
    check_faulted_low_load(
        {{0, FaultOp::kKillWorker, 1}, {0, FaultOp::kKillWorker, 4}},
        RecoveryPolicy{}, 2, transport,
        "two kills on shard 0 over " + transport_name(transport));
  }
}

TEST(ShardedLowLoadRecovery, DroppedResultRecoversViaTimeout) {
  RecoveryPolicy policy;
  policy.recv_timeout_ms = 300;  // the drop is only detectable by deadline
  for (const auto transport : kTransports) {
    check_faulted_low_load({{1, FaultOp::kDropResult, 0}}, policy, 2,
                           transport,
                           "drop result over " + transport_name(transport));
  }
}

TEST(ShardedLowLoadRecovery, TruncatedResultRecovers) {
  for (const auto transport : kTransports) {
    check_faulted_low_load(
        {{1, FaultOp::kTruncateResult, 2}}, RecoveryPolicy{}, 2, transport,
        "truncate result over " + transport_name(transport));
  }
}

TEST(ShardedLowLoadRecovery, CorruptResultRecovers) {
  for (const auto transport : kTransports) {
    check_faulted_low_load(
        {{0, FaultOp::kCorruptResult, 1}}, RecoveryPolicy{}, 2, transport,
        "corrupt result over " + transport_name(transport));
  }
}

TEST(ShardedLowLoadRecovery, DelayedResultIsHarmless) {
  for (const auto transport : kTransports) {
    check_faulted_low_load(
        {{0, FaultOp::kDelayResult, 0, 50}}, RecoveryPolicy{}, 2, transport,
        "delayed result over " + transport_name(transport));
  }
}

TEST(ShardedLowLoadRecovery, ReassignFoldsDeadShardIntoSurvivors) {
  RecoveryPolicy policy;
  policy.mode = RecoveryMode::kReassign;
  for (const auto transport : kTransports) {
    check_faulted_low_load(
        {{1, FaultOp::kKillWorker, 0}}, policy, 4, transport,
        "reassign one death over " + transport_name(transport),
        /*max_frame_nodes=*/32);
    check_faulted_low_load(
        {{1, FaultOp::kKillWorker, 0}, {3, FaultOp::kKillWorker, 5}}, policy,
        4, transport,
        "reassign two deaths over " + transport_name(transport),
        /*max_frame_nodes=*/32);
  }
}

TEST(ShardedHittingSetRecovery, KillMidRunBitIdentical) {
  util::Rng data_rng(19);
  const auto inst =
      workloads::generate_planted_hitting_set(256, 64, 2, 2, data_rng);
  problems::HittingSetProblem p(inst.system);
  core::HittingSetConfig base;
  base.seed = 77;
  base.hitting_set_size = 2;
  const auto serial = core::run_hitting_set(p, 256, base);
  ASSERT_TRUE(serial.valid);
  for (const auto transport : kTransports) {
    core::HittingSetConfig cfg = base;
    cfg.shard.shards = 2;
    cfg.shard.transport = transport;
    cfg.shard.fault_script = {{1, FaultOp::kKillWorker, 1}};
    const auto res = core::run_hitting_set(p, 256, cfg);
    const std::string what =
        "hitting set kill over " + transport_name(transport);
    EXPECT_EQ(serial.hitting_set, res.hitting_set) << what;
    EXPECT_EQ(serial.valid, res.valid) << what;
    EXPECT_EQ(serial.d_used, res.d_used) << what;
    EXPECT_EQ(serial.sample_size, res.sample_size) << what;
    expect_stats_equal(serial.stats, res.stats, what);
  }
}

// ---------------------------------------------------------------------
// Policy exhaustion and escalation.
// ---------------------------------------------------------------------

void run_faulted_low_load(const FaultScript& script,
                          const RecoveryPolicy& policy,
                          TransportKind transport) {
  MinDisk p;
  const std::size_t n = 128;
  const auto pts = testsupport::golden_disk_points(DiskDataset::kHull, n);
  core::LowLoadConfig cfg;
  cfg.seed = 33;
  cfg.shard.shards = 2;
  // 8 sub-frames per shard per round: every scripted death (and its
  // detection) lands inside round 1's sends in every interleaving, so
  // escalation can never slip past the round loop into shutdown.
  cfg.shard.max_frame_nodes = 8;
  cfg.shard.transport = transport;
  cfg.shard.recovery = policy;
  cfg.shard.fault_script = script;
  (void)core::run_low_load(p, pts, n, cfg);
}

TEST(ShardedLowLoadRecovery, RespawnBudgetExhaustionEscalates) {
  // Three kills against a budget of two: the third death must escalate.
  // The kills are spaced 3 lane frames apart because a killed worker can
  // race its result into the stream and only be detected on the *next*
  // send (frame f+1, a failed send that still advances the lane counter),
  // with the respawned worker live from frame f+2 — so a kill at f+3 hits
  // a live worker in every interleaving, never an undetected corpse.
  const FaultScript script = {{0, FaultOp::kKillWorker, 0},
                              {0, FaultOp::kKillWorker, 3},
                              {0, FaultOp::kKillWorker, 6}};
  for (const auto transport : kTransports) {
    try {
      run_faulted_low_load(script, RecoveryPolicy{}, transport);
      FAIL() << "expected ShardError over " << transport_name(transport);
    } catch (const ShardError& e) {
      EXPECT_EQ(e.shard(), 0u);
      EXPECT_NE(std::string(e.what()).find("respawn budget"),
                std::string::npos);
    }
  }
}

TEST(ShardedLowLoadRecovery, FailFastEscalatesOnFirstDeath) {
  RecoveryPolicy policy;
  policy.mode = RecoveryMode::kFailFast;
  for (const auto transport : kTransports) {
    EXPECT_THROW(
        run_faulted_low_load({{1, FaultOp::kKillWorker, 0}}, policy,
                             transport),
        ShardError);
  }
}

TEST(ShardedLowLoadRecovery, ReassignWithNoSurvivorsEscalates) {
  RecoveryPolicy policy;
  policy.mode = RecoveryMode::kReassign;
  // Both workers die: nobody is left to fold the frames into.
  const FaultScript script = {{0, FaultOp::kKillWorker, 0},
                              {1, FaultOp::kKillWorker, 0}};
  for (const auto transport : kTransports) {
    EXPECT_THROW(run_faulted_low_load(script, policy, transport),
                 ShardError);
  }
}

// ---------------------------------------------------------------------
// Service layer: a lost solve answers kTransientFailure; the server
// keeps serving subsequent epochs; within-budget deaths are invisible.
// ---------------------------------------------------------------------

service::QueryRequest make_disk_query(service::LptService& svc,
                                      std::uint64_t id, std::size_t points) {
  const auto pts = testsupport::golden_disk_points(DiskDataset::kHull,
                                                   std::max<std::size_t>(
                                                       points, 8));
  service::QueryRequest q = svc.acquire_request();
  q.id = id;
  q.kind = service::QueryKind::kMinDisk;
  q.seed = 5;
  q.points.assign(pts.begin(), pts.begin() + points);
  return q;
}

TEST(ServiceRecovery, TransientFailureKeepsServing) {
  service::ServiceConfig cfg;
  cfg.direct_cutoff = 32;
  cfg.distributed_nodes = 64;
  cfg.engine.shard.shards = 2;
  cfg.engine.shard.transport = TransportKind::kInProc;
  cfg.engine.shard.recovery.max_respawns_per_shard = 0;  // no budget at all
  // Several sub-frames per lane per round: even if the killed worker races
  // its frame-0 result into the stream, the next send on its lane (still
  // round 1) detects the death — otherwise a kill landing on the run's
  // final round could go unobserved and the query would (correctly, but
  // not what this test wants) succeed.
  cfg.engine.shard.max_frame_nodes = 8;
  cfg.engine.shard.fault_script = {{0, FaultOp::kKillWorker, 0}};
  service::LptService svc(cfg);
  std::vector<service::QueryResponse> out;
  // A distributed run spans several epochs: drain each step and find the
  // answer by id.
  auto serve = [&](std::uint64_t id) -> const service::QueryResponse& {
    while (svc.pending() > 0) svc.run_epoch(out);
    const auto it = std::find_if(
        out.begin(), out.end(),
        [&](const service::QueryResponse& r) { return r.id == id; });
    EXPECT_NE(it, out.end()) << "no response for id " << id;
    return it != out.end() ? *it : out.front();
  };

  // First: a distributed-size query loses its worker and fails softly.
  svc.submit(make_disk_query(svc, 1, 64));
  const service::QueryResponse& r1 = serve(1);
  EXPECT_EQ(r1.status, service::QueryStatus::kTransientFailure);
  EXPECT_EQ(r1.engine, service::EngineUsed::kNone);
  EXPECT_EQ(r1.rounds, 0u);

  // Then: a small query takes the direct path — the server is fine.
  svc.submit(make_disk_query(svc, 2, 16));
  const service::QueryResponse& r2 = serve(2);
  EXPECT_EQ(r2.status, service::QueryStatus::kOk);
  EXPECT_EQ(r2.engine, service::EngineUsed::kDirect);

  // Then distributed again (a fresh harness, a fresh scripted kill).
  svc.submit(make_disk_query(svc, 3, 64));
  EXPECT_EQ(serve(3).status, service::QueryStatus::kTransientFailure);

  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(svc.stats().transient_failures, 2u);
  EXPECT_EQ(svc.stats().served, 3u);
}

TEST(ServiceRecovery, RespawnBudgetAbsorbsDeathInvisibly) {
  service::ServiceConfig cfg;
  cfg.direct_cutoff = 32;
  cfg.distributed_nodes = 64;
  cfg.engine.shard.shards = 2;
  cfg.engine.shard.transport = TransportKind::kPipe;
  cfg.engine.shard.fault_script = {{1, FaultOp::kKillWorker, 0}};
  service::LptService svc(cfg);
  std::vector<service::QueryResponse> out;

  service::QueryRequest q = make_disk_query(svc, 9, 64);
  const std::vector<geom::Vec2> pts = q.points;  // before the move
  core::LowLoadConfig ref_cfg = svc.engine_config_for(q);
  ref_cfg.shard = {};  // the fault-free serial reference

  svc.submit(std::move(q));
  while (svc.pending() > 0) svc.run_epoch(out);  // one round per epoch
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 9u);
  EXPECT_EQ(out[0].status, service::QueryStatus::kOk);
  EXPECT_EQ(out[0].engine, service::EngineUsed::kDistributed);
  EXPECT_EQ(svc.stats().transient_failures, 0u);

  // The recovered solve is bit-identical to the fault-free serial run.
  const auto ref = core::run_low_load(
      MinDisk{}, std::span<const geom::Vec2>(pts), cfg.distributed_nodes,
      ref_cfg);
  EXPECT_EQ(out[0].disk, ref.solution);
  EXPECT_EQ(out[0].rounds,
            static_cast<std::uint32_t>(ref.stats.rounds_to_first));
}

// The new wire status round-trips.
TEST(ServiceRecovery, TransientFailureStatusRoundTripsOnTheWire) {
  service::QueryResponse r;
  r.id = 12;
  r.kind = service::QueryKind::kMinDisk;
  r.status = service::QueryStatus::kTransientFailure;
  r.engine = service::EngineUsed::kNone;
  gossip::Encoder e;
  wire_put(e, r);
  gossip::Decoder d(e.bytes());
  service::QueryResponse r2;
  wire_get(d, r2);
  EXPECT_TRUE(d.exhausted());
  EXPECT_EQ(r2.status, service::QueryStatus::kTransientFailure);
  EXPECT_EQ(r2.id, 12u);
}

}  // namespace
}  // namespace lpt
