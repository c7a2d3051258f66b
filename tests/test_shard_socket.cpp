// Socket-transport-specific tests: the failure modes a TCP stream adds on
// top of the pipe surface (a peer that connects and then vanishes, a
// half-open stream truncating mid-frame, reconnect-after-kill delivering a
// brand-new stream) and the bootstrap-over-the-wire path every worker
// starts from — a serve handler built from the bootstrap payload alone
// answering like the in-process node loop, bootstrap_worker_loop over a
// real stream fd, and the service layer answering a distributed query over
// loopback TCP bit-identically to the serial engine.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "core/low_load.hpp"
#include "core/result.hpp"
#include "core/stage_a.hpp"
#include "gossip/network.hpp"
#include "problems/min_disk.hpp"
#include "service/service.hpp"
#include "shard/runtime.hpp"
#include "shard/transport.hpp"
#include "shard/wire.hpp"
#include "support/test_support.hpp"
#include "util/rng.hpp"
#include "workloads/disk_data.hpp"

namespace lpt {
namespace {

using problems::MinDisk;
using shard::DownCause;
using shard::RecvResult;
using shard::TransportKind;
using shard::WorkerExit;
using workloads::DiskDataset;

// A connected AF_UNIX stream pair: byte-stream semantics like TCP (partial
// reads, FIN-style EOF on close, EPIPE on write-after-close), without
// needing a listener — the right fixture for endpoint-level stream tests.
struct StreamPair {
  int a = -1;
  int b = -1;
  StreamPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~StreamPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  void close_a() {
    ::close(a);
    a = -1;
  }
};

// ---------------------------------------------------------------------
// SocketEndpoint over a raw stream: framing, timeout, truncation, EPIPE.
// ---------------------------------------------------------------------

TEST(SocketEndpoint, RoundTripsAFrameOverAStreamPair) {
  StreamPair s;
  shard::SocketEndpoint tx(s.a);
  shard::SocketEndpoint rx(s.b);
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(tx.send(payload));
  const RecvResult r = rx.recv_frame(-1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.frame, payload);
  s.a = s.b = -1;  // the endpoints own the fds now
}

TEST(SocketEndpoint, TimesOutOnASilentPeer) {
  StreamPair s;
  shard::SocketEndpoint rx(s.b);
  const RecvResult r = rx.recv_frame(50);
  EXPECT_EQ(r.status, RecvResult::Status::kTimeout);
  s.b = -1;
}

TEST(SocketEndpoint, ReportsCleanEofWhenPeerClosesAtAFrameBoundary) {
  StreamPair s;
  s.close_a();
  shard::SocketEndpoint rx(s.b);
  const RecvResult r = rx.recv_frame(-1);
  EXPECT_EQ(r.status, RecvResult::Status::kDown);
  EXPECT_EQ(r.cause, DownCause::kEof);
  s.b = -1;
}

TEST(SocketEndpoint, ReportsHalfOpenStreamTruncationMidFrame) {
  // The writer announces a 64-byte frame, delivers 10 bytes, and closes:
  // the half-open read side must classify this as a mid-frame truncation,
  // not a clean shutdown.
  StreamPair s;
  const std::uint32_t len = 64;
  ASSERT_EQ(::write(s.a, &len, sizeof len),
            static_cast<ssize_t>(sizeof len));
  const std::uint8_t partial[10] = {};
  ASSERT_EQ(::write(s.a, partial, sizeof partial),
            static_cast<ssize_t>(sizeof partial));
  s.close_a();
  shard::SocketEndpoint rx(s.b);
  const RecvResult r = rx.recv_frame(-1);
  EXPECT_EQ(r.status, RecvResult::Status::kDown);
  EXPECT_EQ(r.cause, DownCause::kTruncated);
  s.b = -1;
}

TEST(SocketEndpoint, SendReturnsFalseOncePeerIsGone) {
  ::signal(SIGPIPE, SIG_IGN);  // normally done by ProcessTransport::spawn
  StreamPair s;
  s.close_a();
  shard::SocketEndpoint tx(s.b);
  const std::vector<std::uint8_t> payload = {9, 9, 9};
  // AF_UNIX reports the closed peer on the first write (TCP may need a
  // round trip first); either way a finite number of sends must fail
  // without aborting.
  bool failed = false;
  for (int i = 0; i < 3 && !failed; ++i) failed = !tx.send(payload);
  EXPECT_TRUE(failed);
  s.b = -1;
}

// ---------------------------------------------------------------------
// SocketTransport process lifecycle: connect-then-vanish, kill, respawn
// over a fresh connection.
// ---------------------------------------------------------------------

void echo_serve(gossip::Decoder& d, gossip::Encoder& e) {
  shard::put_msg_type(e, shard::MsgType::kStageAResult);
  while (!d.exhausted()) e.put_u8(d.get_u8());
}

TEST(SocketTransport, ListensOnAnEphemeralLoopbackPort) {
  shard::SocketTransport t;
  EXPECT_NE(t.port(), 0);
}

TEST(SocketTransport, PeerThatConnectsThenVanishesReadsAsEof) {
  // The worker connects, completes the hello, and exits without ever
  // serving: the coordinator's next recv sees the FIN as a clean EOF and
  // the reaped exit status is the worker's real one.
  shard::SocketTransport t;
  t.spawn(1, [](std::size_t, shard::Endpoint&) { ::_exit(7); });
  const RecvResult r = t.endpoint(0).recv_frame(-1);
  EXPECT_EQ(r.status, RecvResult::Status::kDown);
  EXPECT_EQ(r.cause, DownCause::kEof);
  WorkerExit ex;
  do {  // WNOHANG reap: poll until the child actually died
    ex = t.exit_status(0);
  } while (ex.kind == WorkerExit::Kind::kRunning);
  EXPECT_EQ(ex.kind, WorkerExit::Kind::kExited);
  EXPECT_EQ(ex.value, 7);
  t.expect_down(0);
  t.join();
}

TEST(SocketTransport, RespawnAcceptsAFreshConnectionAfterKill) {
  shard::SocketTransport t;
  t.spawn(2, [](std::size_t, shard::Endpoint& ep) {
    shard::worker_loop(ep, echo_serve);
  });
  gossip::Encoder task;
  shard::put_msg_type(task, shard::MsgType::kStageATask);
  task.put_u8(11);

  // Shard 0 works, dies by SIGKILL, and is respawned over a brand-new
  // accepted connection (respawn-over-reconnect) that serves again.
  ASSERT_TRUE(t.endpoint(0).send(task.bytes()));
  ASSERT_TRUE(t.endpoint(0).recv_frame(-1).ok());
  t.kill_worker(0);
  const WorkerExit ex = t.exit_status(0);
  EXPECT_EQ(ex.kind, WorkerExit::Kind::kSignaled);
  EXPECT_EQ(ex.value, SIGKILL);
  t.respawn(0);
  ASSERT_TRUE(t.endpoint(0).send(task.bytes()));
  const RecvResult r = t.endpoint(0).recv_frame(-1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.frame.back(), 11);

  // Shard 1 was untouched throughout.
  ASSERT_TRUE(t.endpoint(1).send(task.bytes()));
  ASSERT_TRUE(t.endpoint(1).recv_frame(-1).ok());

  gossip::Encoder bye;
  shard::put_msg_type(bye, shard::MsgType::kShutdown);
  EXPECT_TRUE(t.endpoint(0).send(bye.bytes()));
  EXPECT_TRUE(t.endpoint(1).send(bye.bytes()));
  t.join();
}

// ---------------------------------------------------------------------
// Bootstrap over the wire: a serve handler built from the bootstrap
// payload answers like the in-process node loop, and bootstrap_worker_loop
// runs it over a real stream.
// ---------------------------------------------------------------------

TEST(SocketBootstrap, WorkerServeMatchesTheInProcessNodeLoop) {
  // A worker's serve handler, built from nothing but the bootstrap
  // payload, answers a task frame with exactly what the in-process node
  // loop computes over the same round: per node the flags, the advanced
  // RNG state and the payload, then the range's response bytes.
  using Kernel = core::detail::LowLoadKernel<MinDisk>;
  MinDisk p;
  const std::size_t n = 48;
  const auto pts = testsupport::golden_disk_points(DiskDataset::kHull, 96);
  gossip::NodeStore<geom::Vec2> store(n);
  util::Rng place(3);
  for (const geom::Vec2& pt : pts) {
    store.add_original(static_cast<gossip::NodeId>(place.below(n)), pt);
  }
  gossip::FaultModel faults;
  faults.sleep_probability = 0.2;
  faults.response_loss = 0.1;
  gossip::Network net(n, util::Rng(4), faults);
  net.begin_round();
  core::SamplerConfig sampler;
  sampler.target = 54;
  sampler.log_n = 7;
  const MinDisk::Solution oracle = p.solve(pts);
  const Kernel k{p,     oracle, sampler, sampler.pulls_per_node(),
                 false, true,   false};
  const shard::ShardRange range{8, 40};
  std::vector<util::Rng> rng;
  for (std::size_t v = 0; v < n; ++v) rng.push_back(util::Rng(11).child(v));
  auto active = [&](gossip::NodeId v) { return v % 5 != 0 && !net.asleep(v); };

  // In-process: the node loop over the run's own snapshot and streams.
  shard::StoreSnapshot<geom::Vec2> snapshot;
  snapshot.assign(store);
  std::vector<util::Rng> local_rng = rng;
  std::vector<Kernel::Node> local_nodes(n);
  core::detail::LocalNodes<Kernel::Node, decltype(active)> local{
      active, local_rng, local_nodes};
  Kernel::Scratch scratch;
  core::ChunkAcc local_acc;
  core::detail::stage_a_range(k, snapshot, core::pull_round(net), range,
                              local, scratch, local_acc);

  // A worker: a serve handler rebuilt from the bootstrap payload, fed the
  // task frame the coordinator encodes.
  gossip::Encoder payload;
  Kernel::Boot{false, true, sampler, oracle, p}.put(payload);
  gossip::Decoder boot(payload.bytes());
  auto serve = core::detail::make_worker_serve<Kernel>(boot);
  EXPECT_TRUE(boot.exhausted()) << "the factory must consume the payload";
  gossip::Encoder task;
  k.put_round(task);
  task.put_u32(range.begin);
  task.put_u32(range.end);
  std::vector<gossip::NodeId> sleeping;
  core::put_pull_inputs(task, net, store, sleeping);
  for (gossip::NodeId v = range.begin; v < range.end; ++v) {
    task.put_u8(active(v) ? shard::nodeflag::kActive : std::uint8_t{0});
    if (active(v)) shard::put_rng(task, rng[v]);
  }
  gossip::Decoder task_in(task.bytes());
  gossip::Encoder result;
  serve(task_in, result);
  EXPECT_TRUE(task_in.exhausted());

  // The result, decoded as the coordinator decodes it.
  gossip::Decoder d(result.bytes());
  EXPECT_EQ(shard::get_msg_type(d), shard::MsgType::kStageAResult);
  core::ChunkAcc acc;
  std::vector<util::Rng> remote_rng = rng;
  std::vector<Kernel::Node> remote_nodes(n);
  for (gossip::NodeId v = range.begin; v < range.end; ++v) {
    const std::uint8_t flags = d.get_u8();
    EXPECT_EQ((flags & shard::nodeflag::kActive) != 0, active(v)) << v;
    if (flags & shard::nodeflag::kActive) {
      shard::get_rng(d, remote_rng[v]);
      k.get_node(d, flags, remote_nodes[v]);
    }
    acc.add(v, flags);
  }
  acc.response_bytes = d.get_u64();
  EXPECT_TRUE(d.exhausted());

  EXPECT_GT(acc.attempts, 0u);
  EXPECT_FALSE(acc.replay.empty());
  EXPECT_EQ(acc.attempts, local_acc.attempts);
  EXPECT_EQ(acc.failures, local_acc.failures);
  EXPECT_EQ(acc.first, local_acc.first);
  EXPECT_EQ(acc.response_bytes, local_acc.response_bytes);
  EXPECT_EQ(acc.replay, local_acc.replay);
  for (gossip::NodeId v = range.begin; v < range.end; ++v) {
    EXPECT_EQ(remote_rng[v].state(), local_rng[v].state()) << v;
  }
  for (const gossip::NodeId v : acc.replay) {
    EXPECT_EQ(remote_nodes[v].violators, local_nodes[v].violators) << v;
    // run_termination: a node with no violators ships its solution.
    if (local_nodes[v].violators.empty()) {
      EXPECT_EQ(remote_nodes[v].sol, local_nodes[v].sol) << v;
    }
  }
}

TEST(SocketBootstrap, WorkerLoopServesOnlyAfterItsBootstrapFrame) {
  // bootstrap_worker_loop over a real stream fd: the first frame carries
  // the handler's configuration (an echo prefix here), later task frames
  // are served with it, and the shutdown frame ends the loop.
  StreamPair s;
  std::thread worker([fd = s.b] {
    shard::SocketEndpoint ep(fd);
    shard::bootstrap_worker_loop(ep, [](gossip::Decoder& d) {
      const std::uint8_t prefix = d.get_u8();
      return [prefix](gossip::Decoder& task, gossip::Encoder& e) {
        shard::put_msg_type(e, shard::MsgType::kStageAResult);
        e.put_u8(prefix);
        while (!task.exhausted()) e.put_u8(task.get_u8());
      };
    });
  });
  s.b = -1;  // the worker's endpoint owns it now

  shard::SocketEndpoint coord(s.a);
  s.a = -1;
  gossip::Encoder boot;
  shard::put_msg_type(boot, shard::MsgType::kBootstrap);
  boot.put_u8(42);
  ASSERT_TRUE(coord.send(boot.bytes()));

  gossip::Encoder task;
  shard::put_msg_type(task, shard::MsgType::kStageATask);
  task.put_u8(1);
  task.put_u8(2);
  ASSERT_TRUE(coord.send(task.bytes()));
  const RecvResult r = coord.recv_frame(-1);
  ASSERT_TRUE(r.ok());
  gossip::Decoder rd(r.frame);
  EXPECT_EQ(shard::get_msg_type(rd), shard::MsgType::kStageAResult);
  EXPECT_EQ(rd.get_u8(), 42);  // the bootstrap-configured prefix
  EXPECT_EQ(rd.get_u8(), 1);
  EXPECT_EQ(rd.get_u8(), 2);

  gossip::Encoder bye;
  shard::put_msg_type(bye, shard::MsgType::kShutdown);
  ASSERT_TRUE(coord.send(bye.bytes()));
  worker.join();
}

// ---------------------------------------------------------------------
// End to end: the engine and the service over loopback TCP match the
// serial engine bit for bit.
// ---------------------------------------------------------------------

TEST(SocketEndToEnd, LowLoadOverSocketMatchesSerial) {
  MinDisk p;
  const std::size_t n = 192;
  const auto pts = testsupport::golden_disk_points(DiskDataset::kHull, n);
  core::LowLoadConfig base;
  base.seed = 21;
  const auto serial = core::run_low_load(p, pts, n, base);

  core::LowLoadConfig cfg = base;
  cfg.shard.shards = 3;
  cfg.shard.transport = TransportKind::kSocket;
  const auto res = core::run_low_load(p, pts, n, cfg);
  EXPECT_EQ(serial.solution, res.solution);
  EXPECT_EQ(serial.stats.rounds_to_first, res.stats.rounds_to_first);
  EXPECT_EQ(serial.stats.total_bytes, res.stats.total_bytes);
  EXPECT_EQ(serial.stats.sampling_attempts, res.stats.sampling_attempts);
}

TEST(SocketEndToEnd, ServiceAnswersDistributedQueryOverSocket) {
  service::ServiceConfig cfg;
  cfg.direct_cutoff = 32;
  cfg.distributed_nodes = 64;
  cfg.engine.shard.shards = 2;
  cfg.engine.shard.transport = TransportKind::kSocket;
  service::LptService svc(cfg);

  const auto pts = testsupport::golden_disk_points(DiskDataset::kHull, 64);
  service::QueryRequest q = svc.acquire_request();
  q.id = 4;
  q.kind = service::QueryKind::kMinDisk;
  q.seed = 5;
  q.points.assign(pts.begin(), pts.end());
  const std::vector<geom::Vec2> kept = q.points;  // before the move
  core::LowLoadConfig ref_cfg = svc.engine_config_for(q);
  ref_cfg.shard = {};  // the serial reference

  std::vector<service::QueryResponse> out;
  svc.submit(std::move(q));
  while (svc.pending() > 0) svc.run_epoch(out);  // one round per epoch
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 4u);
  EXPECT_EQ(out[0].status, service::QueryStatus::kOk);
  EXPECT_EQ(out[0].engine, service::EngineUsed::kDistributed);

  const auto ref = core::run_low_load(
      MinDisk{}, std::span<const geom::Vec2>(kept), cfg.distributed_nodes,
      ref_cfg);
  EXPECT_EQ(out[0].disk, ref.solution);
  EXPECT_EQ(out[0].rounds,
            static_cast<std::uint32_t>(ref.stats.rounds_to_first));
}

}  // namespace
}  // namespace lpt
