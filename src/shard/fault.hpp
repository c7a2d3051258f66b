// Scripted fault injection for the shard runtime.
//
// FaultyTransport decorates any real Transport with a deterministic,
// scripted schedule of failures so tests and benches exercise the genuine
// failure paths — a kKillWorker event SIGKILLs the real forked child (or
// closes the real in-process lane), so the coordinator sees the same EPIPE
// / EOF / partial-frame sequence a production death produces; nothing is
// simulated above the transport it wraps.
//
// Events are keyed by per-shard frame counters: `at_frame` counts the task
// frames sent to (ops on the send side) or the result frames received from
// (ops on the recv side) that shard's lane since the run started, 0-based
// and monotone across respawns — so "kill shard 2 after 5 frames" lands at
// the same simulated-round boundary every run, on every transport.  The
// bootstrap frame every (re)spawned worker receives and the shutdown frame
// are not task frames: they neither advance the send counter nor fire an
// event.  Each event fires exactly once.
//
// Ops and the detection path they exercise:
//
//   * kKillWorker    — after forwarding task frame #at, SIGKILL the worker.
//                      Depending on how far the worker got, the coordinator
//                      sees a complete result then EPIPE next round, a clean
//                      EOF, or a mid-frame truncation — recovery must be
//                      bit-identical in every interleaving, which is exactly
//                      what the tests assert.
//   * kDropResult    — swallow result frame #at.  The coordinator's recv
//                      deadline expires (requires recv_timeout_ms > 0) and
//                      the hung-worker path (kill + respawn + replay) runs.
//   * kTruncateResult— consume result frame #at, kill the worker, and
//                      report the structured mid-frame truncation a worker
//                      dying inside a write produces.
//   * kCorruptResult — flip the message-type byte of result frame #at; the
//                      harness's frame validation rejects it as kCorrupt.
//   * kDelayResult   — sleep delay_ms before receiving result frame #at: a
//                      straggling delivery.  The frame still arrives (the
//                      recv deadline starts after the sleep), pinning that
//                      pure latency never affects results; use kDropResult
//                      for the hung-worker / deadline-expiry path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "shard/transport.hpp"

namespace lpt::shard {

enum class FaultOp : std::uint8_t {
  kKillWorker = 0,
  kDropResult,
  kTruncateResult,
  kCorruptResult,
  kDelayResult,
};

/// One scripted failure.  `shard` and `at_frame` select the lane and the
/// 0-based per-lane frame index (sends for kKillWorker, recvs otherwise).
struct FaultEvent {
  std::size_t shard = 0;
  FaultOp op = FaultOp::kKillWorker;
  std::size_t at_frame = 0;
  std::uint32_t delay_ms = 0;  // kDelayResult only
};

/// A deterministic failure schedule; empty means no injection.
using FaultScript = std::vector<FaultEvent>;

/// Decorator: the wrapped transport's workers, streams, and lifecycle —
/// plus the scripted failures above.  All Transport methods delegate;
/// endpoint(s) returns a counting/injecting view of the inner endpoint.
class FaultyTransport final : public Transport {
 public:
  FaultyTransport(std::unique_ptr<Transport> inner, FaultScript script);
  ~FaultyTransport() override;

  void spawn(std::size_t shards, WorkerFn worker) override;
  Endpoint& endpoint(std::size_t shard) override;
  void kill_worker(std::size_t shard) override;
  void respawn(std::size_t shard) override;
  WorkerExit exit_status(std::size_t shard) override;
  void expect_down(std::size_t shard) override;
  void join() override;

 private:
  class FaultyEndpoint;

  /// The unconsumed event for (shard, op side, counter), if any.
  FaultEvent* match(std::size_t shard, bool send_side, std::size_t frame);

  std::unique_ptr<Transport> inner_;
  FaultScript script_;
  std::vector<std::uint8_t> consumed_;  // per script event
  std::vector<std::unique_ptr<FaultyEndpoint>> endpoints_;
};

}  // namespace lpt::shard
