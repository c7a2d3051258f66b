// The shard runtime: a coordinator/worker harness for the engines'
// stage-A/stage-B split across process (or thread) boundaries.
//
// ## What is sharded, and why it stays bit-identical
//
// The sampling engines (core/low_load.hpp, core/hitting_set.hpp) execute
// one simulated round as stage A (embarrassingly parallel per-node compute
// on private RNG streams) followed by stage B (every shared-state side
// effect, replayed serially in ascending node order).  The shard runtime
// moves stage A into per-shard workers (core/stage_a.hpp is the engines'
// side of it):
//
//   0. every worker, on every transport, starts from a bootstrap frame: the
//      run-static problem description (the problem instance and the
//      engine's constants), re-sent to every respawned replacement — so no
//      worker depends on memory inherited at fork time;
//   1. the coordinator owns the whole simulation state (network, store,
//      channels) and remains the only writer of shared state;
//   2. per round it ships each worker a stage-A task frame with the
//      round's read-only pull inputs (a store snapshot) and the worker's
//      shard of per-node inputs (flags, RNG states; shard/wire.hpp);
//   3. each worker computes stage A for its contiguous node range and
//      answers with its stage-B candidate list in ascending node order,
//      plus payloads and advanced per-node RNG states;
//   4. the coordinator applies results *in frame-index order semantics*:
//      apply_result only fills frame-indexed slots, and stage B later walks
//      frames in index order.  Frames are contiguous and ascending
//      (shard/plan.hpp), so the concatenated candidate stream is exactly
//      the ascending node order of a serial full scan — the identical
//      util::parallel_chunks contract that makes `parallel_nodes`
//      bit-identical, now across process boundaries.
//
// Solutions, round counts, and every DistributedRunStats counter are
// therefore bit-identical to the serial and parallel_nodes paths for any
// shard count and every transport; tests/test_shard.cpp pins this.
//
// ## Failure model (why recovery preserves bit-identity)
//
// A worker may die (or hang, or babble garbage) at any point.  The
// coordinator survives it because of three standing facts:
//
//   * the coordinator's state is mutated only by apply_result — encoding a
//     task frame reads coordinator state but never advances it, so the
//     exact task bytes can be retained and re-shipped;
//   * task frames carry *all* worker-visible dynamic state, including the
//     per-node RNG snapshots (shard/wire.hpp round-trips util::RngState
//     exactly), so a fresh replacement worker given the same bytes
//     produces the same result bytes;
//   * results land in frame-indexed slots and are merged in frame-index
//     order, so *when* a frame's result arrives — and *which* worker
//     served it — cannot affect the merge.
//
// Hence: detect the death (shard/transport.hpp surfaces every stream
// failure as data), requeue the lost frame's retained bytes, serve them on
// a respawned replacement (RecoveryMode::kRespawn) or fold them into the
// survivors (kReassign, via the ShardAssignment view in shard/plan.hpp) —
// and the run's outputs are bit-identical to a fault-free run.
//
// ## Round-trip schedule
//
// round() keeps a per-worker FIFO of pending sub-frames with at most ONE
// frame in flight per worker: a worker blocked writing a large result can
// never deadlock against a coordinator blocked writing its next task (pipe
// buffers are small).  Workers still compute concurrently — every idle
// worker is topped up before any receive happens.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "gossip/codec.hpp"
#include "obs/obs.hpp"
#include "shard/fault.hpp"
#include "shard/plan.hpp"
#include "shard/transport.hpp"
#include "shard/wire.hpp"
#include "util/assert.hpp"

namespace lpt::shard {

/// What the harness does when a worker goes down.
enum class RecoveryMode : std::uint8_t {
  kRespawn = 0,  // start a replacement worker, replay the lost frame
  kReassign,     // fold the dead shard's frames into surviving workers
  kFailFast,     // escalate immediately as ShardError (PR-5 behaviour,
                 // minus the abort: the caller chooses what dies)
};

const char* recovery_mode_name(RecoveryMode mode);

/// Bounds and knobs for the recovery machinery.
struct RecoveryPolicy {
  RecoveryMode mode = RecoveryMode::kRespawn;
  std::size_t max_respawns_per_shard = 2;  // then escalate as ShardError
  int recv_timeout_ms = -1;   // per-frame recv deadline; -1 blocks forever
                              // (EPIPE/EOF — actual deaths — are still
                              // detected; only hung-but-alive workers need
                              // a finite deadline)
  std::uint32_t backoff_base_ms = 0;  // respawn backoff: base << attempt,
                                      // saturated at max_backoff_ms (0:
                                      // retry immediately — the right
                                      // default for local forks)
  std::uint32_t max_backoff_ms = 10'000;  // cap on one backoff sleep; also
                                          // the saturation value once the
                                          // doubling would overflow
};

/// Backoff before the (attempt+1)-th respawn of one shard: base << attempt,
/// saturated.  A plain shift is UB once attempt reaches the bit width — a
/// caller raising max_respawns_per_shard past 31 with a nonzero base would
/// hit it — so both the exponent and the resulting delay are capped.
inline std::uint32_t respawn_backoff_ms(const RecoveryPolicy& p,
                                        std::size_t attempt) {
  if (p.backoff_base_ms == 0) return 0;
  if (attempt >= 32) return p.max_backoff_ms;  // shift would be UB: saturate
  const std::uint64_t raw = static_cast<std::uint64_t>(p.backoff_base_ms)
                            << attempt;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(raw, p.max_backoff_ms));
}

/// A worker failure the policy could not (or was told not to) absorb.
/// Thrown by ShardHarness::round; engine runs propagate it to the caller,
/// and the service layer maps it to QueryStatus::kTransientFailure.
class ShardError : public std::runtime_error {
 public:
  ShardError(std::size_t shard, DownCause cause, const std::string& what_arg)
      : std::runtime_error(what_arg), shard_(shard), cause_(cause) {}

  std::size_t shard() const noexcept { return shard_; }
  DownCause cause() const noexcept { return cause_; }

 private:
  std::size_t shard_;
  DownCause cause_;
};

/// Observability counters for the recovery machinery (never part of the
/// determinism contract — DistributedRunStats stays bit-identical; these
/// describe the *transport* weather, not the simulation).
struct ShardRecoveryStats {
  std::size_t workers_lost = 0;       // structured down events handled
  std::size_t respawns = 0;           // replacement workers started
  std::size_t frames_resent = 0;      // in-flight frames requeued + replayed
  std::size_t frames_reassigned = 0;  // frames folded into survivors
  std::size_t last_down_shard = 0;
  DownCause last_down_cause = DownCause::kEof;
  WorkerExit last_down_exit;  // how the dead worker actually ended
};

/// Engine-facing knob: how to shard a run.  Lives alongside
/// `parallel_nodes` in the engine configs; `shards >= 1` routes the
/// stage-A compute through the shard runtime (1 = one worker, useful for
/// exercising the wire path and measuring pure runtime overhead), and 0
/// keeps the in-process paths.  Sharding — including recovery and fault
/// injection — does not participate in the determinism contract: results
/// are bit-identical for every value.
struct ShardConfig {
  std::size_t shards = 0;  // 0: disabled; >= 1: worker count
  TransportKind transport = TransportKind::kInProc;
  std::size_t max_frame_nodes = 8192;  // cap on nodes per task/result frame:
                                       // a shard's round splits into
                                       // ceil(range / cap) sub-frames, so
                                       // frame bytes stay bounded by
                                       // per-node state, not by n (a 2^20
                                       // node range in one frame would blow
                                       // kMaxFrameBytes).  0 = one frame
                                       // per shard.  Like the transport,
                                       // this never affects results.
  RecoveryPolicy recovery;
  FaultScript fault_script;  // non-empty: wrap the transport in a
                             // FaultyTransport running this schedule
  ShardRecoveryStats* recovery_out = nullptr;  // non-null: the engine copies
                                               // the harness's recovery
                                               // counters here before it
                                               // returns (observability only;
                                               // never part of determinism)

  bool enabled() const noexcept { return shards >= 1; }
};

/// Worker serve loop: block for frames, dispatch task frames to
/// `serve(decoder, encoder)`, stop on the shutdown frame.  `serve` decodes
/// one task payload (message type already consumed) and encodes the
/// complete result payload including its leading message type.  A stream
/// that goes down (any DownCause) or a failed send means the coordinator is
/// gone, or has given up on this worker: exit quietly — the coordinator's
/// recovery owns the narrative.
template <typename Serve>
void worker_loop(Endpoint& ep, Serve&& serve) {
  for (;;) {
    const RecvResult r = ep.recv_frame(-1);
    if (!r.ok()) return;
    gossip::Decoder d(r.frame);
    const MsgType type = get_msg_type(d);
    if (type == MsgType::kShutdown) return;
    LPT_CHECK_MSG(type == MsgType::kStageATask,
                  "shard worker: unexpected frame type");
    gossip::Encoder e;
    serve(d, e);
    LPT_CHECK_MSG(d.exhausted(), "shard worker: trailing bytes in task");
    if (!ep.send(e.bytes())) return;
  }
}

/// The body of every worker: the first frame must be a kBootstrap carrying
/// the run-static problem description; `make_serve(decoder)` decodes it and
/// builds the stage-A serve handler, then worker_loop runs.  A respawned
/// replacement runs this loop again from the top — the coordinator re-sends
/// the bootstrap to every fresh worker, so worker state is built entirely
/// from the wire, whatever the transport.
template <typename MakeServe>
void bootstrap_worker_loop(Endpoint& ep, MakeServe&& make_serve) {
  const RecvResult r = ep.recv_frame(-1);
  if (!r.ok()) return;  // coordinator gone before the bootstrap
  gossip::Decoder d(r.frame);
  LPT_CHECK_MSG(get_msg_type(d) == MsgType::kBootstrap,
                "shard worker: expected a bootstrap frame first");
  auto serve = make_serve(d);
  LPT_CHECK_MSG(d.exhausted(), "shard worker: trailing bytes in bootstrap");
  worker_loop(ep, std::move(serve));
}

/// Coordinator-side harness: plan + transport + worker lifecycle +
/// failure recovery.  One harness serves one engine run; the destructor
/// shuts the workers down.
///
/// A shard's round is split into `ceil(range / max_frame_nodes)`
/// contiguous ascending *sub-frames* so a frame's size is bounded by
/// per-node state, never by n.  The global frame list is laid out
/// shard-major (all of shard 0's sub-frames, then shard 1's, ...), so
/// per-frame accumulations concatenated in frame-index order are still
/// exactly the ascending node order of a serial full scan.
class ShardHarness {
 public:
  /// Spawns cfg.shards workers running bootstrap_worker_loop(ep,
  /// make_serve) and ships each — and every respawned replacement — the
  /// kBootstrap frame of `bootstrap_payload`, the engine's run-static
  /// problem description (schema opaque to the runtime).  `make_serve`
  /// rebuilds the serve handler from it and should capture nothing: no
  /// worker inherits engine state, on any transport.  The process
  /// transports fork here, before the engine's round loop starts.
  template <typename MakeServe>
  ShardHarness(std::size_t n, const ShardConfig& cfg,
               std::vector<std::uint8_t> bootstrap_payload,
               MakeServe make_serve)
      : plan_(n, std::min(cfg.shards, n)),
        assignment_(plan_.shard_count()),
        recovery_(cfg.recovery) {
    bootstrap_frame_ = std::move(bootstrap_payload);
    bootstrap_frame_.insert(bootstrap_frame_.begin(),
                            static_cast<std::uint8_t>(MsgType::kBootstrap));
    const std::size_t limit = cfg.max_frame_nodes ? cfg.max_frame_nodes : n;
    for (std::size_t s = 0; s < plan_.shard_count(); ++s) {
      const ShardRange r = plan_.range(s);
      frame_offset_.push_back(frames_.size());
      for (gossip::NodeId b = r.begin; b < r.end;
           b = static_cast<gossip::NodeId>(
               std::min<std::size_t>(b + limit, r.end))) {
        frames_.push_back(
            {b, static_cast<gossip::NodeId>(
                    std::min<std::size_t>(b + limit, r.end))});
      }
    }
    task_bytes_.resize(frames_.size());
    lanes_.resize(plan_.shard_count());
    respawns_.assign(plan_.shard_count(), 0);
    transport_ = make_transport(cfg.transport);
    if (!cfg.fault_script.empty()) {
      transport_ = std::make_unique<FaultyTransport>(std::move(transport_),
                                                     cfg.fault_script);
    }
    transport_->spawn(plan_.shard_count(),
                      [make_serve = std::move(make_serve)](
                          std::size_t, Endpoint& ep) mutable {
                        bootstrap_worker_loop(ep, make_serve);
                      });
    for (std::size_t s = 0; s < plan_.shard_count(); ++s) send_bootstrap(s);
  }

  ~ShardHarness() {
    // If a round was abandoned mid-flight (ShardError unwound past it), a
    // worker may be blocked writing a result nobody will read; a shutdown
    // frame cannot reach its loop, so joining would deadlock.  Put those
    // workers down instead — the error path already decided this run dies.
    for (std::size_t s = 0; s < plan_.shard_count(); ++s) {
      if (assignment_.live(s) && lanes_[s].inflight != kNoFrame) {
        transport_->kill_worker(s);
        assignment_.mark_dead(s);
      }
    }
    gossip::Encoder bye;
    put_msg_type(bye, MsgType::kShutdown);
    for (std::size_t s = 0; s < plan_.shard_count(); ++s) {
      if (!assignment_.live(s)) continue;  // dead ones are expect_down()-ed
      if (!transport_->endpoint(s).send(bye.bytes())) {
        transport_->expect_down(s);  // died since we last looked
      }
    }
    transport_->join();
  }

  ShardHarness(const ShardHarness&) = delete;
  ShardHarness& operator=(const ShardHarness&) = delete;

  /// Total sub-frames per round; engines size their per-frame accumulator
  /// vectors to this (frames are shard-major, so accumulators walked in
  /// index order recover ascending node order).
  std::size_t frame_count() const noexcept { return frames_.size(); }

  const ShardRecoveryStats& recovery_stats() const noexcept {
    return rstats_;
  }

  /// Fault-injection hook: SIGKILL a real worker (lane-close for threads)
  /// mid-round, from outside the scripted FaultyTransport path.  The death
  /// is discovered — and recovered from — by the next round's send/recv
  /// like any other; it is marked expected so teardown stays quiet.
  void kill_worker(std::size_t shard) { transport_->kill_worker(shard); }

  /// One simulated round: encode_task(range, encoder) builds one task
  /// payload (after the message type, which round() writes);
  /// apply_result(frame, range, decoder) consumes one result payload.
  ///
  /// Each live worker serves its own shard's sub-frames as a FIFO (dead
  /// shards' FIFOs fold into survivors under kReassign) with at most one
  /// frame in flight per worker — see "Round-trip schedule" above.
  /// apply_result runs once per sub-frame, in any order the schedule
  /// produces — it must only write frame-indexed slots, never shared
  /// streams (stage B does that later, walking frames in index order).
  ///
  /// Task bytes are retained until the frame's result is applied, so a
  /// worker death anywhere in the round replays the exact same bytes.
  /// Throws ShardError when the recovery policy is exhausted (or is
  /// kFailFast); the harness stays destructible.
  template <typename EncodeTask, typename ApplyResult>
  void round(EncodeTask&& encode_task, ApplyResult&& apply_result) {
    const std::size_t k = plan_.shard_count();
    for (std::size_t s = 0; s < k; ++s) {
      Lane& L = lanes_[s];
      L.q.clear();
      L.head = 0;
      L.inflight = kNoFrame;
      for (std::size_t f = frame_offset_[s]; f < frames_end(s); ++f) {
        L.q.push_back(f);
      }
    }
    for (std::size_t s = 0; s < k; ++s) {  // shards already dead: fold now
      if (!assignment_.live(s)) fold_lane(s);
    }

    std::size_t applied = 0;
    while (applied < frames_.size()) {
      // Top up every idle live worker before receiving anything, so
      // workers compute concurrently.
      for (std::size_t s = 0; s < k; ++s) {
        Lane& L = lanes_[s];
        while (assignment_.live(s) && L.inflight == kNoFrame &&
               L.head < L.q.size()) {
          const std::size_t f = L.q[L.head];
          if (task_bytes_[f].empty()) {
            obs::TraceSpan encode_span("shard.encode", f);
            gossip::Encoder e;
            put_msg_type(e, MsgType::kStageATask);
            encode_task(frames_[f], e);
            task_bytes_[f] = e.bytes();
          }
          if (!transport_->endpoint(s).send(task_bytes_[f])) {
            on_worker_down(s, DownCause::kEpipe);
            continue;  // respawned: retry the frame; reassigned: lane
                       // is no longer live and the while exits
          }
          bytes_task_.add(task_bytes_[f].size());
          obs::trace_instant("shard.frame_send", f);
          ++L.head;
          L.inflight = f;
        }
      }
      // Drain one result from every worker with a frame in flight.
      for (std::size_t s = 0; s < k; ++s) {
        Lane& L = lanes_[s];
        if (!assignment_.live(s) || L.inflight == kNoFrame) continue;
        const std::size_t f = L.inflight;
        obs::TraceSpan recv_span("shard.frame_recv", f);
        RecvResult r =
            transport_->endpoint(s).recv_frame(recovery_.recv_timeout_ms);
        if (r.ok()) {
          if (r.frame.empty() ||
              r.frame[0] !=
                  static_cast<std::uint8_t>(MsgType::kStageAResult)) {
            // The stream is babbling: put the worker down (its remaining
            // output is untrustworthy) and recover like any other death.
            transport_->kill_worker(s);
            on_worker_down(s, DownCause::kCorrupt);
            continue;
          }
          bytes_result_.add(r.frame.size());
          {
            obs::TraceSpan decode_span("shard.decode", f);
            gossip::Decoder d(r.frame);
            (void)get_msg_type(d);
            apply_result(f, frames_[f], d);
            LPT_CHECK_MSG(d.exhausted(),
                          "shard coordinator: trailing bytes in result");
          }
          task_bytes_[f].clear();  // keeps capacity for the next round
          L.inflight = kNoFrame;
          ++applied;
        } else if (r.status == RecvResult::Status::kTimeout) {
          // Hung (or terminally slow) worker: the only way to preserve
          // the one-in-flight invariant is to put it down and replay.
          transport_->kill_worker(s);
          on_worker_down(s, DownCause::kTimeout);
        } else {
          on_worker_down(s, r.cause);
        }
      }
    }
  }

 private:
  static constexpr std::size_t kNoFrame = static_cast<std::size_t>(-1);

  /// Ship the bootstrap frame to shard s's fresh worker.  A failed send
  /// means the worker is already gone; that is deliberately ignored — the
  /// next task send discovers the death through the normal recovery path
  /// (reporting it from here would recurse into on_worker_down
  /// mid-recovery).
  void send_bootstrap(std::size_t s) {
    if (transport_->endpoint(s).send(bootstrap_frame_)) {
      bytes_bootstrap_.add(bootstrap_frame_.size());
    }
  }

  /// Coordinator-side schedule state for one worker: the FIFO of frame
  /// indices it still owes this round, and its single in-flight frame.
  struct Lane {
    std::vector<std::size_t> q;
    std::size_t head = 0;
    std::size_t inflight = kNoFrame;
  };

  std::size_t frames_end(std::size_t s) const noexcept {
    return s + 1 < frame_offset_.size() ? frame_offset_[s + 1]
                                        : frames_.size();
  }

  /// Move lane s's pending frames to surviving workers, round-robin
  /// ascending from s (deterministic given the death sequence).
  void fold_lane(std::size_t s) {
    Lane& L = lanes_[s];
    std::size_t t = s;
    for (std::size_t i = L.head; i < L.q.size(); ++i) {
      t = assignment_.next_live(t);
      lanes_[t].q.push_back(L.q[i]);
      ++rstats_.frames_reassigned;
      obs::counter("shard.frames_reassigned").add(1);
    }
    L.q.clear();
    L.head = 0;
  }

  /// Handle one structured worker-down event: requeue the in-flight
  /// frame, record/log the cause and the worker's real exit status, then
  /// respawn / reassign / escalate per policy.
  void on_worker_down(std::size_t s, DownCause cause) {
    Lane& L = lanes_[s];
    if (L.inflight != kNoFrame) {
      --L.head;  // q[head] still holds the in-flight frame index
      L.inflight = kNoFrame;
      ++rstats_.frames_resent;
      obs::counter("shard.frames_resent").add(1);
      // Recovery is rare and diagnostic gold: bypass the sampling gate
      // so a requeue is visible even in an unsampled round.
      obs::trace_rare("shard.frame_requeue", L.q[L.head]);
    }
    const WorkerExit ex = transport_->exit_status(s);
    ++rstats_.workers_lost;
    obs::counter("shard.workers_lost").add(1);
    rstats_.last_down_shard = s;
    rstats_.last_down_cause = cause;
    rstats_.last_down_exit = ex;
    transport_->expect_down(s);
    std::fprintf(stderr, "[shard] worker %zu down: %s (%s; policy %s)\n", s,
                 down_cause_name(cause), exit_desc(ex).c_str(),
                 recovery_mode_name(recovery_.mode));
    switch (recovery_.mode) {
      case RecoveryMode::kFailFast:
        assignment_.mark_dead(s);
        throw ShardError(s, cause,
                         "shard worker " + std::to_string(s) + " down (" +
                             down_cause_name(cause) + "; " + exit_desc(ex) +
                             "); policy is fail_fast");
      case RecoveryMode::kRespawn: {
        if (respawns_[s] >= recovery_.max_respawns_per_shard) {
          assignment_.mark_dead(s);
          throw ShardError(
              s, cause,
              "shard worker " + std::to_string(s) + " down (" +
                  down_cause_name(cause) + "; " + exit_desc(ex) +
                  "); respawn budget (" +
                  std::to_string(recovery_.max_respawns_per_shard) +
                  ") exhausted");
        }
        const std::uint32_t backoff =
            respawn_backoff_ms(recovery_, respawns_[s]);
        if (backoff > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
        }
        transport_->respawn(s);
        ++respawns_[s];
        ++rstats_.respawns;
        obs::counter("shard.respawns").add(1);
        obs::trace_rare("shard.recovery_respawn", s);
        send_bootstrap(s);  // a replacement worker starts from the wire
        break;
      }
      case RecoveryMode::kReassign: {
        assignment_.mark_dead(s);
        if (assignment_.live_count() == 0) {
          throw ShardError(s, cause,
                           "shard worker " + std::to_string(s) + " down (" +
                               down_cause_name(cause) +
                               "); no surviving workers to reassign to");
        }
        obs::trace_rare("shard.recovery_reassign", s);
        fold_lane(s);
        break;
      }
    }
  }

  static std::string exit_desc(const WorkerExit& ex) {
    switch (ex.kind) {
      case WorkerExit::Kind::kRunning:
        return "worker still running";
      case WorkerExit::Kind::kExited:
        return "exit code " + std::to_string(ex.value);
      case WorkerExit::Kind::kSignaled:
        return "signal " + std::to_string(ex.value);
    }
    return "unknown exit";
  }

  ShardPlan plan_;
  ShardAssignment assignment_;           // which workers still serve
  RecoveryPolicy recovery_;
  ShardRecoveryStats rstats_;
  std::vector<ShardRange> frames_;        // shard-major sub-frame ranges
  std::vector<std::size_t> frame_offset_; // first frame index per shard
  std::vector<Lane> lanes_;               // per-worker round schedule
  std::vector<std::size_t> respawns_;     // replacements started per shard
  // Authoritative copy of every task frame shipped this round, retained
  // until its result is applied (cleared then, capacity kept).  Encoding
  // never mutates coordinator state, so these bytes — which embed the
  // per-node RNG snapshots — replay bit-identically on any worker.
  std::vector<std::vector<std::uint8_t>> task_bytes_;
  // Framed kBootstrap message (type byte + engine payload).  Run-static,
  // so one buffer serves every spawn and respawn of every shard.
  std::vector<std::uint8_t> bootstrap_frame_;
  std::unique_ptr<Transport> transport_;
  // Wire bytes per message type (payloads, type byte included, length
  // prefix not): tasks and bootstraps sent, results received.  Re-sent
  // frames count again — they cross the wire again.
  obs::Counter& bytes_task_ = obs::counter("shard.bytes.task");
  obs::Counter& bytes_result_ = obs::counter("shard.bytes.result");
  obs::Counter& bytes_bootstrap_ = obs::counter("shard.bytes.bootstrap");
};

}  // namespace lpt::shard
