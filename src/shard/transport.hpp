// Coordinator/worker transports for the shard runtime.
//
// A Transport owns the lifecycle of `shards` workers and one bidirectional
// frame stream per worker.  Frames are length-prefixed byte blobs (u32
// little-endian payload length, then the payload — see shard/wire.hpp for
// the payload schema); the framing and its malformed-input rejection live
// in Endpoint so both transports and both directions share one
// implementation.
//
// Three implementations:
//
//   * InProcTransport — workers are std::threads inside the coordinator
//     process; frames travel through mutex+condvar byte queues.  The worker
//     code still sees only *serialized* frames (never the coordinator's
//     memory), so the in-process mode exercises the identical wire path as
//     the process mode — it is the fast default and the test vehicle, not a
//     shortcut.
//
//   * PipeTransport — workers are fork()ed child processes; frames travel
//     through pipe(2) pairs.  A child sweeps every inherited fd except its
//     own pipe ends (/proc/self/fd — concurrent harnesses on a bench thread
//     pool interleave pipe()/fork() freely) and from then on communicates
//     only via frames: like every worker it builds its state from the
//     bootstrap frame (shard/runtime.hpp), not from memory inherited at
//     fork time.  The runtime spawns workers before the engine's round
//     loop starts, so an engine run never forks with its own pool live;
//     forking from a bench-level repetition pool relies on glibc's malloc
//     atfork handlers (works in practice, and each child touches only its
//     own frames).
//
//   * SocketTransport — the coordinator listens on an ephemeral loopback
//     TCP port and every worker *connects* to it: the exact topology of a
//     multi-machine run, rehearsed on one box.  Workers are still fork()ed
//     locally (the container's stand-in for "launch a process on another
//     machine"), but after the fd sweep a socket worker owns only its
//     connected stream — so the same worker body could be exec'd or
//     launched remotely.  A respawn accepts a brand-new connection
//     (respawn-over-reconnect): the coordinator never tries to resurrect a
//     broken stream.
//
// ## Failure surface (the fault-tolerance contract)
//
// A worker is allowed to die: the paper's protocols are robust to faulty
// participants, and the shard runtime mirrors that at the process level.
// Every way a stream can fail is surfaced as *data*, not an abort:
//
//   * recv_frame(timeout_ms) returns a RecvResult — a frame, a timeout, or
//     a structured down-cause (clean EOF, mid-frame truncation, an
//     oversized length prefix);
//   * send() returns false when the peer is gone (EPIPE / closed lane)
//     instead of aborting;
//   * exit_status() exposes how a worker process actually ended (exit code
//     or signal number, reaped exactly once — never silently lost);
//   * kill_worker() / respawn() let the coordinator put down a hung or
//     corrupt worker and start a replacement running the same WorkerFn.
//
// Both sides read through recv_frame: the harness handles each down cause
// by its recovery policy, and a worker loop ends on any of them, as it ends
// on its shutdown frame.  The transport records which workers the harness
// *expects* to be down (expect_down), so teardown still aborts loudly on
// deaths nobody handled.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include <sys/types.h>

namespace lpt::shard {

/// Why a worker (or its frame stream) is considered down.
enum class DownCause : std::uint8_t {
  kEof = 0,     // peer closed the stream at a frame boundary
  kTruncated,   // stream ended mid-frame (partial length prefix or payload)
  kOversized,   // length prefix past kMaxFrameBytes (corrupt stream)
  kEpipe,       // write failed: the peer's read end is gone
  kTimeout,     // no frame within the recv deadline (hung or dead worker)
  kCorrupt,     // a frame arrived but failed validation (bad message type)
  kKilled,      // killed on purpose (fault injection / hung-worker cleanup)
};

const char* down_cause_name(DownCause cause);

/// Outcome of one recv_frame call.
struct RecvResult {
  enum class Status : std::uint8_t {
    kFrame = 0,   // `frame` holds a complete payload
    kTimeout,     // deadline expired with no frame
    kDown,        // the stream is dead; `cause` says how
  };
  Status status = Status::kFrame;
  DownCause cause = DownCause::kEof;  // meaningful when status == kDown
  std::vector<std::uint8_t> frame;    // meaningful when status == kFrame

  bool ok() const noexcept { return status == Status::kFrame; }
};

/// How a worker ended.  PipeTransport fills this from the waitpid status
/// (recorded exactly once per child, at the moment it is reaped — a worker
/// that died mid-run is reported with its real exit code or signal number,
/// not silently discarded at teardown).  InProcTransport reports joined
/// threads as kExited/0 and killed workers as kSignaled/SIGKILL, the
/// in-process analogue.
struct WorkerExit {
  enum class Kind : std::uint8_t { kRunning = 0, kExited, kSignaled };
  Kind kind = Kind::kRunning;
  int value = 0;  // exit code (kExited) or signal number (kSignaled)
};

/// One side of a bidirectional frame stream.
///
/// send() frames and writes the payload, returning false when the peer is
/// gone (EPIPE / closed lane) — any other I/O error still aborts loudly.
/// recv_frame() blocks up to timeout_ms (-1: forever) for the next frame
/// and reports malformed input (length prefix past kMaxFrameBytes, or a
/// stream truncated mid-frame) as a structured down-cause.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual bool send(std::span<const std::uint8_t> payload) = 0;
  virtual RecvResult recv_frame(int timeout_ms) = 0;
};

/// A worker body: runs the per-shard serve loop until shutdown.  Invoked
/// once per shard with that shard's index and endpoint (and again for each
/// respawned replacement worker, which starts from a clean slate — its
/// state is rebuilt from the frames themselves).
using WorkerFn = std::function<void(std::size_t shard, Endpoint& ep)>;

class Transport {
 public:
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Launch `shards` workers, each running `worker(shard, endpoint)`.
  /// Must be called exactly once, before any endpoint() use.  The WorkerFn
  /// is retained for respawn().
  virtual void spawn(std::size_t shards, WorkerFn worker) = 0;

  /// The coordinator-side endpoint for `shard` (valid after spawn(); a
  /// respawn() replaces the endpoint behind this accessor, so callers must
  /// re-fetch rather than cache the reference across failures).
  virtual Endpoint& endpoint(std::size_t shard) = 0;

  /// Force-terminate one worker (SIGKILL for processes, lane close for
  /// threads) and reap it, recording its exit status.  Idempotent; marks
  /// the death as expected so join() does not abort over it.
  virtual void kill_worker(std::size_t shard) = 0;

  /// Replace a dead (or hung — it is killed first) worker with a fresh one
  /// running the original WorkerFn on a fresh stream.  The replacement
  /// carries no state: the coordinator re-ships everything it needs.
  virtual void respawn(std::size_t shard) = 0;

  /// How `shard`'s current worker ended (kRunning while alive).  Reaps a
  /// zombie child on the spot (WNOHANG) so a worker that died mid-run is
  /// observable before teardown.
  virtual WorkerExit exit_status(std::size_t shard) = 0;

  /// Mark a worker's death as handled: join() records its status instead
  /// of aborting.  Called by the harness whenever it observed (and
  /// recovered from, or deliberately escalated) a failure.
  virtual void expect_down(std::size_t shard) = 0;

  /// Block until every worker has exited its loop (callers send the
  /// shutdown frames first).  Aborts loudly on an abnormal exit that was
  /// never expect_down()-ed — an unhandled death must not pass silently.
  /// Idempotent; also invoked by destructors.
  virtual void join() = 0;

 protected:
  Transport() = default;
};

// --- In-process transport (worker threads + frame queues). ---------------

namespace detail {

/// Write exactly len bytes to fd.  Returns false when the peer is gone
/// (EPIPE on a pipe, EPIPE/ECONNRESET on a socket — surfaced because
/// SIGPIPE is ignored) — the structured worker-down path; any other error
/// still aborts loudly.  Exposed for the fd-backed endpoints and for tests.
bool write_all(int fd, const void* data, std::size_t len);

enum class ReadStatus { kOk, kCleanEof, kTruncated, kTimeout };

/// Read exactly len bytes from fd, waiting at most until `deadline`
/// (steady clock; the caller computes it once per frame so the length
/// prefix and payload reads share one budget).  kCleanEof only at offset 0
/// — an EOF (or a connection reset) after the first byte means the writer
/// died mid-frame.  The remaining budget is rounded UP to whole
/// milliseconds for poll(2): truncating toward zero would report kTimeout
/// with real time still left on the clock (a sub-millisecond budget must
/// still poll once).
ReadStatus read_all_deadline(int fd, void* data, std::size_t len,
                             bool has_deadline,
                             std::chrono::steady_clock::time_point deadline);

/// Frame a payload onto fd / read one frame off fd with the shared framing
/// (u32 LE length prefix + payload, kMaxFrameBytes guard).  The pipe and
/// socket endpoints are both thin wrappers over these.
bool send_frame_fd(int fd, std::span<const std::uint8_t> payload);
RecvResult recv_frame_fd(int fd, int timeout_ms);

/// Blocking frame queue (one direction of one worker's stream).  close()
/// wakes all waiters: a pop on a closed, drained queue reports the lane
/// down instead of blocking forever — the in-process analogue of EOF.
class FrameQueue {
 public:
  void push(std::vector<std::uint8_t> frame);  // dropped when closed
  /// Blocks up to timeout_ms (-1: forever).  kDown{kEof} once closed and
  /// drained; kTimeout when the deadline expires first.
  RecvResult pop(int timeout_ms);
  void close();
  bool closed() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::vector<std::uint8_t>> frames_;
  bool closed_ = false;
};

}  // namespace detail

class InProcTransport final : public Transport {
 public:
  InProcTransport();
  ~InProcTransport() override;

  void spawn(std::size_t shards, WorkerFn worker) override;
  Endpoint& endpoint(std::size_t shard) override;
  void kill_worker(std::size_t shard) override;
  void respawn(std::size_t shard) override;
  WorkerExit exit_status(std::size_t shard) override;
  void expect_down(std::size_t shard) override;
  void join() override;

 private:
  struct Lane;  // the queue pair + both endpoints for one shard
  void start_worker(std::size_t shard);

  WorkerFn worker_fn_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> threads_;
  std::vector<WorkerExit> exits_;
  std::vector<std::uint8_t> expected_down_;
};

// --- Process transports (fork + pipes, fork + TCP sockets). ---------------

/// Frame stream over a (read fd, write fd) pair.  Public so tests can frame
/// arbitrary fds (e.g. to inject malformed length prefixes).
class PipeEndpoint final : public Endpoint {
 public:
  PipeEndpoint(int read_fd, int write_fd)
      : read_fd_(read_fd), write_fd_(write_fd) {}
  ~PipeEndpoint() override;

  bool send(std::span<const std::uint8_t> payload) override;
  RecvResult recv_frame(int timeout_ms) override;

 private:
  int read_fd_;
  int write_fd_;
};

/// Frame stream over one connected stream socket (both directions share the
/// fd).  Public so tests can frame arbitrary socket fds (socketpair(2),
/// half-open TCP streams).  Owns — and closes — the fd.
class SocketEndpoint final : public Endpoint {
 public:
  explicit SocketEndpoint(int fd) : fd_(fd) {}
  ~SocketEndpoint() override;

  bool send(std::span<const std::uint8_t> payload) override;
  RecvResult recv_frame(int timeout_ms) override;

 private:
  int fd_;
};

/// Shared lifecycle machinery for transports whose workers are fork()ed
/// child processes: slot bookkeeping, SIGPIPE suppression, waitpid reaping
/// (each child's real exit code / signal captured exactly once),
/// kill/respawn, and the join-time abnormal-exit check.  Derived transports
/// provide only start_worker — how one child is launched and what stream
/// connects it.
class ProcessTransport : public Transport {
 public:
  ~ProcessTransport() override;

  void spawn(std::size_t shards, WorkerFn worker) override;
  Endpoint& endpoint(std::size_t shard) override;
  void kill_worker(std::size_t shard) override;
  void respawn(std::size_t shard) override;
  WorkerExit exit_status(std::size_t shard) override;
  void expect_down(std::size_t shard) override;
  void join() override;

 protected:
  ProcessTransport() = default;

  /// One worker process: its pid, coordinator-side endpoint, and the exit
  /// status recorded when it was reaped (the waitpid result is captured
  /// exactly once and kept — never lost to a later teardown check).
  struct WorkerSlot {
    pid_t pid = -1;
    std::unique_ptr<Endpoint> ep;
    WorkerExit exit;
    bool reaped = false;
    bool expected_down = false;
  };

  /// Launch (or relaunch) shard's worker process and fill its slot.
  virtual void start_worker(std::size_t shard) = 0;

  /// Close the coordinator-side streams, then join.  Closing first means a
  /// child blocked in recv_frame sees EOF and exits even if the shutdown
  /// frame never made it.  Idempotent — derived destructors call it so
  /// children are gone before derived members (e.g. a listening socket) die.
  void teardown();

  void reap(std::size_t shard, bool block);

  WorkerFn worker_fn_;
  std::vector<WorkerSlot> workers_;
};

class PipeTransport final : public ProcessTransport {
 public:
  PipeTransport();
  ~PipeTransport() override;

 private:
  void start_worker(std::size_t shard) override;
};

/// TCP loopback transport: see the header comment.  The listening socket
/// lives for the transport's lifetime; every spawn/respawn forks a child
/// that connects back to port() and identifies itself with a 4-byte shard
/// id hello (raw, below the frame protocol) before any frames flow.
class SocketTransport final : public ProcessTransport {
 public:
  SocketTransport();
  ~SocketTransport() override;

  /// The coordinator's loopback listen port (ephemeral, OS-assigned).
  std::uint16_t port() const noexcept { return port_; }

 private:
  void start_worker(std::size_t shard) override;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Which transport a ShardConfig asks for.
enum class TransportKind : std::uint8_t {
  kInProc = 0,  // worker threads, serialized frames through memory queues
  kPipe = 1,    // fork()ed worker processes, frames through pipes
  kSocket = 2,  // fork()ed worker processes connecting back over loopback
                // TCP — the multi-machine topology, rehearsed on one box
};

/// Factory for the configured kind.
std::unique_ptr<Transport> make_transport(TransportKind kind);

}  // namespace lpt::shard
