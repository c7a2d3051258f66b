// Transport implementations for the shard runtime (see shard/transport.hpp
// for the design and shard/fault.hpp for the scripted fault injection).
// Everything transport-specific lives here so the header-only engine glue
// stays free of OS includes.
#include "shard/transport.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>

#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "shard/fault.hpp"
#include "shard/runtime.hpp"
#include "shard/wire.hpp"
#include "util/assert.hpp"

namespace lpt::shard {

const char* recovery_mode_name(RecoveryMode mode) {
  switch (mode) {
    case RecoveryMode::kRespawn:
      return "respawn";
    case RecoveryMode::kReassign:
      return "reassign";
    case RecoveryMode::kFailFast:
      return "fail_fast";
  }
  return "unknown";
}

const char* down_cause_name(DownCause cause) {
  switch (cause) {
    case DownCause::kEof:
      return "eof";
    case DownCause::kTruncated:
      return "truncated";
    case DownCause::kOversized:
      return "oversized-frame";
    case DownCause::kEpipe:
      return "epipe";
    case DownCause::kTimeout:
      return "timeout";
    case DownCause::kCorrupt:
      return "corrupt-frame";
    case DownCause::kKilled:
      return "killed";
  }
  return "unknown";
}

namespace detail {

void FrameQueue::push(std::vector<std::uint8_t> frame) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;  // a dead lane swallows frames, like a dead pipe
    frames_.push_back(std::move(frame));
  }
  cv_.notify_one();
}

RecvResult FrameQueue::pop(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto ready = [this] { return !frames_.empty() || closed_; };
  if (timeout_ms < 0) {
    cv_.wait(lock, ready);
  } else if (!cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                           ready)) {
    return {RecvResult::Status::kTimeout, DownCause::kTimeout, {}};
  }
  if (frames_.empty()) {  // closed and drained: the lane analogue of EOF
    return {RecvResult::Status::kDown, DownCause::kEof, {}};
  }
  RecvResult r;
  r.frame = std::move(frames_.front());
  frames_.pop_front();
  return r;
}

void FrameQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool FrameQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

namespace {

/// Queue-backed endpoint: the in-process analogue of a pipe pair.  The
/// payload is copied on send — the receiving side must never alias the
/// sender's buffers, or the in-process mode would stop being a faithful
/// rehearsal of the process mode.
class QueueEndpoint final : public Endpoint {
 public:
  QueueEndpoint(FrameQueue& in, FrameQueue& out) : in_(&in), out_(&out) {}

  bool send(std::span<const std::uint8_t> payload) override {
    LPT_CHECK_MSG(payload.size() <= kMaxFrameBytes,
                  "shard frame exceeds kMaxFrameBytes");
    if (out_->closed()) return false;  // the lane analogue of EPIPE
    out_->push(std::vector<std::uint8_t>(payload.begin(), payload.end()));
    return true;
  }

  RecvResult recv_frame(int timeout_ms) override {
    return in_->pop(timeout_ms);
  }

 private:
  FrameQueue* in_;
  FrameQueue* out_;
};

/// Close every fd the forked worker inherited except stdio and its own
/// pipe ends.  Concurrent harnesses (a bench running repetitions on a
/// thread pool spawns one per rep) interleave pipe()/fork() freely, so a
/// child would otherwise hold other runs' pipe write ends open — breaking
/// their EOF-based cleanup and leaking fds.  The /proc sweep makes each
/// child self-contained no matter how the spawns interleaved.
void close_inherited_fds(int keep_read, int keep_write) {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return;  // /proc unavailable: best effort only
  std::vector<int> to_close;
  const int dir_fd = ::dirfd(dir);
  while (const dirent* entry = ::readdir(dir)) {
    char* end = nullptr;
    const long fd = std::strtol(entry->d_name, &end, 10);
    if (end == entry->d_name || *end != '\0') continue;  // "." / ".."
    if (fd <= 2 || fd == keep_read || fd == keep_write || fd == dir_fd) {
      continue;
    }
    to_close.push_back(static_cast<int>(fd));
  }
  ::closedir(dir);
  for (const int fd : to_close) ::close(fd);
}

}  // namespace

// Declared in transport.hpp (namespace-scope, not anonymous: the fd-backed
// endpoints share them and tests exercise them directly).

bool write_all(int fd, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    const ssize_t w = ::write(fd, p, len);
    if (w < 0) {
      if (errno == EINTR) continue;
      // EPIPE: the peer's read end is gone.  ECONNRESET: the peer's socket
      // died with data still in flight.  Both mean "worker down", which is
      // the structured recovery path, not an abort.
      if (errno == EPIPE || errno == ECONNRESET) return false;
      LPT_CHECK_MSG(false, "shard stream write failed");
    }
    p += w;
    len -= static_cast<std::size_t>(w);
  }
  return true;
}

ReadStatus read_all_deadline(
    int fd, void* data, std::size_t len, bool has_deadline,
    std::chrono::steady_clock::time_point deadline) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < len) {
    if (has_deadline) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return ReadStatus::kTimeout;
      // Round the remaining budget UP to whole milliseconds: truncating
      // toward zero made a budget in (0, 1 ms) report kTimeout with real
      // time still left — a frame already sitting in the buffer was never
      // even polled for.  ceil keeps `left >= 1` whenever now < deadline.
      const auto left =
          std::chrono::ceil<std::chrono::milliseconds>(deadline - now)
              .count();
      pollfd pfd{fd, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, static_cast<int>(left));
      if (pr < 0) {
        if (errno == EINTR) continue;
        LPT_CHECK_MSG(false, "shard stream poll failed");
      }
      if (pr == 0) return ReadStatus::kTimeout;
    }
    const ssize_t r = ::read(fd, p + got, len - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      // A reset stream is the socket's way of dying: at a frame boundary
      // it reads as the peer being cleanly gone, mid-frame as truncation.
      if (errno == ECONNRESET) {
        return got == 0 ? ReadStatus::kCleanEof : ReadStatus::kTruncated;
      }
      LPT_CHECK_MSG(false, "shard stream read failed");
    }
    if (r == 0) {
      return got == 0 ? ReadStatus::kCleanEof : ReadStatus::kTruncated;
    }
    got += static_cast<std::size_t>(r);
  }
  return ReadStatus::kOk;
}

bool send_frame_fd(int fd, std::span<const std::uint8_t> payload) {
  LPT_CHECK_MSG(payload.size() <= kMaxFrameBytes,
                "shard frame exceeds kMaxFrameBytes");
  const auto len = static_cast<std::uint32_t>(payload.size());
  if (!write_all(fd, &len, sizeof len)) return false;
  return write_all(fd, payload.data(), payload.size());
}

RecvResult recv_frame_fd(int fd, int timeout_ms) {
  const bool has_deadline = timeout_ms >= 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(has_deadline ? timeout_ms
                                                               : 0);
  std::uint32_t len = 0;
  switch (read_all_deadline(fd, &len, sizeof len, has_deadline, deadline)) {
    case ReadStatus::kCleanEof:
      return {RecvResult::Status::kDown, DownCause::kEof, {}};
    case ReadStatus::kTruncated:
      return {RecvResult::Status::kDown, DownCause::kTruncated, {}};
    case ReadStatus::kTimeout:
      return {RecvResult::Status::kTimeout, DownCause::kTimeout, {}};
    case ReadStatus::kOk:
      break;
  }
  if (len > kMaxFrameBytes) {
    // A garbage or truncated stream otherwise turns into an attempted
    // multi-gigabyte allocation; the stream is unusable from here on.
    return {RecvResult::Status::kDown, DownCause::kOversized, {}};
  }
  RecvResult r;
  r.frame.resize(len);
  if (len > 0) {
    switch (read_all_deadline(fd, r.frame.data(), len, has_deadline,
                              deadline)) {
      case ReadStatus::kCleanEof:
      case ReadStatus::kTruncated:
        return {RecvResult::Status::kDown, DownCause::kTruncated, {}};
      case ReadStatus::kTimeout:
        return {RecvResult::Status::kTimeout, DownCause::kTimeout, {}};
      case ReadStatus::kOk:
        break;
    }
  }
  return r;
}

}  // namespace detail

// --- InProcTransport ------------------------------------------------------

struct InProcTransport::Lane {
  detail::FrameQueue to_worker;
  detail::FrameQueue to_coordinator;
  // Endpoints are constructed after the queues they reference.
  detail::QueueEndpoint coordinator{to_coordinator, to_worker};
  detail::QueueEndpoint worker{to_worker, to_coordinator};
};

InProcTransport::InProcTransport() = default;

InProcTransport::~InProcTransport() { join(); }

void InProcTransport::start_worker(std::size_t shard) {
  lanes_[shard] = std::make_unique<Lane>();
  exits_[shard] = WorkerExit{};
  threads_[shard] = std::thread(
      [shard, worker = worker_fn_, lane = lanes_[shard].get()] {
        worker(shard, lane->worker);
      });
}

void InProcTransport::spawn(std::size_t shards, WorkerFn worker) {
  LPT_CHECK_MSG(lanes_.empty(), "Transport::spawn called twice");
  worker_fn_ = std::move(worker);
  lanes_.resize(shards);
  threads_.resize(shards);
  exits_.resize(shards);
  expected_down_.assign(shards, 0);
  for (std::size_t s = 0; s < shards; ++s) start_worker(s);
}

Endpoint& InProcTransport::endpoint(std::size_t shard) {
  return lanes_[shard]->coordinator;
}

void InProcTransport::kill_worker(std::size_t shard) {
  expected_down_[shard] = 1;
  if (!threads_[shard].joinable()) return;
  // Closing both queues is the in-process kill: the worker's next pop or
  // push observes a dead lane and the loop exits; a mid-compute worker
  // finishes its frame into the void.  Unlike SIGKILL this lets the thread
  // run to its next lane touch, but the coordinator-visible outcome is the
  // same — the stream is down and any in-flight result is lost.
  lanes_[shard]->to_worker.close();
  lanes_[shard]->to_coordinator.close();
  threads_[shard].join();
  exits_[shard] = WorkerExit{WorkerExit::Kind::kSignaled, SIGKILL};
}

void InProcTransport::respawn(std::size_t shard) {
  kill_worker(shard);
  expected_down_[shard] = 0;
  start_worker(shard);
}

WorkerExit InProcTransport::exit_status(std::size_t shard) {
  return exits_[shard];
}

void InProcTransport::expect_down(std::size_t shard) {
  expected_down_[shard] = 1;
}

void InProcTransport::join() {
  for (std::size_t s = 0; s < threads_.size(); ++s) {
    if (!threads_[s].joinable()) continue;
    threads_[s].join();
    if (exits_[s].kind == WorkerExit::Kind::kRunning) {
      exits_[s] = WorkerExit{WorkerExit::Kind::kExited, 0};
    }
  }
}

// --- Fd-backed endpoints --------------------------------------------------

PipeEndpoint::~PipeEndpoint() {
  if (read_fd_ >= 0) ::close(read_fd_);
  if (write_fd_ >= 0) ::close(write_fd_);
}

bool PipeEndpoint::send(std::span<const std::uint8_t> payload) {
  return detail::send_frame_fd(write_fd_, payload);
}

RecvResult PipeEndpoint::recv_frame(int timeout_ms) {
  return detail::recv_frame_fd(read_fd_, timeout_ms);
}

SocketEndpoint::~SocketEndpoint() {
  if (fd_ >= 0) ::close(fd_);
}

bool SocketEndpoint::send(std::span<const std::uint8_t> payload) {
  return detail::send_frame_fd(fd_, payload);
}

RecvResult SocketEndpoint::recv_frame(int timeout_ms) {
  return detail::recv_frame_fd(fd_, timeout_ms);
}

// --- ProcessTransport (shared fork/reap machinery) ------------------------

ProcessTransport::~ProcessTransport() { teardown(); }

void ProcessTransport::teardown() {
  // Endpoints close first: a child blocked in recv_frame sees EOF and exits
  // if the shutdown frame never made it.
  for (WorkerSlot& w : workers_) w.ep.reset();
  join();
}

void ProcessTransport::spawn(std::size_t shards, WorkerFn worker) {
  LPT_CHECK_MSG(workers_.empty(), "Transport::spawn called twice");
  worker_fn_ = std::move(worker);
  // A write to a dead worker must surface as EPIPE/ECONNRESET (and the
  // structured worker-down path), not kill the coordinator with SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  workers_.resize(shards);
  for (std::size_t s = 0; s < shards; ++s) start_worker(s);
}

Endpoint& ProcessTransport::endpoint(std::size_t shard) {
  return *workers_[shard].ep;
}

void ProcessTransport::reap(std::size_t shard, bool block) {
  WorkerSlot& w = workers_[shard];
  if (w.reaped) return;
  int status = 0;
  pid_t r;
  do {
    r = ::waitpid(w.pid, &status, block ? 0 : WNOHANG);
  } while (r < 0 && errno == EINTR);
  if (r == 0) return;  // still running (WNOHANG)
  LPT_CHECK_MSG(r == w.pid, "waitpid failed for shard worker");
  // Record the real cause exactly once, at reap time — a worker that died
  // mid-run keeps its exit code / signal number observable ever after.
  if (WIFEXITED(status)) {
    w.exit = WorkerExit{WorkerExit::Kind::kExited, WEXITSTATUS(status)};
  } else if (WIFSIGNALED(status)) {
    w.exit = WorkerExit{WorkerExit::Kind::kSignaled, WTERMSIG(status)};
  } else {
    w.exit = WorkerExit{WorkerExit::Kind::kExited, -1};
  }
  w.reaped = true;
}

void ProcessTransport::kill_worker(std::size_t shard) {
  WorkerSlot& w = workers_[shard];
  w.expected_down = true;
  if (w.reaped) return;
  ::kill(w.pid, SIGKILL);  // ESRCH (already gone) is fine: reap below
  reap(shard, /*block=*/true);
}

void ProcessTransport::respawn(std::size_t shard) {
  kill_worker(shard);
  WorkerSlot& w = workers_[shard];
  w.ep.reset();  // close the dead stream's coordinator fds before reuse
  w.expected_down = false;
  start_worker(shard);
}

WorkerExit ProcessTransport::exit_status(std::size_t shard) {
  reap(shard, /*block=*/false);  // observe a zombie without waiting
  return workers_[shard].exit;
}

void ProcessTransport::expect_down(std::size_t shard) {
  workers_[shard].expected_down = true;
}

void ProcessTransport::join() {
  for (std::size_t s = 0; s < workers_.size(); ++s) {
    WorkerSlot& w = workers_[s];
    if (w.pid < 0) continue;
    reap(s, /*block=*/true);
    const bool clean =
        w.exit.kind == WorkerExit::Kind::kExited && w.exit.value == 0;
    LPT_CHECK_MSG(clean || w.expected_down,
                  "shard worker process exited abnormally");
    w.pid = -1;
  }
}

// --- PipeTransport --------------------------------------------------------

PipeTransport::PipeTransport() = default;

PipeTransport::~PipeTransport() { teardown(); }

void PipeTransport::start_worker(std::size_t shard) {
  int task_pipe[2];    // coordinator -> worker
  int result_pipe[2];  // worker -> coordinator
  LPT_CHECK_MSG(::pipe(task_pipe) == 0 && ::pipe(result_pipe) == 0,
                "pipe() failed");
  const pid_t pid = ::fork();
  LPT_CHECK_MSG(pid >= 0, "fork() failed");
  if (pid == 0) {
    // Worker process: keep only stdio and this worker's own pipe ends —
    // sibling shards' fds AND any concurrently spawning harness's fds
    // (bench thread pools fork in parallel) are swept via /proc.
    detail::close_inherited_fds(task_pipe[0], result_pipe[1]);
    {
      PipeEndpoint ep(task_pipe[0], result_pipe[1]);
      worker_fn_(shard, ep);
    }
    // _exit, not exit: no atexit handlers / stream flushes inherited
    // from the coordinator may run in the child.
    ::_exit(0);
  }
  ::close(task_pipe[0]);
  ::close(result_pipe[1]);
  WorkerSlot& w = workers_[shard];
  w.pid = pid;
  w.ep = std::make_unique<PipeEndpoint>(result_pipe[0], task_pipe[1]);
  w.exit = WorkerExit{};
  w.reaped = false;
}

// --- SocketTransport ------------------------------------------------------

namespace {

/// How long the coordinator waits for a freshly forked worker to connect
/// back and identify itself.  Generous: a loaded 1-core box interleaves the
/// child's exec-free startup with everything else, but a worker that has
/// not connected within this window is genuinely lost.
constexpr int kAcceptTimeoutMs = 30'000;

void set_nodelay(int fd) {
  // Lockstep request/response with small frames is the pathological case
  // for Nagle's algorithm: a delayed last segment stalls the whole round.
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

SocketTransport::SocketTransport() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  LPT_CHECK_MSG(listen_fd_ >= 0, "socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral: the OS picks a free port
  LPT_CHECK_MSG(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof addr) == 0,
                "bind() on loopback failed");
  socklen_t len = sizeof addr;
  LPT_CHECK_MSG(::getsockname(listen_fd_,
                              reinterpret_cast<sockaddr*>(&addr), &len) == 0,
                "getsockname() failed");
  port_ = ntohs(addr.sin_port);
  LPT_CHECK_MSG(::listen(listen_fd_, SOMAXCONN) == 0, "listen() failed");
}

SocketTransport::~SocketTransport() {
  teardown();  // children must be gone before the listen socket dies
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void SocketTransport::start_worker(std::size_t shard) {
  const std::uint16_t port = port_;
  const pid_t pid = ::fork();
  LPT_CHECK_MSG(pid >= 0, "fork() failed");
  if (pid == 0) {
    // Worker process.  Unlike the pipe worker it inherits NO stream: the
    // sweep closes everything (including the listen socket and sibling
    // connections), then the worker dials the coordinator — exactly what a
    // remotely launched worker would do with a host:port argument.
    detail::close_inherited_fds(-1, -1);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) ::_exit(1);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    int cr;
    do {
      cr = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr);
    } while (cr < 0 && errno == EINTR);
    if (cr < 0) ::_exit(1);
    set_nodelay(fd);
    // Hello preamble (raw, below the frame protocol): the worker announces
    // which shard it serves, so a crossed or stray connection is caught
    // before any frames flow.
    const auto id = static_cast<std::uint32_t>(shard);
    if (!detail::write_all(fd, &id, sizeof id)) ::_exit(1);
    {
      SocketEndpoint ep(fd);
      worker_fn_(shard, ep);
    }
    ::_exit(0);
  }
  // Coordinator side: spawns are serialized (fork one worker, accept its
  // connection, then the next), so accept() pairs deterministically; the
  // hello check below makes any mismatch loud rather than silent.
  pollfd pfd{listen_fd_, POLLIN, 0};
  int pr;
  do {
    pr = ::poll(&pfd, 1, kAcceptTimeoutMs);
  } while (pr < 0 && errno == EINTR);
  LPT_CHECK_MSG(pr > 0, "shard worker never connected back");
  const int conn = ::accept(listen_fd_, nullptr, nullptr);
  LPT_CHECK_MSG(conn >= 0, "accept() failed");
  set_nodelay(conn);
  std::uint32_t hello = 0;
  const auto hello_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(kAcceptTimeoutMs);
  LPT_CHECK_MSG(detail::read_all_deadline(conn, &hello, sizeof hello,
                                          /*has_deadline=*/true,
                                          hello_deadline) ==
                    detail::ReadStatus::kOk,
                "shard worker hello never arrived");
  LPT_CHECK_MSG(hello == static_cast<std::uint32_t>(shard),
                "shard worker hello announced the wrong shard");
  WorkerSlot& w = workers_[shard];
  w.pid = pid;
  w.ep = std::make_unique<SocketEndpoint>(conn);
  w.exit = WorkerExit{};
  w.reaped = false;
}

// --- FaultyTransport ------------------------------------------------------

/// Counting/injecting view of one inner endpoint (see shard/fault.hpp).
class FaultyTransport::FaultyEndpoint final : public Endpoint {
 public:
  FaultyEndpoint(FaultyTransport* owner, std::size_t shard)
      : owner_(owner), shard_(shard) {}

  bool send(std::span<const std::uint8_t> payload) override {
    // Scripts count task frames only: a bootstrap or shutdown send neither
    // advances the counter nor fires an event.
    const bool task =
        !payload.empty() &&
        payload[0] == static_cast<std::uint8_t>(MsgType::kStageATask);
    FaultEvent* ev =
        task ? owner_->match(shard_, /*send_side=*/true, sends_++) : nullptr;
    const bool ok = owner_->inner_->endpoint(shard_).send(payload);
    if (ev != nullptr) {
      // kKillWorker: the task frame is on the wire (or lost to EPIPE);
      // the real worker dies NOW — whether it already read, served, or
      // answered that frame is a genuine race the recovery must win in
      // every interleaving.
      owner_->inner_->kill_worker(shard_);
    }
    return ok;
  }

  RecvResult recv_frame(int timeout_ms) override {
    FaultEvent* ev = owner_->match(shard_, /*send_side=*/false, recvs_);
    ++recvs_;
    Endpoint& inner = owner_->inner_->endpoint(shard_);
    if (ev == nullptr) return inner.recv_frame(timeout_ms);
    switch (ev->op) {
      case FaultOp::kDropResult: {
        RecvResult got = inner.recv_frame(timeout_ms);
        if (!got.ok()) return got;  // the worker died anyway: report that
        // The frame vanishes; wait (up to one more deadline) for a frame
        // the lockstep worker will never send — the genuine hung-worker
        // outcome.  Requires a finite recv deadline, or this would block.
        return inner.recv_frame(timeout_ms);
      }
      case FaultOp::kTruncateResult: {
        RecvResult got = inner.recv_frame(timeout_ms);
        owner_->inner_->kill_worker(shard_);
        if (!got.ok()) return got;
        return {RecvResult::Status::kDown, DownCause::kTruncated, {}};
      }
      case FaultOp::kCorruptResult: {
        RecvResult got = inner.recv_frame(timeout_ms);
        if (got.ok() && !got.frame.empty()) got.frame[0] ^= 0x80u;
        return got;
      }
      case FaultOp::kDelayResult: {
        std::this_thread::sleep_for(std::chrono::milliseconds(ev->delay_ms));
        return inner.recv_frame(timeout_ms);
      }
      case FaultOp::kKillWorker:
        break;  // send-side op; match() never returns it here
    }
    return inner.recv_frame(timeout_ms);
  }

 private:
  FaultyTransport* owner_;
  std::size_t shard_;
  std::size_t sends_ = 0;  // task frames; monotone across respawns: at_frame
  std::size_t recvs_ = 0;  // is a run-global per-lane position, not per-worker
};

FaultyTransport::FaultyTransport(std::unique_ptr<Transport> inner,
                                 FaultScript script)
    : inner_(std::move(inner)), script_(std::move(script)) {
  consumed_.assign(script_.size(), 0);
}

FaultyTransport::~FaultyTransport() = default;

void FaultyTransport::spawn(std::size_t shards, WorkerFn worker) {
  inner_->spawn(shards, std::move(worker));
  endpoints_.resize(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    endpoints_[s] = std::make_unique<FaultyEndpoint>(this, s);
  }
}

Endpoint& FaultyTransport::endpoint(std::size_t shard) {
  return *endpoints_[shard];
}

void FaultyTransport::kill_worker(std::size_t shard) {
  inner_->kill_worker(shard);
}

void FaultyTransport::respawn(std::size_t shard) { inner_->respawn(shard); }

WorkerExit FaultyTransport::exit_status(std::size_t shard) {
  return inner_->exit_status(shard);
}

void FaultyTransport::expect_down(std::size_t shard) {
  inner_->expect_down(shard);
}

void FaultyTransport::join() { inner_->join(); }

FaultEvent* FaultyTransport::match(std::size_t shard, bool send_side,
                                   std::size_t frame) {
  for (std::size_t i = 0; i < script_.size(); ++i) {
    if (consumed_[i]) continue;
    FaultEvent& ev = script_[i];
    if (ev.shard != shard || ev.at_frame != frame) continue;
    if ((ev.op == FaultOp::kKillWorker) != send_side) continue;
    consumed_[i] = 1;
    return &ev;
  }
  return nullptr;
}

std::unique_ptr<Transport> make_transport(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProc:
      return std::make_unique<InProcTransport>();
    case TransportKind::kPipe:
      return std::make_unique<PipeTransport>();
    case TransportKind::kSocket:
      return std::make_unique<SocketTransport>();
  }
  LPT_CHECK_MSG(false, "unknown TransportKind");
  return nullptr;
}

}  // namespace lpt::shard
