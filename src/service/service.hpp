// The query-service front end: lpt_service, the layer above lpt_core.
//
// ROADMAP north star: a production query service answering LP-type queries
// with the paper's engines as the compute backend.  LptService is that
// front end, single-threaded-client, epoch-driven:
//
//   1. Clients obtain recycled request slots (acquire_request), fill the
//      payload, and submit().  Submission is queueing only — no solve runs.
//   2. Dispatch per query mirrors the auto-dimension driver's size split:
//      instances below direct_cutoff short-circuit to the sequential
//      oracles (MinDisk::solve_into over an arena buffer, Seidel for LP),
//      larger ones run the low-load Clarkson engine over distributed_nodes
//      gossip nodes with the config engine_config_for(q) publishes.
//   3. A distributed solve is one in-flight core::LowLoadRun, held across
//      epochs; at most one is in flight.  Each run_epoch() does one unit
//      of work: either it serves a batch — up to max_batch admissible
//      queries of the oldest admissible query's kind, in arrival order,
//      where a distributed-size query is admissible only while no run is
//      in flight and starts the run — or it advances the in-flight run by
//      one round.  It steps when nothing is admissible or when the
//      previous epoch served a batch beside the run, so a direct query
//      waits about one round, not one solve, and a run of R rounds
//      finishes within 2R + 1 epochs.  Batch responses are appended in
//      admission order; a run's response in the epoch of its last round.
//
// ## The serve-path allocation contract
//
// Steady-state serving of direct min-disk queries allocates nothing: slots
// cycle between the free pool, the queue, and the batch by move (payload
// buffers keep their capacity); every shuffle buffer is a slot in a
// per-worker util::SlabPool arena, recycled at epoch end with one
// O(classes) reset; the solve itself is MinDisk::solve_into, which reuses
// the response's basis capacity.  bench/service_qps gates this with an
// operator-new counter over a warmed all-small phase.  Distributed runs and
// direct LP solves are the compute backend, not the serve path — they
// allocate internally.
//
// ## Bit-identity
//
// A served solution is bit-identical to the corresponding engine run:
// direct min-disk responses equal MinDisk::solve(points) (solve_into is
// solve() with a caller-owned buffer), and distributed responses equal
// run_low_load(problem, payload, distributed_nodes, engine_config_for(q))
// — the config is exposed precisely so tests and CI can re-run it and
// compare field by field.  Stepping a run between epochs draws no RNG, so
// the interleaving cannot change it.  cfg.workers only moves the per-query
// compute onto threads; every solve consumes query-local state, so
// responses (and the epoch schedule) are bit-identical for every worker
// count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/low_load.hpp"
#include "obs/obs.hpp"
#include "problems/min_disk.hpp"
#include "service/query.hpp"
#include "util/slab.hpp"
#include "util/thread_pool.hpp"

namespace lpt::service {

struct ServiceConfig {
  std::size_t direct_cutoff = 2048;    // payload size below which the query
                                       // short-circuits to the direct solver
  std::size_t distributed_nodes = 64;  // gossip nodes for large instances
  std::size_t max_batch = 256;         // queries admitted per epoch
  std::size_t workers = 1;             // worker lanes per epoch (each owns a
                                       // slab arena; responses bit-identical
                                       // for every value)
  core::LowLoadConfig engine;          // distributed-run template; the seed
                                       // field is overridden per query (see
                                       // engine_config_for)
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t served = 0;
  std::uint64_t epochs = 0;
  std::uint64_t direct_solves = 0;
  std::uint64_t distributed_solves = 0;
  std::uint64_t unsupported = 0;
  std::uint64_t transient_failures = 0;  // distributed solves lost to
                                         // shard::ShardError (worker deaths
                                         // beyond the recovery budget); the
                                         // service answered
                                         // kTransientFailure and kept going
  std::uint64_t distributed_rounds = 0;  // summed over distributed solves
  std::uint64_t arena_resets = 0;        // SlabPool::reset calls (epochs x
                                         // worker arenas)
  std::uint64_t serve_ns_total = 0;      // summed per-query solve_nanos
  std::uint64_t serve_ns_max = 0;        // slowest single query so far
                                         // (percentiles: the obs registry
                                         // histogram "service.serve_ns")
};

class LptService {
 public:
  explicit LptService(ServiceConfig cfg = {});

  /// A request slot from the free pool (fields reset, payload capacity
  /// kept), or a fresh one while the pool warms up.  Using these is what
  /// keeps steady-state submission allocation-free; a caller-constructed
  /// QueryRequest works too.
  QueryRequest acquire_request();

  /// Queue q for a later epoch.  The slot's buffers travel by move.
  void submit(QueryRequest&& q);

  /// Queries not yet answered: the queue plus the in-flight run.
  std::size_t pending() const noexcept {
    return queue_.size() + (run_ ? 1 : 0);
  }

  /// One unit of work (see the header comment): serve one batch, or
  /// advance the in-flight distributed run by one round.  Appends the
  /// responses completed by this epoch to `out` and returns their number
  /// (0 when idle, and for a round that does not end the run).
  std::size_t run_epoch(std::vector<QueryResponse>& out);

  /// Return a consumed response slot for reuse by a later epoch.
  void recycle_response(QueryResponse&& r);

  /// The exact engine config q's distributed run uses: cfg.engine with the
  /// seed derived from (q.seed, q.id) by a SplitMix64-style mix, so equal
  /// payloads submitted under different ids still take independent
  /// randomness.  Re-running run_low_load with this config reproduces the
  /// served solution bit-for-bit — the CI gate does exactly that.
  core::LowLoadConfig engine_config_for(const QueryRequest& q) const;

  const ServiceConfig& config() const noexcept { return cfg_; }
  const ServiceStats& stats() const noexcept { return stats_; }

 private:
  /// The in-flight distributed solve, over the problem type: the request
  /// slot it answers, then the problem object and the core::LowLoadRun
  /// that borrows it (service.cpp).  Heap-held, so the addresses the run
  /// holds survive a move of the service.
  class DistributedRun {
   public:
    explicit DistributedRun(QueryRequest&& q) : request(std::move(q)) {}
    virtual ~DistributedRun() = default;
    DistributedRun(const DistributedRun&) = delete;
    DistributedRun& operator=(const DistributedRun&) = delete;

    /// The first call does the run's set-up; every later call one round.
    virtual void advance() = 0;
    virtual bool done() const = 0;
    /// After done(): move the solution and round count into r.
    virtual void finish(QueryResponse& r) = 0;

    QueryRequest request;
    std::uint64_t solve_nanos = 0;  // summed set-up and step time so far
  };
  template <typename P>
  class RunOf;

  bool distributed(const QueryRequest& q) const noexcept;
  bool admissible(const QueryRequest& q) const noexcept {
    return !run_ || !distributed(q);
  }
  void serve_batch(std::vector<QueryResponse>& out);
  std::optional<QueryRequest> admit_batch();  // the run to start, if any
  void start_run(QueryRequest&& q, std::vector<QueryResponse>& out);
  void advance_run(std::vector<QueryResponse>& out);
  QueryResponse& new_response(std::vector<QueryResponse>& out);
  void serve_one(const QueryRequest& q, QueryResponse& r,
                 util::SlabPool<geom::Vec2>& arena) const;
  void serve_min_disk(const QueryRequest& q, QueryResponse& r,
                      util::SlabPool<geom::Vec2>& arena) const;
  void serve_lp2d(const QueryRequest& q, QueryResponse& r) const;

  ServiceConfig cfg_;
  ServiceStats stats_;
  problems::MinDisk min_disk_;
  std::vector<QueryRequest> queue_;      // pending, arrival order
  std::vector<QueryRequest> batch_;      // the epoch under execution
  std::unique_ptr<DistributedRun> run_;  // the in-flight run, or null
  bool batch_beside_run_ = false;        // the last epoch served a batch
                                         // while run_ was in flight
  std::vector<QueryRequest> free_pool_;  // recycled request slots
  std::vector<QueryResponse> response_pool_;  // recycled response slots
  std::vector<util::SlabPool<geom::Vec2>> arenas_;  // one per worker lane
  std::unique_ptr<util::ThreadPool> pool_;  // lazily built when workers > 1

  // Registry metrics, resolved once at construction so the per-epoch hot
  // path is pure relaxed-atomic bumps (no name lookups, no allocation —
  // the serve-path contract).
  obs::Counter& obs_submitted_ = obs::counter("service.queries_submitted");
  obs::Counter& obs_served_ = obs::counter("service.queries_served");
  obs::Counter& obs_epochs_ = obs::counter("service.epochs");
  obs::Counter& obs_direct_ = obs::counter("service.direct_solves");
  obs::Counter& obs_distributed_ = obs::counter("service.distributed_solves");
  obs::Counter& obs_transient_ = obs::counter("service.transient_failures");
  obs::Counter& obs_unsupported_ = obs::counter("service.unsupported");
  obs::Histogram& obs_serve_ns_ = obs::histogram("service.serve_ns");
  obs::Gauge& obs_arena_bytes_ = obs::gauge("service.arena_bytes");
};

}  // namespace lpt::service
