#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <span>
#include <utility>

#include "problems/linear_program2d.hpp"
#include "util/assert.hpp"

namespace lpt::service {

namespace {

std::uint64_t nanos_between(std::chrono::steady_clock::time_point t0,
                            std::chrono::steady_clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

// Where a distributed run of each problem reads its input and writes its
// answer.
std::span<const geom::Vec2> payload(const problems::MinDisk&,
                                    const QueryRequest& q) {
  return q.points;
}
std::span<const lp::Halfplane> payload(const problems::LinearProgram2D&,
                                       const QueryRequest& q) {
  return q.planes;
}
void put_solution(QueryResponse& r, problems::MinDiskSolution&& s) {
  r.disk = std::move(s);
}
void put_solution(QueryResponse& r, problems::Lp2dSolution&& s) {
  r.lp = std::move(s);
}

/// Clear a recycled response slot for q (buffers keep their capacity).
void reset_response(const QueryRequest& q, QueryResponse& r) {
  r.id = q.id;
  r.kind = q.kind;
  r.status = QueryStatus::kOk;
  r.engine = EngineUsed::kNone;
  r.disk.disk = geom::Circle{};
  r.disk.basis.clear();
  r.lp.value = lp::LpValue{};
  r.lp.basis.clear();
  r.rounds = 0;
}

}  // namespace

template <typename P>
class LptService::RunOf final : public LptService::DistributedRun {
 public:
  RunOf(QueryRequest&& q, P problem, std::size_t nodes,
        core::LowLoadConfig cfg)
      : DistributedRun(std::move(q)),
        problem_(std::move(problem)),
        nodes_(nodes),
        cfg_(std::move(cfg)) {}

  void advance() override {
    if (run_) {
      run_->step();
    } else {
      run_.emplace(problem_, payload(problem_, request), nodes_, cfg_);
    }
  }
  bool done() const override { return run_ && run_->done(); }
  void finish(QueryResponse& r) override {
    auto res = run_->finish();
    put_solution(r, std::move(res.solution));
    r.rounds = static_cast<std::uint32_t>(res.stats.rounds_to_first);
  }

 private:
  P problem_;
  std::size_t nodes_;
  core::LowLoadConfig cfg_;
  std::optional<core::LowLoadRun<P>> run_;  // engaged by the first advance
};

LptService::LptService(ServiceConfig cfg) : cfg_(cfg) {
  LPT_CHECK_MSG(cfg_.max_batch >= 1, "LptService: max_batch must be >= 1");
  LPT_CHECK_MSG(cfg_.distributed_nodes >= 1,
                "LptService: distributed_nodes must be >= 1");
  if (cfg_.workers == 0) cfg_.workers = 1;
  arenas_.resize(cfg_.workers);
}

QueryRequest LptService::acquire_request() {
  if (free_pool_.empty()) return QueryRequest{};
  QueryRequest q = std::move(free_pool_.back());
  free_pool_.pop_back();
  q.id = 0;
  q.kind = QueryKind::kMinDisk;
  q.seed = 0;
  q.points.clear();  // capacity kept — the point of the pool
  q.planes.clear();
  q.objective = {0.0, -1.0};
  return q;
}

void LptService::submit(QueryRequest&& q) {
  ++stats_.submitted;
  obs_submitted_.add(1);
  queue_.push_back(std::move(q));
}

void LptService::recycle_response(QueryResponse&& r) {
  response_pool_.push_back(std::move(r));
}

core::LowLoadConfig LptService::engine_config_for(
    const QueryRequest& q) const {
  core::LowLoadConfig cfg = cfg_.engine;
  cfg.seed = q.seed ^ (0x9e3779b97f4a7c15ULL * (q.id + 1));
  return cfg;
}

bool LptService::distributed(const QueryRequest& q) const noexcept {
  switch (q.kind) {
    case QueryKind::kMinDisk:
      return q.points.size() >= cfg_.direct_cutoff;
    case QueryKind::kLp2d:
      return q.planes.size() >= cfg_.direct_cutoff;
    case QueryKind::kMinBall:
    case QueryKind::kHittingSet:
      return false;  // unsupported: answered without a solve
  }
  return false;
}

std::optional<QueryRequest> LptService::admit_batch() {
  // One batch = up to max_batch admissible queries of the oldest admissible
  // query's kind, in arrival order; everything else compacts forward
  // (stable) for a later epoch.  The first distributed-size query taken
  // starts the run, so it is admissible only while no run is in flight;
  // later ones wait for that run to end without blocking the direct
  // queries behind them.  Moves only — slot buffers keep their capacity
  // through the cycle.
  std::optional<QueryRequest> start;
  const QueryKind kind =
      std::find_if(queue_.begin(), queue_.end(), [&](const QueryRequest& q) {
        return admissible(q);
      })->kind;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    QueryRequest& q = queue_[i];
    const bool fits = q.kind == kind &&
                      batch_.size() + (start ? 1 : 0) < cfg_.max_batch;
    if (fits && !distributed(q)) {
      batch_.push_back(std::move(q));
    } else if (fits && !run_ && !start) {
      start.emplace(std::move(q));
    } else {
      if (kept != i) queue_[kept] = std::move(q);
      ++kept;
    }
  }
  queue_.resize(kept);
  return start;
}

std::size_t LptService::run_epoch(std::vector<QueryResponse>& out) {
  if (pending() == 0) return 0;
  obs::trace_tick();  // epochs are the service's sampling unit
  obs::TraceSpan epoch_span("service.epoch", stats_.epochs);
  const std::size_t base = out.size();
  // The batch comes first, but the in-flight run gets this epoch when
  // nothing is admissible or the last epoch already served a batch beside
  // it: a direct query then waits at most about one round, and a run of R
  // rounds still ends within 2R + 1 epochs.
  if (run_ && (batch_beside_run_ ||
               std::none_of(queue_.begin(), queue_.end(),
                            [&](const QueryRequest& q) {
                              return admissible(q);
                            }))) {
    batch_beside_run_ = false;
    obs::TraceSpan step_span("service.epoch_step", run_->request.id);
    advance_run(out);
  } else {
    batch_beside_run_ = run_ != nullptr;
    serve_batch(out);
  }
  const std::size_t served = out.size() - base;

  // Stats accounting runs serially after the parallel region.  The obs
  // bumps mirror the ServiceStats fields one-for-one (the struct stays
  // the view; the registry is the cross-layer aggregate), and the
  // histogram feeds the per-query latency percentiles.
  for (std::size_t i = 0; i < served; ++i) {
    const QueryResponse& r = out[base + i];
    switch (r.engine) {
      case EngineUsed::kDirect:
        ++stats_.direct_solves;
        obs_direct_.add(1);
        break;
      case EngineUsed::kDistributed:
        ++stats_.distributed_solves;
        stats_.distributed_rounds += r.rounds;
        obs_distributed_.add(1);
        break;
      case EngineUsed::kNone:
        break;
    }
    if (r.status == QueryStatus::kUnsupported) {
      ++stats_.unsupported;
      obs_unsupported_.add(1);
    }
    if (r.status == QueryStatus::kTransientFailure) {
      ++stats_.transient_failures;
      obs_transient_.add(1);
    }
    stats_.serve_ns_total += r.solve_nanos;
    if (r.solve_nanos > stats_.serve_ns_max) {
      stats_.serve_ns_max = r.solve_nanos;
    }
    obs_serve_ns_.record(r.solve_nanos);
  }

  for (QueryRequest& q : batch_) free_pool_.push_back(std::move(q));
  batch_.clear();
  std::size_t arena_bytes = 0;
  for (util::SlabPool<geom::Vec2>& a : arenas_) {
    arena_bytes += a.arena_bytes();
    a.reset();
    ++stats_.arena_resets;
  }
  obs_arena_bytes_.set(static_cast<std::int64_t>(arena_bytes));
  ++stats_.epochs;
  obs_epochs_.add(1);
  stats_.served += served;
  obs_served_.add(served);
  return served;
}

void LptService::serve_batch(std::vector<QueryResponse>& out) {
  std::optional<QueryRequest> start;
  {
    obs::TraceSpan admit_span("service.epoch_admit", queue_.size());
    start = admit_batch();
  }
  const std::size_t served = batch_.size();
  const std::size_t base = out.size();
  for (std::size_t i = 0; i < served; ++i) new_response(out);

  // Fixed contiguous chunks, one worker arena per chunk: the partition
  // depends only on (served, workers), and each solve touches only its own
  // query, response slot, and arena — responses are bit-identical for
  // every worker count (the same contract as the engines' stage A).  The
  // single-worker path is a plain loop: parallel_chunks would build a
  // std::function whose captures exceed the small-buffer size, and that
  // heap allocation per epoch would break the serve-path contract.
  const std::size_t workers = arenas_.size();
  obs::TraceSpan serve_span("service.epoch_serve", served);
  if (workers == 1) {
    for (std::size_t i = 0; i < served; ++i) {
      serve_one(batch_[i], out[base + i], arenas_[0]);
    }
  } else {
    const std::size_t chunk = (served + workers - 1) / workers;
    if (!pool_) pool_ = std::make_unique<util::ThreadPool>(workers);
    util::parallel_chunks(
        pool_.get(), served, chunk,
        [&](std::size_t k, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            serve_one(batch_[i], out[base + i], arenas_[k]);
          }
        });
  }
  if (start) start_run(std::move(*start), out);
}

QueryResponse& LptService::new_response(std::vector<QueryResponse>& out) {
  if (response_pool_.empty()) {
    out.emplace_back();
  } else {
    out.push_back(std::move(response_pool_.back()));
    response_pool_.pop_back();
  }
  return out.back();
}

void LptService::start_run(QueryRequest&& q,
                           std::vector<QueryResponse>& out) {
  core::LowLoadConfig engine = engine_config_for(q);
  if (q.kind == QueryKind::kLp2d) {
    problems::LinearProgram2D p(q.objective);
    run_ = std::make_unique<RunOf<problems::LinearProgram2D>>(
        std::move(q), std::move(p), cfg_.distributed_nodes, std::move(engine));
  } else {
    run_ = std::make_unique<RunOf<problems::MinDisk>>(
        std::move(q), min_disk_, cfg_.distributed_nodes, std::move(engine));
  }
  advance_run(out);  // the set-up; an empty payload is answered right here
}

void LptService::advance_run(std::vector<QueryResponse>& out) {
  const auto t0 = std::chrono::steady_clock::now();
  bool failed = false;
  try {
    run_->advance();
  } catch (const shard::ShardError&) {
    // Worker deaths beyond the recovery budget kill this solve, not the
    // server: the query answers kTransientFailure (solution fields stay
    // at their reset defaults) and the slot frees for the next run.
    failed = true;
  }
  if (!failed && !run_->done()) {
    run_->solve_nanos +=
        nanos_between(t0, std::chrono::steady_clock::now());
    return;
  }
  QueryResponse& r = new_response(out);
  reset_response(run_->request, r);
  if (failed) {
    r.status = QueryStatus::kTransientFailure;
  } else {
    r.engine = EngineUsed::kDistributed;
    run_->finish(r);
  }
  const std::uint64_t nanos = run_->solve_nanos;
  free_pool_.push_back(std::move(run_->request));
  run_.reset();  // shuts the run's shard workers down, if it had any
  r.solve_nanos = nanos + nanos_between(t0, std::chrono::steady_clock::now());
}

void LptService::serve_one(const QueryRequest& q, QueryResponse& r,
                           util::SlabPool<geom::Vec2>& arena) const {
  reset_response(q, r);
  const auto t0 = std::chrono::steady_clock::now();
  switch (q.kind) {
    case QueryKind::kMinDisk:
      serve_min_disk(q, r, arena);
      break;
    case QueryKind::kLp2d:
      serve_lp2d(q, r);
      break;
    case QueryKind::kMinBall:
    case QueryKind::kHittingSet:
      r.status = QueryStatus::kUnsupported;
      break;
  }
  r.solve_nanos = nanos_between(t0, std::chrono::steady_clock::now());
}

void LptService::serve_min_disk(const QueryRequest& q, QueryResponse& r,
                                util::SlabPool<geom::Vec2>& arena) const {
  const std::span<const geom::Vec2> pts(q.points);
  r.engine = EngineUsed::kDirect;
  // Shuffle buffer from the epoch arena: allocate_for is O(1) and, once
  // the arena chunks exist, allocation-free; the slot is reclaimed by
  // the epoch-end reset (no per-query release).
  const auto ref = arena.allocate_for(pts.empty() ? 1 : pts.size());
  min_disk_.solve_into(
      pts,
      std::span<geom::Vec2>(arena.data(ref),
                            util::SlabPool<geom::Vec2>::capacity(ref)),
      r.disk);
}

void LptService::serve_lp2d(const QueryRequest& q, QueryResponse& r) const {
  r.engine = EngineUsed::kDirect;
  r.lp = problems::LinearProgram2D(q.objective)
             .solve(std::span<const lp::Halfplane>(q.planes));
}

}  // namespace lpt::service
