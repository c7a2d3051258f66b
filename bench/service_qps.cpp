// SERVICE-QPS — throughput and latency of the lpt_service front end under
// an open-loop arrival process, with the serve-path contracts hard-gated:
//
//   * zero steady-state allocations while serving direct min-disk queries
//     (a global operator-new counter over a warmed all-small phase — any
//     heap traffic aborts the bench under --gate-allocs, the default);
//   * small queries measurably faster through the direct short-circuit
//     than through the distributed engine (small_direct_speedup);
//   * every served solution bit-identical to the corresponding engine run
//     (direct responses vs MinDisk::solve, distributed responses vs
//     run_low_load under engine_config_for — checked here with LPT_CHECK
//     and re-checked field by field from the JSON by the CI gate).
//
// Usage: service_qps [--speedup-k=64] [--queries=2048] [--mixed-queries=400]
//                    [--small-n=256] [--large-n=4096] [--large-every=64]
//                    [--cutoff=2048] [--nodes=64] [--batch=256] [--qps=8000]
//                    [--gate-allocs=1] [--gate-overhead=1]
//                    [--trace=trace.json] [--trace-period=64]
//                    [--obs=obs.json]
//
// Latency percentiles come from an obs::Histogram (log-bucketed, <=3.2%
// overstatement) instead of sorting raw latency vectors; the tracing
// overhead gate holds a traced steady pump (default sampling, period 64)
// to <= 1% wall overhead against an untraced one: the fastest traced rep
// over the fastest untraced rep, from alternating reps.  --trace records
// the remaining phases as a Chrome trace (service epoch spans + engine
// round spans; the zero-alloc gate then runs with tracing ACTIVE, proving
// the contract survives it); --obs dumps the full metrics registry JSON
// at exit.
//
// Writes BENCH_service_qps.json: scalars achieved_qps, p50_us / p95_us /
// p99_us, steady_qps, steady_state_allocs, small_direct_speedup,
// serve_ns_p50/p95/p99, trace_overhead_ratio, peak_rss_bytes, and a
// "verify" series with one row per checked query carrying the served and
// engine solution fields side by side.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "bench_json.hpp"
#include "common.hpp"
#include "core/low_load.hpp"
#include "obs/obs.hpp"
#include "problems/min_disk.hpp"
#include "service/service.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workloads/disk_data.hpp"

// --- Global allocation counter (the steady-state gate). -------------------
//
// Counting, not tracing: every successful operator new bumps one relaxed
// atomic.  The steady phase snapshots the counter around a warmed serving
// loop; a nonzero delta means the serve path touched the heap.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = std::malloc(size ? size : 1)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace lpt;

// Latencies land in a log-bucketed histogram as nanoseconds; percentiles
// are nearest-rank bucket upper edges, so they overstate the sorted-vector
// oracle by at most 1/32 (tests/test_obs.cpp pins the bound exactly).
double percentile_us(const lpt::obs::Histogram& h, double q) {
  return static_cast<double>(h.percentile(q)) * 1e-3;
}

void check_served(const service::LptService& svc,
                  const service::QueryRequest& q,
                  const service::QueryResponse& r, bench::BenchJson& json,
                  const char* tag) {
  const problems::MinDisk p;
  problems::MinDiskSolution engine;
  if (r.engine == service::EngineUsed::kDirect) {
    engine = p.solve(q.points);
  } else {
    engine = core::run_low_load(p, std::span<const geom::Vec2>(q.points),
                                svc.config().distributed_nodes,
                                svc.engine_config_for(q))
                 .solution;
  }
  LPT_CHECK_MSG(r.disk == engine,
                "served solution diverged from the batch engine");
  json.add_row("verify",
               {{"id", static_cast<double>(q.id)},
                {"n", static_cast<double>(q.points.size())},
                {"distributed",
                 r.engine == service::EngineUsed::kDistributed ? 1.0 : 0.0},
                {"served_cx", r.disk.disk.center.x},
                {"served_cy", r.disk.disk.center.y},
                {"served_r", r.disk.disk.radius},
                {"served_basis_n", static_cast<double>(r.disk.basis.size())},
                {"engine_cx", engine.disk.center.x},
                {"engine_cy", engine.disk.center.y},
                {"engine_r", engine.disk.radius},
                {"engine_basis_n", static_cast<double>(engine.basis.size())}});
  std::printf("  verify[%s]: id=%llu n=%zu engine=%s r=%.17g  OK\n", tag,
              static_cast<unsigned long long>(q.id), q.points.size(),
              r.engine == service::EngineUsed::kDistributed ? "distributed"
                                                            : "direct",
              r.disk.disk.radius);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto speedup_k = static_cast<std::size_t>(cli.get_int("speedup-k", 64));
  const auto queries = static_cast<std::size_t>(cli.get_int("queries", 2048));
  const auto mixed_queries =
      static_cast<std::size_t>(cli.get_int("mixed-queries", 400));
  const auto small_n = static_cast<std::size_t>(cli.get_int("small-n", 256));
  const auto large_n = static_cast<std::size_t>(cli.get_int("large-n", 4096));
  const auto large_every =
      static_cast<std::size_t>(cli.get_int("large-every", 64));
  const auto cutoff = static_cast<std::size_t>(cli.get_int("cutoff", 2048));
  const auto nodes = static_cast<std::size_t>(cli.get_int("nodes", 64));
  const auto batch = static_cast<std::size_t>(cli.get_int("batch", 256));
  const double target_qps = cli.get_double("qps", 8000.0);
  const bool gate_allocs = cli.get_bool("gate-allocs", true);
  const bool gate_overhead = cli.get_bool("gate-overhead", true);
  const std::string trace_path = cli.get("trace", "");
  const auto trace_period =
      static_cast<std::uint32_t>(cli.get_int("trace-period", 64));
  const std::string obs_path = cli.get("obs", "");
  const auto dataset = bench::dataset_flag(cli);

  bench::banner("Service QPS: query front end over the LP-type engines",
                "ROADMAP north star; direct short-circuit vs distributed "
                "dispatch, open-loop latency");
  LPT_CHECK_MSG(small_n < cutoff && large_n >= cutoff,
                "--small-n must fall below --cutoff and --large-n above");

  bench::WallTimer wall;
  bench::BenchJson json("service_qps");
  util::Table table({"phase", "queries", "wall s", "qps", "note"});

  // Fixed per-query payloads: instance k is a pure function of k, so the
  // verify re-runs below see exactly what was served.
  auto instance = [&](std::size_t n, std::uint64_t k) {
    util::Rng rng(0x5e271ceULL * (k + 1) + n);
    return workloads::generate_disk_dataset(dataset, n, rng);
  };

  service::ServiceConfig cfg;
  cfg.direct_cutoff = cutoff;
  cfg.distributed_nodes = nodes;
  cfg.max_batch = batch;

  // --- Phase 1: direct short-circuit speedup on small instances. ---------
  // The same speedup_k small queries served twice: once with the size
  // dispatch (direct path), once through a cutoff-0 service (every query
  // forced onto the distributed engine).  The ratio is the value of the
  // short-circuit.
  std::vector<std::vector<geom::Vec2>> small_pool(speedup_k);
  for (std::size_t k = 0; k < speedup_k; ++k) {
    small_pool[k] = instance(small_n, k);
  }
  std::vector<service::QueryResponse> responses;
  responses.reserve(batch + speedup_k);
  double direct_secs = 0.0;
  double dist_secs = 0.0;
  {
    service::LptService svc(cfg);
    bench::WallTimer t;
    for (std::size_t k = 0; k < speedup_k; ++k) {
      auto q = svc.acquire_request();
      q.id = k;
      q.seed = 7;
      q.points = small_pool[k];
      svc.submit(std::move(q));
      while (svc.pending() > 0) svc.run_epoch(responses);
    }
    direct_secs = t.seconds();
    for (const auto& r : responses) {
      LPT_CHECK_MSG(r.engine == service::EngineUsed::kDirect,
                    "small query missed the direct short-circuit");
    }
    // Bit-identity: the direct path is MinDisk::solve with an arena buffer.
    const problems::MinDisk p;
    for (std::size_t k = 0; k < speedup_k; ++k) {
      LPT_CHECK_MSG(responses[k].disk == p.solve(small_pool[k]),
                    "direct-served solution diverged from MinDisk::solve");
    }
    responses.clear();
  }
  {
    service::ServiceConfig forced = cfg;
    forced.direct_cutoff = 0;  // everything through the distributed engine
    service::LptService svc(forced);
    bench::WallTimer t;
    for (std::size_t k = 0; k < speedup_k; ++k) {
      auto q = svc.acquire_request();
      q.id = k;
      q.seed = 7;
      q.points = small_pool[k];
      svc.submit(std::move(q));
      while (svc.pending() > 0) svc.run_epoch(responses);
    }
    dist_secs = t.seconds();
    for (const auto& r : responses) {
      LPT_CHECK_MSG(r.engine == service::EngineUsed::kDistributed,
                    "cutoff-0 query skipped the distributed engine");
    }
    responses.clear();
  }
  const double speedup = direct_secs > 0.0 ? dist_secs / direct_secs : 0.0;
  table.add_row({"speedup/direct", util::fmt(speedup_k),
                 util::fmt(direct_secs, 4),
                 util::fmt(static_cast<double>(speedup_k) / direct_secs, 0),
                 "size dispatch"});
  table.add_row({"speedup/forced-dist", util::fmt(speedup_k),
                 util::fmt(dist_secs, 4),
                 util::fmt(static_cast<double>(speedup_k) / dist_secs, 0),
                 "cutoff=0"});
  std::printf("small_direct_speedup = %.1fx (%zu x %zu-point queries)\n\n",
              speedup, speedup_k, small_n);
  json.set("small_direct_speedup", speedup);

  // --- Phase 1.5: tracing overhead hard gate. ----------------------------
  // The acceptance contract: tracing enabled at default sampling (one
  // sampled epoch in sample_period) costs <= 1% wall on the closed-loop
  // steady pump.  Alternating traced/untraced reps share one warmed
  // service; the gated statistic is traced_min / untraced_min, the ratio
  // of each side's least-disturbed rep.  Scheduler noise is additive and
  // one-sided (it only ever slows a rep), so each side's minimum is the
  // closest to its true cost, while a real trace cost slows every traced
  // rep and survives its minimum.  (The minimum of the per-pair ratios,
  // the earlier statistic, is dragged below 1 by a disturbed untraced
  // rep, so it could not see a cost of a few percent.)  The real
  // overhead — a relaxed atomic load per trace site plus one sampled
  // epoch's events — is far below the gate.
  double trace_overhead_ratio = 0.0;
  if (gate_overhead && obs::kTraceCompiled) {
    service::LptService svc(cfg);
    std::uint64_t next_id = 0;
    auto pump = [&](std::size_t count) {
      std::size_t done = 0;
      while (done < count) {
        const std::size_t burst = std::min(batch, count - done);
        for (std::size_t j = 0; j < burst; ++j) {
          auto q = svc.acquire_request();
          q.id = next_id++;
          q.seed = 7;
          const auto& inst = small_pool[q.id % small_pool.size()];
          q.points.assign(inst.begin(), inst.end());
          svc.submit(std::move(q));
        }
        while (svc.pending() > 0) svc.run_epoch(responses);
        done += burst;
        for (auto& r : responses) svc.recycle_response(std::move(r));
        responses.clear();
      }
    };
    // Long timed regions are the other half of the noise filter: a
    // few-ms pump flaps past 1% from scheduler jitter alone even at
    // min-of-7, so each rep pumps at least 8k queries (~tens of ms).
    const std::size_t per_rep = std::max<std::size_t>(queries, 8192);
    pump(std::min<std::size_t>(per_rep, 1024));  // warm slots + arenas
    double traced_min = 0.0;
    double untraced_min = 0.0;
    const int pairs = 7;
    for (int rep = 0; rep < pairs; ++rep) {
      obs::TraceConfig tc;  // default sampling: period 64
      obs::enable_tracing(tc);
      // enable_tracing just wrote the multi-MB ring, evicting the serve
      // working set from cache; re-warm before the timer (and
      // symmetrically on the untraced side) so the ratio measures
      // trace-site cost, not a one-off cache refill.
      pump(1024);
      double traced_secs = 0.0;
      {
        bench::WallTimer t;
        pump(per_rep);
        traced_secs = t.seconds();
        if (rep == 0 || traced_secs < traced_min) traced_min = traced_secs;
      }
      obs::disable_tracing();
      {
        pump(1024);
        bench::WallTimer t;
        pump(per_rep);
        const double secs = t.seconds();
        if (rep == 0 || secs < untraced_min) untraced_min = secs;
      }
    }
    trace_overhead_ratio = untraced_min > 0.0 ? traced_min / untraced_min
                                              : 0.0;
    table.add_row({"trace-overhead", util::fmt(per_rep * pairs * 2),
                   util::fmt(traced_min + untraced_min, 4),
                   util::fmt(trace_overhead_ratio, 4),
                   "traced_min / untraced_min"});
    std::printf("trace overhead: traced_min=%.4fs untraced_min=%.4fs "
                "ratio=%.4f (gate: <= 1.01)\n\n",
                traced_min, untraced_min, trace_overhead_ratio);
    std::fflush(stdout);  // keep the diagnostics if the gate aborts
    LPT_CHECK_MSG(trace_overhead_ratio <= 1.01,
                  "tracing at default sampling cost more than 1% wall on "
                  "the steady serve loop");
  }
  json.set("trace_overhead_ratio", trace_overhead_ratio);

  // From here on, tracing (when requested) stays enabled across the
  // remaining phases — including the zero-allocation gate, which must
  // hold with tracing ACTIVE: the ring is preallocated and recording is
  // write-only into it.
  if (!trace_path.empty()) {
    obs::TraceConfig tc;
    tc.sample_period = trace_period;
    obs::enable_tracing(tc);
  }

  // --- Phase 2: steady-state serving, allocation-gated. ------------------
  // All-small closed-loop workload: warm one full recycle cycle (request
  // slots, response slots, arenas, queue capacity), then count operator-new
  // calls over the measured epochs.  The serve-path contract says zero.
  std::uint64_t steady_allocs = 0;
  double steady_qps = 0.0;
  {
    service::LptService svc(cfg);
    const std::size_t warm = std::min<std::size_t>(queries / 4 + batch, 1024);
    std::uint64_t next_id = 0;
    auto pump = [&](std::size_t count) {
      std::size_t done = 0;
      while (done < count) {
        const std::size_t burst = std::min(batch, count - done);
        for (std::size_t j = 0; j < burst; ++j) {
          auto q = svc.acquire_request();
          q.id = next_id++;
          q.seed = 7;
          const auto& inst = small_pool[q.id % small_pool.size()];
          q.points.assign(inst.begin(), inst.end());
          svc.submit(std::move(q));
        }
        while (svc.pending() > 0) svc.run_epoch(responses);
        done += burst;
        for (auto& r : responses) svc.recycle_response(std::move(r));
        responses.clear();
      }
    };
    pump(warm);
    const std::uint64_t allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
    bench::WallTimer t;
    pump(queries);
    const double secs = t.seconds();
    steady_allocs =
        g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    steady_qps = secs > 0.0 ? static_cast<double>(queries) / secs : 0.0;
    table.add_row({"steady/all-small", util::fmt(queries), util::fmt(secs, 4),
                   util::fmt(steady_qps, 0),
                   gate_allocs ? "alloc-gated" : "alloc-counted"});
    std::printf("steady phase: %llu heap allocations over %zu served "
                "queries\n\n",
                static_cast<unsigned long long>(steady_allocs), queries);
    if (gate_allocs) {
      LPT_CHECK_MSG(steady_allocs == 0,
                    "steady-state serve path touched the heap");
    }
  }
  json.set("steady_state_allocs", steady_allocs);
  json.set("steady_qps", steady_qps);

  // --- Phase 3: open-loop mixed workload, qps + latency percentiles. -----
  // Arrivals follow a Poisson process at --qps (exponential gaps, fixed
  // seed); the server drains whatever has arrived each epoch.  Open loop:
  // arrivals do not wait for the server, so queueing delay shows up in the
  // percentiles (each round of a large query's run delays the epochs
  // behind it).
  obs::Histogram latency_hist;  // open-loop latency, nanoseconds
  double mixed_secs = 0.0;
  std::size_t mixed_large = 0;
  {
    service::LptService svc(cfg);
    util::Rng arrival_rng(42);
    std::vector<std::vector<geom::Vec2>> large_pool;
    for (std::size_t k = 0; k < (mixed_queries + large_every - 1) /
                                    (large_every ? large_every : 1);
         ++k) {
      large_pool.push_back(instance(large_n, 1000 + k));
    }
    std::vector<double> arrival_s(mixed_queries);
    double at = 0.0;
    for (std::size_t k = 0; k < mixed_queries; ++k) {
      // Exponential inter-arrival gap with mean 1/qps.
      at += -std::log(1.0 - arrival_rng.uniform()) / target_qps;
      arrival_s[k] = at;
    }
    const auto t0 = std::chrono::steady_clock::now();
    auto now_s = [&] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    };
    std::size_t submitted = 0;
    std::size_t served = 0;
    while (served < mixed_queries) {
      const double now = now_s();
      while (submitted < mixed_queries && arrival_s[submitted] <= now) {
        auto q = svc.acquire_request();
        q.id = submitted;
        q.seed = 7;
        const bool large = large_every && (submitted % large_every == 0);
        if (large) {
          ++mixed_large;
          q.points = large_pool[submitted / large_every];
        } else {
          q.points = small_pool[submitted % small_pool.size()];
        }
        svc.submit(std::move(q));
        ++submitted;
      }
      if (svc.pending() > 0) {
        served += svc.run_epoch(responses);
        const double done = now_s();
        for (auto& r : responses) {
          latency_hist.record(
              static_cast<std::uint64_t>((done - arrival_s[r.id]) * 1e9));
          svc.recycle_response(std::move(r));
        }
        responses.clear();
      }
    }
    mixed_secs = now_s();
  }
  const double achieved_qps =
      mixed_secs > 0.0 ? static_cast<double>(mixed_queries) / mixed_secs : 0.0;
  const double p50 = percentile_us(latency_hist, 0.50);
  const double p95 = percentile_us(latency_hist, 0.95);
  const double p99 = percentile_us(latency_hist, 0.99);
  table.add_row({"mixed/open-loop", util::fmt(mixed_queries),
                 util::fmt(mixed_secs, 4), util::fmt(achieved_qps, 0),
                 std::string(util::fmt(mixed_large)) + " large"});
  std::printf("open loop @ %.0f qps target: achieved %.0f qps, latency "
              "p50=%.1fus p95=%.1fus p99=%.1fus\n\n",
              target_qps, achieved_qps, p50, p95, p99);
  json.set("achieved_qps", achieved_qps);
  json.set("target_qps", target_qps);
  json.set("p50_us", p50);
  json.set("p95_us", p95);
  json.set("p99_us", p99);

  // --- Phase 4: served-vs-engine verification rows for the CI gate. ------
  {
    service::LptService svc(cfg);
    service::QueryRequest small_q;
    small_q.id = 1;
    small_q.seed = 7;
    small_q.points = small_pool[0];
    service::QueryRequest large_q;
    large_q.id = 2;
    large_q.seed = 7;
    large_q.points = instance(large_n, 2000);
    svc.submit(service::QueryRequest(small_q));
    svc.submit(service::QueryRequest(large_q));
    while (svc.pending() > 0) svc.run_epoch(responses);
    LPT_CHECK(responses.size() == 2);
    check_served(svc, small_q, responses[0], json, "small");
    check_served(svc, large_q, responses[1], json, "large");
    responses.clear();
  }

  std::printf("\n");
  table.print();

  // Per-query serve latency from the registry histogram the service
  // feeds (pure solve time, no queueing — the open-loop percentiles
  // above include queueing delay).
  {
    const auto& serve_ns = obs::histogram("service.serve_ns");
    json.set("serve_ns_p50", serve_ns.percentile(0.50));
    json.set("serve_ns_p95", serve_ns.percentile(0.95));
    json.set("serve_ns_p99", serve_ns.percentile(0.99));
    json.set("serve_queries", serve_ns.count());
  }
  {
    const auto mem = obs::sample_memory();
    json.set("peak_rss_bytes", static_cast<std::uint64_t>(
                                   mem.ok ? mem.vm_hwm_bytes : 0));
  }
  if (!trace_path.empty()) {
    obs::disable_tracing();
    if (obs::write_chrome_trace(trace_path)) {
      std::printf("[trace] wrote %zu events to %s\n",
                  obs::trace_event_count(), trace_path.c_str());
    } else {
      std::fprintf(stderr, "[trace] FAILED to write %s\n",
                   trace_path.c_str());
      return 1;
    }
  }
  if (!obs_path.empty()) {
    const std::string dump = obs::dump_json();
    if (std::FILE* f = std::fopen(obs_path.c_str(), "w")) {
      std::fwrite(dump.data(), 1, dump.size(), f);
      std::fclose(f);
      std::printf("[obs] wrote metrics registry dump to %s\n",
                  obs_path.c_str());
    } else {
      std::fprintf(stderr, "[obs] FAILED to write %s\n", obs_path.c_str());
      return 1;
    }
  }

  json.set("wall_seconds", wall.seconds());
  json.set("queries", static_cast<std::uint64_t>(queries));
  json.set("mixed_queries", static_cast<std::uint64_t>(mixed_queries));
  json.set("small_n", static_cast<std::uint64_t>(small_n));
  json.set("large_n", static_cast<std::uint64_t>(large_n));
  json.set("cutoff", static_cast<std::uint64_t>(cutoff));
  json.set("nodes", static_cast<std::uint64_t>(nodes));
  json.set("batch", static_cast<std::uint64_t>(batch));
  json.set("dataset", workloads::dataset_name(dataset));
  const auto path = json.write();
  if (!path.empty()) std::printf("\n[bench-json] wrote %s\n", path.c_str());
  return 0;
}
