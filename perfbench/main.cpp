// perfbench: the repository benchmark.  BENCHMARK.json at the repository
// root lists its workloads, its metrics and the layer each metric belongs
// to; run.py builds this program, runs it and reduces the trace.
//
//   perfbench --workload engines_serial|lowload_socket|service_mixed
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//   perfbench --self-test
//
// Every instance and engine seed is a pure function of (workload seed, op
// index).  Every op's output is checked against a contract the library
// documents, never against a golden value, and a failed check counts
// against ok_frac.  The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics", "samples", "aux"}.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/high_load.hpp"
#include "core/hitting_set.hpp"
#include "core/hypercube_clarkson.hpp"
#include "core/low_load.hpp"
#include "geometry/welzl.hpp"
#include "obs/obs.hpp"
#include "problems/hitting_set_problem.hpp"
#include "problems/linear_program2d.hpp"
#include "problems/min_disk.hpp"
#include "service/service.hpp"
#include "shard/runtime.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "workloads/disk_data.hpp"
#include "workloads/hs_data.hpp"
#include "workloads/lp_data.hpp"

namespace {

using namespace lpt;
using Clock = std::chrono::steady_clock;
using geom::Vec2;
using problems::MinDisk;
using problems::MinDiskSolution;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Reducers and output checks (both exercised by --self-test)
// ---------------------------------------------------------------------------

/// Nearest-rank percentile: the smallest sample with at least p percent of
/// the samples at or below it, p in (0, 100].  0 for an empty sample.  The
/// 1e-9 keeps a rank that is whole in exact arithmetic from rounding up.
double nearest_rank(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const double n = static_cast<double>(v.size());
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p * n / 100.0 - 1e-9)), 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  return v[rank - 1];
}

/// The tail percentile reported as latency_ms_p99: p99 once a sample has
/// 1000 values (ten beyond it), else the percentile that leaves exactly ten
/// values above it, so a tail figure never rests on fewer than ten samples.
double tail_percentile(std::size_t n) {
  if (n >= 1000) return 99.0;
  if (n <= 10) return 100.0;
  return 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double median_of(std::vector<double> v) {
  return nearest_rank(std::move(v), 50);
}

/// Per-round normalisation: summed time over summed rounds, so ops with
/// more rounds weigh more (0 when no round ran).
double per_round(double total_ms, double rounds) {
  return rounds > 0.0 ? total_ms / rounds : 0.0;
}

/// Min-disk contract: the value equals the sequential solve's
/// (MinDisk::same_value) and the disk encloses the whole input.
bool disk_answer_ok(const MinDiskSolution& got, const MinDiskSolution& ref,
                    std::span<const Vec2> pts) {
  return MinDisk{}.same_value(got, ref) && geom::encloses_all(got.disk, pts);
}

bool hitting_set_ok(const problems::HittingSetProblem& p,
                    std::span<const std::uint32_t> hs) {
  return !hs.empty() && p.is_hitting_set(hs);
}

/// LP contract: the optimum matches the generator's planted optimal_value
/// (the tolerance tests/test_lp.cpp uses for planted instances).
bool lp_value_ok(const problems::Lp2dSolution& got, double planted) {
  return !got.value.infeasible &&
         std::abs(got.value.objective - planted) <=
             1e-6 * std::max(1.0, std::abs(planted));
}

/// Every DistributedRunStats field: the shard runtime's bit-identity
/// contract covers all of them.
bool same_stats(const core::DistributedRunStats& a,
                const core::DistributedRunStats& b) {
  return a.rounds_to_first == b.rounds_to_first &&
         a.rounds_to_all_output == b.rounds_to_all_output &&
         a.reached_optimum == b.reached_optimum &&
         a.all_outputs_correct == b.all_outputs_correct &&
         a.max_work_per_round == b.max_work_per_round &&
         a.total_push_ops == b.total_push_ops &&
         a.total_pull_ops == b.total_pull_ops &&
         a.total_bytes == b.total_bytes &&
         a.initial_total_elements == b.initial_total_elements &&
         a.max_total_elements == b.max_total_elements &&
         a.final_total_elements == b.final_total_elements &&
         a.sampling_attempts == b.sampling_attempts &&
         a.sampling_failures == b.sampling_failures &&
         a.bookkeeping_touches_total == b.bookkeeping_touches_total &&
         a.last_round_bookkeeping_touches == b.last_round_bookkeeping_touches;
}

/// Seed of `stream` for op `op` under workload seed `ws`.
std::uint64_t derive_seed(std::uint64_t ws, std::uint64_t op,
                          std::uint64_t stream) {
  std::uint64_t s = ws * 0x9e3779b97f4a7c15ULL ^
                    (op + 1) * 0xbf58476d1ce4e5b9ULL ^
                    (stream + 1) * 0x94d049bb133111ebULL;
  util::splitmix64(s);
  return util::splitmix64(s);
}

int self_test() {
  int bad = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::printf("self-test FAILED: %s\n", what);
      ++bad;
    }
  };
  // Nearest rank against a full-sort oracle, over sizes that straddle the
  // rank boundaries of p50 and p99.
  util::Rng rng(20240917);
  for (std::size_t n : {1ul, 2ul, 3ul, 10ul, 99ul, 100ul, 101ul, 1000ul}) {
    std::vector<double> v(n);
    for (double& x : v) x = std::floor(rng.uniform(0.0, 50.0));
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t p : {1ul, 50ul, 90ul, 99ul, 100ul}) {
      std::size_t rank = (p * n + 99) / 100;  // integer ceil(p n / 100)
      if (rank == 0) rank = 1;
      expect(nearest_rank(v, static_cast<double>(p)) == sorted[rank - 1],
             "nearest_rank matches the sorted oracle");
    }
  }
  expect(nearest_rank({}, 50) == 0.0, "nearest_rank of no samples is 0");
  // The tail percentile leaves exactly ten samples above it below 1000.
  for (std::size_t n : {11ul, 64ul, 192ul, 999ul}) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
    expect(nearest_rank(v, tail_percentile(n)) == static_cast<double>(n - 10),
           "tail percentile leaves ten samples above it");
  }
  expect(tail_percentile(1000) == 99.0, "tail percentile is p99 at 1000");

  // Per-round normalisation: ratio of sums, not mean of ratios.
  expect(per_round(100.0 + 50.0, 10.0 + 20.0) == 5.0, "per_round ratio");
  expect(per_round(7.0, 0.0) == 0.0, "per_round with no rounds");

  // A perturbed min-disk answer fails; the true one passes.
  util::Rng drng(7);
  const auto pts = workloads::generate_disk_dataset(
      workloads::DiskDataset::kTriangle, 512, drng);
  const MinDiskSolution ref = MinDisk{}.solve(pts);
  expect(disk_answer_ok(ref, ref, pts), "true disk passes");
  MinDiskSolution grown = ref;
  grown.disk.radius += 1e-6;
  expect(!disk_answer_ok(grown, ref, pts), "radius + 1e-6 fails");
  MinDiskSolution shrunk = ref;
  shrunk.disk.radius -= 1e-6;
  expect(!disk_answer_ok(shrunk, ref, pts), "radius - 1e-6 fails");

  // A hitting set missing one element fails; the planted one passes.
  util::Rng hrng(11);
  const auto hs = workloads::generate_planted_hitting_set(256, 32, 4, 2, hrng);
  const problems::HittingSetProblem hp(hs.system);
  expect(hitting_set_ok(hp, hs.planted), "planted hitting set passes");
  std::vector<std::uint32_t> short_hs(hs.planted.begin() + 1,
                                      hs.planted.end());
  expect(!hitting_set_ok(hp, short_hs), "hitting set minus one fails");

  // An LP answer off its planted value fails.
  util::Rng lrng(13);
  const auto lp = workloads::generate_lp_instance(128, lrng);
  auto lsol = problems::LinearProgram2D(lp.objective).solve(lp.constraints);
  expect(lp_value_ok(lsol, lp.optimal_value), "planted LP value passes");
  lsol.value.objective += 1e-3;
  expect(!lp_value_ok(lsol, lp.optimal_value), "perturbed LP value fails");

  // Stats comparison sees a single-field difference.
  core::DistributedRunStats a;
  core::DistributedRunStats b;
  b.last_round_bookkeeping_touches = 1;
  expect(same_stats(a, a) && !same_stats(a, b), "same_stats field check");

  std::printf("self-test: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Result collection
// ---------------------------------------------------------------------------

// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetupReps = 3;

struct Report {
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics;
  std::vector<std::pair<std::string, double>> samples;  // count per metric
  std::vector<std::pair<std::string, double>> aux;      // run.py inputs
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const std::string& name, double value, const char* unit,
           double n_samples) {
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
    samples.emplace_back(name, n_samples);
  }
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  void print() const {
    for (const Entry& m : metrics) {
      double n = 0;
      for (const auto& [k, v] : samples) {
        if (k == m.name) n = v;
      }
      std::printf("  %-40s %14.6g %-8s (n=%.0f)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), n);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed == 0 && attempted > 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    }
    auto dict = [](const char* key, const auto& kv) {
      std::printf("}, \"%s\": {", key);
      for (std::size_t i = 0; i < kv.size(); ++i) {
        std::printf("%s\"%s\": %.17g", i ? ", " : "", kv[i].first.c_str(),
                    kv[i].second);
      }
    };
    dict("samples", samples);
    dict("aux", aux);
    std::printf("}}\n");
  }
};

double peak_rss_mb() {
  const obs::MemorySample m = obs::sample_memory();
  return m.ok ? static_cast<double>(m.vm_hwm_bytes) / (1024.0 * 1024.0) : 0.0;
}

/// The end-to-end metrics every workload reports the same way.
void report_common(double setup_s, Report& rep) {
  rep.add("setup_s", setup_s, "s", kSetupReps);
  rep.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
  rep.add("ok_frac",
          static_cast<double>(rep.attempted - rep.failed) /
              static_cast<double>(rep.attempted),
          "ratio", static_cast<double>(rep.attempted));
}

/// Peak RSS of the largest waited-for child (the shard workers).
double children_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Engine workloads: engines_serial and lowload_socket
// ---------------------------------------------------------------------------

enum Engine : std::size_t { kLowLoad, kHighLoad, kHittingSet, kHypercube,
                            kEngines };
constexpr const char* kEngineName[kEngines] = {"low_load", "high_load",
                                               "hitting_set", "hypercube"};

// Instance sizes: each op is one full solve of roughly 40-200 ms on a
// 4-core x86 VM, so no millisecond-scale region is timed.
constexpr std::size_t kLowN = std::size_t{1} << 12;
constexpr std::size_t kHighN = std::size_t{1} << 13;
constexpr std::size_t kHcN = std::size_t{1} << 15;
constexpr std::size_t kHsN = std::size_t{1} << 12;
constexpr std::size_t kHsSets = 128;
constexpr std::size_t kHsD = 4;
constexpr std::size_t kHsSetExtra = 2;
// Instances per engine.  Op i of engines_serial runs engine i % 4 on pool
// slot (i / 4) % kPool; op i of lowload_socket runs low load on slot
// i % kPool, the same instance and engine seed.  Runs end on whole pool
// cycles, so every slot weighs the same in every mean.  Low-load round
// counts vary by about 27% between instances, so 32 slots are what keeps
// the seed-to-seed spread of rounds_mean and of the latencies small.
constexpr std::size_t kPool = 32;

constexpr std::size_t kDiskSize[kEngines] = {kLowN, kHighN, 0, kHcN};

struct Case {
  std::uint64_t instance_seed = 0;
  std::uint64_t engine_seed = 0;
  std::vector<Vec2> pts;                   // min-disk engines
  MinDiskSolution ref;                     // MinDisk::solve(pts)
  std::shared_ptr<problems::SetSystem> sys;  // hitting set
  // lowload_socket: the unsharded solve of the same instance and seed.
  std::optional<core::DistributedLpResult<MinDisk>> serial;
};

struct EngineSetup {
  Case cases[kEngines][kPool];
  // Warm-up instances: fixed, the same for every workload seed, so the
  // set-up time does not swing with which instance a seed puts first.
  Case warm[kEngines];
  double generate_ms = 0.0;
  std::vector<double> ref_solve_us;
};

struct OpResult {
  Engine engine = kLowLoad;
  double ms = 0.0;
  std::size_t rounds = 0;
  bool ok = false;
  bool has_stats = false;
  core::DistributedRunStats stats;
  shard::ShardRecoveryStats recovery;
  double pair_ms = 0.0;  // traced lowload_socket: the unsharded twin
};

core::LowLoadConfig low_load_config(const Case& c, bool socket,
                                    shard::ShardRecoveryStats* rec) {
  core::LowLoadConfig cfg;
  cfg.seed = c.engine_seed;
  if (socket) {
    cfg.shard.shards = 2;
    cfg.shard.transport = shard::TransportKind::kSocket;
    cfg.shard.recovery_out = rec;
  }
  return cfg;
}

/// Call f() inside a benchmark span named `span` (argument: the op id) and
/// store its wall time in `ms`.
template <typename F>
auto timed(const char* span, std::uint64_t op, double& ms, F&& f) {
  const auto t0 = Clock::now();
  auto res = [&] {
    obs::TraceSpan s(span, op);
    return f();
  }();
  ms = ms_between(t0, Clock::now());
  return res;
}

/// One op: one full solve, timed around the core::run_* call, then its
/// output check (untimed).
OpResult run_engine_op(Engine e, const Case& c, std::uint64_t op,
                       bool socket) {
  OpResult r;
  r.engine = e;
  const MinDisk md;
  const std::span<const Vec2> pts(c.pts);
  auto take_stats = [&r](const core::DistributedRunStats& s) {
    r.rounds = s.rounds_to_first;
    r.stats = s;
    r.has_stats = true;
  };
  switch (e) {
    case kLowLoad: {
      const auto cfg = low_load_config(c, socket, &r.recovery);
      const auto res = timed("pb.core.run_low_load", op, r.ms, [&] {
        return core::run_low_load(md, pts, pts.size(), cfg);
      });
      obs::TraceSpan check("pb.check", op);
      take_stats(res.stats);
      r.ok = res.stats.reached_optimum &&
             disk_answer_ok(res.solution, c.ref, pts);
      if (socket) {
        r.ok = r.ok && c.serial && res.solution == c.serial->solution &&
               same_stats(res.stats, c.serial->stats);
      }
      break;
    }
    case kHighLoad: {
      core::HighLoadConfig cfg;
      cfg.seed = c.engine_seed;
      const auto res = timed("pb.core.run_high_load", op, r.ms, [&] {
        return core::run_high_load(md, pts, pts.size(), cfg);
      });
      obs::TraceSpan check("pb.check", op);
      take_stats(res.stats);
      r.ok = res.stats.reached_optimum &&
             disk_answer_ok(res.solution, c.ref, pts);
      break;
    }
    case kHittingSet: {
      const problems::HittingSetProblem p(c.sys);
      core::HittingSetConfig cfg;
      cfg.seed = c.engine_seed;
      cfg.hitting_set_size = kHsD;
      const auto res = timed("pb.core.run_hitting_set", op, r.ms,
                             [&] { return core::run_hitting_set(p, kHsN, cfg); });
      obs::TraceSpan check("pb.check", op);
      take_stats(res.stats);
      r.ok = hitting_set_ok(p, res.hitting_set);
      break;
    }
    case kHypercube: {
      core::HypercubeClarksonConfig cfg;
      cfg.seed = c.engine_seed;
      const auto res = timed("pb.core.run_hypercube_clarkson", op, r.ms, [&] {
        return core::run_hypercube_clarkson(md, pts, pts.size(), cfg);
      });
      obs::TraceSpan check("pb.check", op);
      // Clarkson iterations, the unit scenarios::StressOutcome counts; the
      // engine keeps no DistributedRunStats.
      r.rounds = res.iterations;
      r.ok = res.converged && disk_answer_ok(res.solution, c.ref, pts);
      break;
    }
    case kEngines:
      break;
  }
  return r;
}

/// Generate one instance with its references (timed into `s`).
void build_case(Engine e, std::uint64_t ws, std::uint64_t op, bool socket,
                Case& c, EngineSetup& s) {
  const MinDisk md;
  c.instance_seed = derive_seed(ws, op, 0);
  c.engine_seed = derive_seed(ws, op, 1);
  util::Rng rng(c.instance_seed);
  const auto g0 = Clock::now();
  if (e == kHittingSet) {
    c.sys = workloads::generate_planted_hitting_set(kHsN, kHsSets, kHsD,
                                                    kHsSetExtra, rng)
                .system;
  } else {
    c.pts = workloads::generate_disk_dataset(workloads::DiskDataset::kTriangle,
                                             kDiskSize[e], rng);
  }
  const auto g1 = Clock::now();
  s.generate_ms += ms_between(g0, g1);
  if (e == kHittingSet) return;
  c.ref = md.solve(c.pts);
  s.ref_solve_us.push_back(ms_between(g1, Clock::now()) * 1e3);
  // Serial, one at a time: peak_rss_mb is the process's high-water mark,
  // which concurrent reference solves would set instead of the timed ops.
  if (socket) {
    c.serial.emplace(core::run_low_load(md, std::span<const Vec2>(c.pts),
                                        c.pts.size(),
                                        low_load_config(c, false, nullptr)));
  }
}

EngineSetup build_engine_setup(std::uint64_t ws, bool socket, Report& rep) {
  EngineSetup s;
  for (std::size_t e = 0; e < kEngines; ++e) {
    if (socket && e != kLowLoad) continue;
    for (std::size_t j = 0; j < kPool; ++j) {
      build_case(static_cast<Engine>(e), ws, e * kPool + j, socket,
                 s.cases[e][j], s);
    }
    build_case(static_cast<Engine>(e), 0, kEngines * kPool + e, socket,
               s.warm[e], s);
  }
  // One untimed warm-up op per op type; its check counts like any other.
  for (std::size_t e = 0; e < kEngines; ++e) {
    if (socket && e != kLowLoad) continue;
    rep.count(run_engine_op(static_cast<Engine>(e), s.warm[e], 0, socket).ok);
  }
  return s;
}

struct EnginePass {
  std::vector<OpResult> ops;
  double wall_ms = 0.0;
  double busy_ms = 0.0;  // summed timed solves (the tracing-overhead base)
};

/// Run ops 0, 1, ... for whole pool cycles, stopping on the cycle end
/// nearest to `seconds`, or run exactly `n_ops` ops when n_ops > 0.
/// `pairs` adds the unsharded twin of every sharded op, in alternating
/// order so host drift hits both alike.
EnginePass run_engine_pass(const EngineSetup& s, bool socket, double seconds,
                           std::size_t n_ops, bool pairs, Report& rep) {
  const std::size_t engines = socket ? 1 : std::size_t{kEngines};
  const std::size_t cycle = engines * kPool;
  EnginePass pass;
  const auto t0 = Clock::now();
  double cycle_end_ms = 0.0;
  for (std::size_t i = 0;; ++i) {
    if (n_ops > 0 && i == n_ops) break;
    if (n_ops == 0 && i > 0 && i % cycle == 0) {
      const double now_ms = ms_between(t0, Clock::now());
      const double last_cycle_ms = now_ms - cycle_end_ms;
      cycle_end_ms = now_ms;
      if (now_ms + last_cycle_ms / 2 >= seconds * 1e3) break;
    }
    const auto e = static_cast<Engine>(socket ? kLowLoad : i % kEngines);
    const Case& c = s.cases[e][(i / engines) % kPool];
    obs::trace_tick();
    OpResult twin;
    if (pairs && i % 2 == 1) twin = run_engine_op(e, c, i, false);
    OpResult r = run_engine_op(e, c, i, socket);
    if (pairs && i % 2 == 0) twin = run_engine_op(e, c, i, false);
    if (pairs) {
      r.pair_ms = twin.ms;
      r.ok = r.ok && twin.ok && twin.rounds == r.rounds;
    }
    rep.count(r.ok);
    pass.busy_ms += r.ms + r.pair_ms;
    pass.ops.push_back(r);
  }
  pass.wall_ms = ms_between(t0, Clock::now());
  return pass;
}

/// The first pool cycle of a pass: which seeds each op ran and its result
/// (later cycles repeat the same seeds).
void print_ops(const EngineSetup& s, const EnginePass& pass, bool socket) {
  const std::size_t engines = socket ? 1 : std::size_t{kEngines};
  const std::size_t cycle = std::min(engines * kPool, pass.ops.size());
  for (std::size_t i = 0; i < cycle; ++i) {
    const OpResult& r = pass.ops[i];
    const Case& c = s.cases[r.engine][(i / engines) % kPool];
    std::printf("  op %3zu %-11s instance_seed=%016llx engine_seed=%016llx "
                "%8.2f ms %3zu rounds %s\n",
                i, kEngineName[r.engine],
                static_cast<unsigned long long>(c.instance_seed),
                static_cast<unsigned long long>(c.engine_seed), r.ms, r.rounds,
                r.ok ? "ok" : "FAILED");
  }
}

void report_engine_end_to_end(const EnginePass& pass, double setup_s,
                              Report& rep) {
  // Per-engine medians averaged with equal weight: a pooled median of four
  // engines with different solve times would sit on the boundary between
  // two of them and jump between runs.
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> rounds;
  for (std::size_t e = 0; e < kEngines; ++e) {
    std::vector<double> ms;
    for (const OpResult& r : pass.ops) {
      if (r.engine == e) ms.push_back(r.ms);
    }
    if (ms.empty()) continue;
    const double tail = tail_percentile(ms.size());
    p50.push_back(nearest_rank(ms, 50));
    p99.push_back(nearest_rank(ms, tail));
    std::printf("  %-11s solve ms p50 %8.2f  p%.1f %8.2f  (n=%zu)\n",
                kEngineName[e], p50.back(), tail, p99.back(), ms.size());
  }
  for (const OpResult& r : pass.ops) {
    rounds.push_back(static_cast<double>(r.rounds));
  }
  const auto n = static_cast<double>(pass.ops.size());
  rep.add("ops_per_s", n / (pass.wall_ms / 1e3), "1/s", n);
  rep.add("latency_ms_p50", mean(p50), "ms", n);
  rep.add("latency_ms_p99", mean(p99), "ms", n);
  rep.add("rounds_mean", mean(rounds), "rounds", n);
  report_common(setup_s, rep);
}

/// Per-layer core and gossip metrics over a set of ops (the traced pass).
void report_core_layers(const std::vector<OpResult>& ops, Report& rep) {
  double touches = 0.0;
  double stat_rounds = 0.0;
  double max_elems = 0.0;
  double push = 0.0;
  double pull = 0.0;
  double bytes = 0.0;
  double attempts = 0.0;
  double failures = 0.0;
  double max_work = 0.0;
  double stat_ops = 0.0;
  for (std::size_t e = 0; e < kEngines; ++e) {
    std::vector<double> ms;
    double total_ms = 0.0;
    double rounds = 0.0;
    for (const OpResult& r : ops) {
      if (r.engine != e) continue;
      ms.push_back(r.ms);
      total_ms += r.ms;
      rounds += static_cast<double>(r.rounds);
    }
    if (ms.empty()) continue;
    const std::string name = std::string("core.") + kEngineName[e];
    const auto n = static_cast<double>(ms.size());
    rep.add(name + ".solve_ms_p50", nearest_rank(ms, 50), "ms", n);
    rep.add(name + ".ms_per_round", per_round(total_ms, rounds), "ms", rounds);
    rep.add(name + ".rounds_mean", rounds / n, "rounds", n);
  }
  for (const OpResult& r : ops) {
    if (!r.has_stats) continue;
    const core::DistributedRunStats& s = r.stats;
    stat_ops += 1;
    touches += static_cast<double>(s.bookkeeping_touches_total);
    stat_rounds += static_cast<double>(s.rounds_to_first);
    max_elems = std::max(max_elems, static_cast<double>(s.max_total_elements));
    push += static_cast<double>(s.total_push_ops);
    pull += static_cast<double>(s.total_pull_ops);
    bytes += static_cast<double>(s.total_bytes);
    attempts += static_cast<double>(s.sampling_attempts);
    failures += static_cast<double>(s.sampling_failures);
    max_work = std::max(max_work, static_cast<double>(s.max_work_per_round));
  }
  const double per = stat_ops > 0 ? 1.0 / stat_ops : 0.0;
  rep.add("core.bookkeeping_touches_per_round", per_round(touches, stat_rounds),
          "count", stat_rounds);
  rep.add("core.max_total_elements", max_elems, "count", stat_ops);
  rep.add("gossip.push_ops_per_solve", push * per, "count", stat_ops);
  rep.add("gossip.pull_ops_per_solve", pull * per, "count", stat_ops);
  rep.add("gossip.bytes_per_solve", bytes * per, "bytes", stat_ops);
  rep.add("gossip.sample_fail_frac", attempts > 0 ? failures / attempts : 0.0,
          "ratio", attempts);
  rep.add("gossip.max_work_per_round", max_work, "count", stat_ops);
}

// --- Shard probes (traced lowload_socket run) ------------------------------

struct ShardProbe {
  std::vector<double> startup_ms;
  std::vector<double> shutdown_ms;
  std::vector<double> round_us;
};

/// Build and destroy 2-worker socket harnesses (bootstrapped over the wire)
/// and time echo rounds of fixed-size frames through them; every round's
/// echo is checked byte for byte.
ShardProbe probe_shard(std::size_t harnesses, std::size_t rounds,
                       Report& rep) {
  constexpr std::uint32_t kBootBytes = 4096;
  constexpr std::uint32_t kFrameBytes = 16384;
  std::vector<std::uint8_t> boot;
  {
    gossip::Encoder e;
    e.put_u32(kBootBytes);
    for (std::uint32_t i = 0; i < kBootBytes; ++i) e.put_u8(i & 0xff);
    boot = e.bytes();
  }
  auto make_echo = [](gossip::Decoder& d) {
    const std::uint32_t len = d.get_u32();
    for (std::uint32_t i = 0; i < len; ++i) (void)d.get_u8();
    return [](gossip::Decoder& task, gossip::Encoder& out) {
      shard::put_msg_type(out, shard::MsgType::kStageAResult);
      while (!task.exhausted()) out.put_u8(task.get_u8());
    };
  };
  shard::ShardConfig cfg;
  cfg.shards = 2;
  cfg.transport = shard::TransportKind::kSocket;
  ShardProbe probe;
  for (std::size_t h = 0; h < harnesses; ++h) {
    std::optional<shard::ShardHarness> harness;
    const auto t0 = Clock::now();
    harness.emplace(2, cfg, boot, make_echo);
    probe.startup_ms.push_back(ms_between(t0, Clock::now()));
    for (std::size_t k = 0; k < rounds; ++k) {
      std::size_t got = 0;
      const auto r0 = Clock::now();
      harness->round(
          [&](shard::ShardRange r, gossip::Encoder& e) {
            for (std::uint32_t i = 0; i < kFrameBytes; ++i) {
              e.put_u8(static_cast<std::uint8_t>(i + r.begin));
            }
          },
          [&](std::size_t, shard::ShardRange r, gossip::Decoder& d) {
            for (std::uint32_t i = 0; i < kFrameBytes; ++i) {
              got += d.get_u8() == static_cast<std::uint8_t>(i + r.begin);
            }
          });
      probe.round_us.push_back(ms_between(r0, Clock::now()) * 1e3);
      rep.count(got == 2 * kFrameBytes);
    }
    const auto s0 = Clock::now();
    harness.reset();
    probe.shutdown_ms.push_back(ms_between(s0, Clock::now()));
  }
  return probe;
}

// ---------------------------------------------------------------------------
// service_mixed: an open loop of Poisson arrivals into LptService
// ---------------------------------------------------------------------------

// Offered rate and mix.  The schedule is replayed on a replay clock (see
// run_service_pass), so idle time costs no wall time and host stalls while
// the server would idle do not count.  Most arrivals find the server idle
// and are served at once (the p50 is the direct path); those that arrive
// during a ~4-6 ms distributed solve queue behind it (the p99).  The run
// prints the measured share of each mode.
constexpr double kQps = 2000.0;
constexpr double kLargeShare = 1.0 / 128.0;  // 4096-point min-disk queries
constexpr double kLpShare = 0.25;            // small LP2D queries
constexpr std::size_t kSmallMin = 64;
constexpr std::size_t kSmallMax = 256;
constexpr std::size_t kLargeN = 4096;
constexpr std::size_t kSmallPool = 256;
constexpr std::size_t kLargePool = 64;
// The timed loop replays passes of this many queries (about 5 s of
// arrivals each, 100 of them beyond the p99) until --seconds have elapsed
// (see ServiceFigures).  The
// untimed warm-up replays the first queries of a fixed schedule, the same
// for every seed, so set-up does not swing with the seed's share of large
// queries.
constexpr std::size_t kPassQueries = 10000;
constexpr std::size_t kWarmupQueries = 4000;
constexpr std::uint64_t kWarmupSeed = 0;

enum QueryClass : std::uint8_t { kSmallDisk, kLp, kLargeDisk };

struct ServiceSetup {
  std::vector<std::vector<Vec2>> small;
  std::vector<MinDiskSolution> small_ref;
  std::vector<workloads::LpInstance> lps;
  std::vector<problems::Lp2dSolution> lp_ref;
  std::vector<std::vector<Vec2>> large;
  std::vector<MinDiskSolution> large_ref;
  double generate_ms = 0.0;
  std::vector<double> disk_solve_us;
  std::vector<double> lp_solve_us;
  std::optional<service::LptService> svc;
};

struct QueryPlan {
  QueryClass kind;
  std::size_t payload;
  std::uint64_t seed;
  double gap_ms;  // exponential gap before this arrival (Poisson arrivals)
};

QueryPlan plan_query(std::uint64_t ws, std::uint64_t q) {
  util::Rng r(derive_seed(ws, q, 3));
  const double u = r.uniform();
  const QueryClass kind = u < kLargeShare              ? kLargeDisk
                          : u < kLargeShare + kLpShare ? kLp
                                                       : kSmallDisk;
  const std::size_t pool = kind == kLargeDisk ? kLargePool : kSmallPool;
  const auto payload = static_cast<std::size_t>(r.below(pool));
  const double gap_ms = -std::log(1.0 - r.uniform()) / kQps * 1e3;
  return {kind, payload, derive_seed(ws, q, 4), gap_ms};
}

struct QueryRecord {
  double due = 0, start = 0, done = 0;  // replay-clock ms from pass start
  double solve_us = 0;
  std::uint32_t rounds = 0;
  QueryClass kind = kSmallDisk;
  bool ok = false;
  bool queued = false;
};

struct ServicePass {
  std::vector<QueryRecord> q;  // q[i] is query first + i of the schedule
  std::vector<double> epoch_ms;
  std::vector<double> epoch_size;
  double busy_ms = 0.0;  // loop turns: submits plus epochs
  double last_done_ms = 0.0;
  std::uint64_t transient_failures = 0;
  std::vector<OpResult> dist_ops;  // timed run_low_load re-runs
};

ServiceSetup build_service_setup(std::uint64_t ws) {
  ServiceSetup s;
  const MinDisk md;
  const auto g0 = Clock::now();
  {
    util::Rng rng(derive_seed(ws, 0, 5));
    for (std::size_t i = 0; i < kSmallPool; ++i) {
      const std::size_t n = kSmallMin + static_cast<std::size_t>(rng.below(
                                            kSmallMax - kSmallMin + 1));
      s.small.push_back(workloads::generate_disk_dataset(
          workloads::DiskDataset::kTriangle, n, rng));
      s.lps.push_back(workloads::generate_lp_instance(n, rng));
    }
    for (std::size_t i = 0; i < kLargePool; ++i) {
      s.large.push_back(workloads::generate_disk_dataset(
          workloads::DiskDataset::kTriangle, kLargeN, rng));
    }
  }
  s.generate_ms = ms_between(g0, Clock::now());
  for (std::size_t i = 0; i < kSmallPool; ++i) {
    const auto t0 = Clock::now();
    s.small_ref.push_back(md.solve(s.small[i]));
    const auto t1 = Clock::now();
    s.lp_ref.push_back(problems::LinearProgram2D(s.lps[i].objective)
                           .solve(s.lps[i].constraints));
    s.disk_solve_us.push_back(ms_between(t0, t1) * 1e3);
    s.lp_solve_us.push_back(ms_between(t1, Clock::now()) * 1e3);
  }
  for (const auto& pts : s.large) s.large_ref.push_back(md.solve(pts));
  s.svc.emplace();  // default ServiceConfig: workers = 1
  return s;
}

void fill_request(const ServiceSetup& s, const QueryPlan& plan,
                  std::uint64_t id, service::QueryRequest& q) {
  q.id = id;
  q.seed = plan.seed;
  switch (plan.kind) {
    case kSmallDisk:
      q.kind = service::QueryKind::kMinDisk;
      q.points = s.small[plan.payload];
      break;
    case kLargeDisk:
      q.kind = service::QueryKind::kMinDisk;
      q.points = s.large[plan.payload];
      break;
    case kLp:
      q.kind = service::QueryKind::kLp2d;
      q.planes = s.lps[plan.payload].constraints;
      q.objective = s.lps[plan.payload].objective;
      break;
  }
}

/// Check one response against the service's documented bit-identity
/// contract.  Distributed answers are only pre-checked here; their re-run
/// happens after the timed loop.
bool check_response(const ServiceSetup& s, const QueryPlan& plan,
                    const service::QueryResponse& r) {
  if (r.status != service::QueryStatus::kOk) return false;
  switch (plan.kind) {
    case kSmallDisk:
      return r.engine == service::EngineUsed::kDirect &&
             r.disk == s.small_ref[plan.payload];
    case kLp:
      return r.engine == service::EngineUsed::kDirect &&
             r.lp == s.lp_ref[plan.payload] &&
             lp_value_ok(r.lp, s.lps[plan.payload].optimal_value);
    case kLargeDisk:
      return r.engine == service::EngineUsed::kDistributed &&
             disk_answer_ok(r.disk, s.large_ref[plan.payload],
                            s.large[plan.payload]);
  }
  return false;
}

/// Replay queries [first, first + n) of the schedule into the service, from
/// an idle start, on a replay clock.  Each loop turn submits every query due
/// by the clock and runs one epoch (LptService serves one client thread);
/// the clock advances by the turn's measured wall time, and when nothing is
/// pending it jumps to the next due time instead of waiting for it.  A
/// query's latency runs from its due time to the end of the epoch that
/// served it: its wait behind earlier epochs plus its own, both measured.
/// Waiting in real time instead made the p99 a measure of how long the
/// host descheduled the idle server.
ServicePass run_service_pass(std::uint64_t ws, ServiceSetup& s,
                             std::uint64_t first, std::size_t n,
                             Report& rep) {
  service::LptService& svc = *s.svc;
  ServicePass pass;
  pass.q.resize(n);
  std::vector<QueryPlan> plans(n);
  double due = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    plans[i] = plan_query(ws, first + i);
    due += plans[i].gap_ms;
    pass.q[i].due = due;
    pass.q[i].kind = plans[i].kind;
  }
  struct Distributed {
    std::size_t i;
    MinDiskSolution disk;
    std::uint32_t rounds;
  };
  std::vector<Distributed> dist;
  const std::uint64_t transient0 = svc.stats().transient_failures;

  std::vector<service::QueryResponse> out;
  std::size_t next = 0;
  std::size_t served = 0;
  double now = 0.0;  // the replay clock, ms
  double prev_epoch_end = -1.0;
  while (served < n) {
    if (svc.pending() == 0) now = std::max(now, pass.q[next].due);
    const auto w0 = Clock::now();
    for (; next < n && pass.q[next].due <= now; ++next) {
      service::QueryRequest req = svc.acquire_request();
      fill_request(s, plans[next], first + next, req);
      obs::TraceSpan span("pb.service.submit", first + next);
      svc.submit(std::move(req));
    }
    const auto e0 = Clock::now();
    {
      obs::TraceSpan span("pb.service.run_epoch", pass.epoch_ms.size());
      svc.run_epoch(out);
    }
    const auto e1 = Clock::now();
    const double start = now + ms_between(w0, e0);
    const double done = now + ms_between(w0, e1);
    pass.epoch_ms.push_back(ms_between(e0, e1));
    pass.epoch_size.push_back(static_cast<double>(out.size()));
    pass.busy_ms += done - now;
    for (service::QueryResponse& r : out) {
      const std::size_t i = r.id - first;
      QueryRecord& rec = pass.q[i];
      rec.start = start;
      rec.done = done;
      rec.solve_us = static_cast<double>(r.solve_nanos) / 1e3;
      rec.rounds = r.rounds;
      // Queued: the query was already due while an earlier epoch ran, so
      // it waited behind that epoch rather than only for its own.
      rec.queued = rec.due < prev_epoch_end;
      rec.ok = check_response(s, plans[i], r);
      if (rec.ok && plans[i].kind == kLargeDisk) {
        dist.push_back({i, r.disk, r.rounds});
      }
      svc.recycle_response(std::move(r));
    }
    served += out.size();
    out.clear();
    now = done;
    prev_epoch_end = done;
  }
  pass.last_done_ms = now;
  pass.transient_failures = svc.stats().transient_failures - transient0;

  // Distributed answers must equal run_low_load(engine_config_for(q)) bit
  // for bit; the re-runs also give the core layer's numbers.
  const MinDisk md;
  for (const Distributed& d : dist) {
    service::QueryRequest probe;
    probe.id = first + d.i;
    probe.seed = plans[d.i].seed;
    const std::span<const Vec2> pts(s.large[plans[d.i].payload]);
    OpResult op;
    const auto res = timed("pb.core.run_low_load", probe.id, op.ms, [&] {
      return core::run_low_load(md, pts, svc.config().distributed_nodes,
                                svc.engine_config_for(probe));
    });
    op.rounds = res.stats.rounds_to_first;
    op.stats = res.stats;
    op.has_stats = true;
    pass.dist_ops.push_back(op);
    pass.q[d.i].ok =
        res.solution == d.disk && res.stats.rounds_to_first == d.rounds;
  }
  for (const QueryRecord& rec : pass.q) rep.count(rec.ok);
  return pass;
}

double queued_frac(const ServicePass& pass) {
  double queued = 0;
  for (const QueryRecord& r : pass.q) queued += r.queued ? 1 : 0;
  return pass.q.empty() ? 0.0 : queued / static_cast<double>(pass.q.size());
}

/// The end-to-end figures of the timed passes, kept per pass so that each
/// pass's records can go once it is reduced.  A shared host slows whole
/// passes by up to 1.5x in phases lasting seconds to minutes, and
/// contention only ever slows a pass, so the latencies are the fastest
/// pass's: a run that catches one quiet phase reads the same as a run that
/// catches many, and short passes catch short quiet phases.  The achieved
/// rate, which host speed does not move, is the median pass's.
struct ServiceFigures {
  std::vector<double> ops, p50, p99, queued;
  double queries = 0, large = 0, rounds = 0;

  void add(const ServicePass& pass) {
    std::vector<double> lat;
    lat.reserve(pass.q.size());
    for (const QueryRecord& r : pass.q) {
      lat.push_back(r.done - r.due);
      if (r.kind == kLargeDisk) {
        large += 1;
        rounds += r.rounds;
      }
    }
    ops.push_back(static_cast<double>(pass.q.size()) /
                  (pass.last_done_ms / 1e3));
    p50.push_back(nearest_rank(lat, 50));
    p99.push_back(nearest_rank(lat, tail_percentile(lat.size())));
    queued.push_back(queued_frac(pass));
    queries += static_cast<double>(pass.q.size());
  }
};

void report_service_end_to_end(const ServiceFigures& f, double setup_s,
                               Report& rep) {
  rep.add("ops_per_s", median_of(f.ops), "1/s", f.queries);
  rep.add("latency_ms_p50", *std::min_element(f.p50.begin(), f.p50.end()),
          "ms", f.queries);
  rep.add("latency_ms_p99", *std::min_element(f.p99.begin(), f.p99.end()),
          "ms", f.queries);
  rep.add("rounds_mean", f.large > 0 ? f.rounds / f.large : 0.0, "rounds",
          f.large);
  report_common(setup_s, rep);
}

void report_service_layers(const ServicePass& pass, Report& rep) {
  std::vector<double> wait, direct_us, dist_ms;
  for (const QueryRecord& r : pass.q) {
    wait.push_back(r.start - r.due);
    if (r.kind == kLargeDisk) {
      dist_ms.push_back(r.solve_us / 1e3);
    } else {
      direct_us.push_back(r.solve_us);
    }
  }
  const auto n = static_cast<double>(pass.q.size());
  const auto epochs = static_cast<double>(pass.epoch_ms.size());
  rep.add("service.queue_wait_ms_p50", nearest_rank(wait, 50), "ms", n);
  rep.add("service.queue_wait_ms_p99", nearest_rank(wait, 99), "ms", n);
  rep.add("service.epoch_ms_p99", nearest_rank(pass.epoch_ms, 99), "ms",
          epochs);
  rep.add("service.queries_per_epoch_mean", mean(pass.epoch_size), "count",
          epochs);
  rep.add("service.direct_solve_us_p50", nearest_rank(direct_us, 50), "us",
          static_cast<double>(direct_us.size()));
  rep.add("service.distributed_solve_ms_p50", nearest_rank(dist_ms, 50), "ms",
          static_cast<double>(dist_ms.size()));
  rep.add("service.distributed_frac",
          n > 0 ? static_cast<double>(dist_ms.size()) / n : 0.0, "ratio", n);
  rep.add("service.busy_frac",
          pass.last_done_ms > 0 ? pass.busy_ms / pass.last_done_ms : 0.0,
          "ratio", n);
  rep.add("service.transient_failures",
          static_cast<double>(pass.transient_failures), "count", n);
  rep.add("service.queued_frac", queued_frac(pass), "ratio", n);
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string trace_out;
};

/// Traced runs: start recording every unit, with the ring sized to hold
/// the whole traced pass.
obs::TraceConfig start_tracing(std::size_t capacity) {
  obs::TraceConfig tc;
  tc.capacity = capacity;
  tc.sample_period = 1;
  obs::enable_tracing(tc);
  obs::trace_tick();
  return tc;
}

int write_trace(const obs::TraceConfig& tc, const std::string& path,
                Report& rep) {
  rep.aux.emplace_back("trace_events",
                       static_cast<double>(obs::trace_event_count()));
  rep.aux.emplace_back("trace_capacity", static_cast<double>(tc.capacity));
  if (!obs::write_chrome_trace(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  return 0;
}

int run_engines(const Args& a, bool socket, const Clock::time_point start,
                Report& rep) {
  std::vector<double> setup_s;
  std::vector<double> gen_ms;
  std::vector<double> ref_us;
  std::optional<EngineSetup> setup;
  auto t = start;
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    setup.reset();
    setup.emplace(build_engine_setup(a.seed, socket, rep));
    const auto now = Clock::now();
    setup_s.push_back(ms_between(t, now) / 1e3);
    gen_ms.push_back(setup->generate_ms);
    ref_us.insert(ref_us.end(), setup->ref_solve_us.begin(),
                  setup->ref_solve_us.end());
    t = now;
  }
  if (!a.trace) {
    const EnginePass pass =
        run_engine_pass(*setup, socket, a.seconds, 0, false, rep);
    print_ops(*setup, pass, socket);
    report_engine_end_to_end(pass, median_of(setup_s), rep);
    return 0;
  }
  // Traced run: an untraced pass, the same ops traced, the same ops
  // untraced again; the traced pass gives the per-layer numbers and its
  // busy time over the two untraced ones prices the tracing.
  const EnginePass pa =
      run_engine_pass(*setup, socket, a.seconds / 2, 0, socket, rep);
  const obs::TraceConfig tc = start_tracing(std::size_t{1} << 18);
  const EnginePass pb =
      run_engine_pass(*setup, socket, 0, pa.ops.size(), socket, rep);
  obs::disable_tracing();
  const EnginePass pc =
      run_engine_pass(*setup, socket, 0, pa.ops.size(), socket, rep);
  // Untraced, after the passes: the probe's own frame_recv spans must not
  // mix with the engine's in the trace.
  ShardProbe probe;
  if (socket) probe = probe_shard(8, 64, rep);

  report_core_layers(pb.ops, rep);
  rep.add("problems.min_disk.solve_us_p50", median_of(ref_us), "us",
          static_cast<double>(ref_us.size()));
  if (socket) {
    std::vector<double> overhead;
    double respawns = 0, resent = 0;
    for (const EnginePass* p : {&pa, &pb, &pc}) {
      for (const OpResult& r : p->ops) {
        overhead.push_back(
            per_round(r.ms - r.pair_ms, static_cast<double>(r.rounds)));
      }
    }
    double sharded_rounds = 0;
    for (const OpResult& r : pb.ops) {
      sharded_rounds += static_cast<double>(r.rounds);
      respawns += static_cast<double>(r.recovery.respawns);
      resent += static_cast<double>(r.recovery.frames_resent);
    }
    rep.add("shard.startup_ms", median_of(probe.startup_ms), "ms",
            static_cast<double>(probe.startup_ms.size()));
    rep.add("shard.shutdown_ms", median_of(probe.shutdown_ms), "ms",
            static_cast<double>(probe.shutdown_ms.size()));
    rep.add("shard.echo_round_us", median_of(probe.round_us), "us",
            static_cast<double>(probe.round_us.size()));
    rep.add("shard.overhead_ms_per_round", median_of(overhead), "ms",
            static_cast<double>(overhead.size()));
    rep.add("shard.worker_peak_rss_mb", children_peak_rss_mb(), "MB", 1);
    rep.add("shard.respawns", respawns, "count",
            static_cast<double>(pb.ops.size()));
    rep.add("shard.frames_resent", resent, "count",
            static_cast<double>(pb.ops.size()));
    // run.py divides the shard.frame_recv self time by these rounds.
    rep.aux.emplace_back("trace_sharded_rounds", sharded_rounds);
  }
  rep.add("workloads.generate_ms", median_of(gen_ms), "ms",
          static_cast<double>(gen_ms.size()));
  rep.add("obs.trace_overhead_frac",
          pb.busy_ms / ((pa.busy_ms + pc.busy_ms) / 2) - 1.0, "ratio",
          static_cast<double>(pb.ops.size()));
  return write_trace(tc, a.trace_out, rep);
}

int run_service(const Args& a, const Clock::time_point start, Report& rep) {
  std::vector<double> setup_s;
  std::vector<double> gen_ms;
  std::optional<ServiceSetup> setup;
  auto t = start;
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    setup.reset();
    setup.emplace(build_service_setup(a.seed));
    // Warm-up: untimed but checked.
    (void)run_service_pass(kWarmupSeed, *setup, 0, kWarmupQueries, rep);
    const auto now = Clock::now();
    setup_s.push_back(ms_between(t, now) / 1e3);
    gen_ms.push_back(setup->generate_ms);
    t = now;
  }
  std::printf("query q: kind, payload and arrival gap from seed "
              "%016llx-derived stream 3, engine seed from stream 4; "
              "Poisson arrivals at %.0f/s\n",
              static_cast<unsigned long long>(a.seed), kQps);
  if (!a.trace) {
    ServiceFigures f;
    const auto m0 = Clock::now();
    do {
      f.add(run_service_pass(a.seed, *setup, f.ops.size() * kPassQueries,
                             kPassQueries, rep));
    } while (ms_between(m0, Clock::now()) < a.seconds * 1e3);
    report_service_end_to_end(f, median_of(setup_s), rep);
    const double q = median_of(f.queued);
    std::printf("modes: %.4f served at once, %.4f queued (median of %zu "
                "passes of %zu queries)\n",
                1.0 - q, q, f.ops.size(), kPassQueries);
    std::printf("per-pass p99 ms: min %.4f median %.4f max %.4f\n",
                *std::min_element(f.p99.begin(), f.p99.end()),
                median_of(f.p99),
                *std::max_element(f.p99.begin(), f.p99.end()));
    return 0;
  }
  // Traced run: the schedule's first seconds/2 of arrivals, replayed
  // untraced, traced, and untraced again.
  const auto n = std::max<std::size_t>(
      1, static_cast<std::size_t>(a.seconds / 2 * kQps));
  const ServicePass pa = run_service_pass(a.seed, *setup, 0, n, rep);
  const obs::TraceConfig tc = start_tracing(std::size_t{1} << 20);
  const ServicePass pb = run_service_pass(a.seed, *setup, 0, n, rep);
  obs::disable_tracing();
  const ServicePass pc = run_service_pass(a.seed, *setup, 0, n, rep);

  report_core_layers(pb.dist_ops, rep);
  rep.add("problems.min_disk.solve_us_p50", median_of(setup->disk_solve_us),
          "us", static_cast<double>(setup->disk_solve_us.size()));
  rep.add("problems.lp2d.solve_us_p50", median_of(setup->lp_solve_us), "us",
          static_cast<double>(setup->lp_solve_us.size()));
  report_service_layers(pb, rep);
  rep.add("workloads.generate_ms", median_of(gen_ms), "ms",
          static_cast<double>(gen_ms.size()));
  rep.add("obs.trace_overhead_frac",
          pb.busy_ms / ((pa.busy_ms + pc.busy_ms) / 2) - 1.0, "ratio",
          static_cast<double>(pb.q.size()));
  return write_trace(tc, a.trace_out, rep);
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = Clock::now();
  util::Cli cli(argc, argv);
  if (cli.has("self-test")) return self_test();

  Args a;
  a.workload = cli.get("workload", "");
  a.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  a.seconds = cli.get_double("seconds", 30);
  a.trace = cli.get_int("trace", 0) != 0;
  a.trace_out = cli.get("trace-out", "perfbench-" + a.workload + ".json");

  const bool release = std::string(PERFBENCH_BUILD_TYPE) == "Release";
  std::printf("build: %s, lto=%d%s\n", PERFBENCH_BUILD_TYPE, PERFBENCH_LTO,
              release && PERFBENCH_LTO
                  ? ""
                  : "  WARNING: not a Release+LTO build, timings are not "
                    "comparable");
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  if (self_test() != 0) return 3;

  Report rep;
  int rc = 0;
  if (a.workload == "engines_serial") {
    rc = run_engines(a, false, start, rep);
  } else if (a.workload == "lowload_socket") {
    rc = run_engines(a, true, start, rep);
  } else if (a.workload == "service_mixed") {
    rc = run_service(a, start, rep);
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n", a.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  rep.aux.emplace_back("release_lto", release && PERFBENCH_LTO ? 1 : 0);
  rep.print();
  return 0;
}
