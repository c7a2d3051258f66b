// The observability subsystem (src/obs): histogram percentiles against a
// sorted oracle, registry snapshot/delta/dump_json, Chrome-trace output
// (validated in-process and round-tripped through tools/trace_summary.py),
// the zero-allocation recording contract, and the two cross-cutting
// guarantees the rest of the repo leans on — instrumented runs are
// bit-identical to uninstrumented ones, and deterministic update sites
// produce identical registry totals for every parallelism/shard choice.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/high_load.hpp"
#include "core/hitting_set.hpp"
#include "core/hypercube_clarkson.hpp"
#include "core/low_load.hpp"
#include "gossip/metrics.hpp"
#include "obs/obs.hpp"
#include "problems/hitting_set_problem.hpp"
#include "problems/min_disk.hpp"
#include "support/test_support.hpp"
#include "util/rng.hpp"
#include "workloads/disk_data.hpp"
#include "workloads/hs_data.hpp"

// Allocation counter for the zero-alloc recording contract.  Counting is
// precise for the single-threaded windows the tests measure (no other
// thread runs during them).
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// The nothrow forms too: the standard library's temporary buffers (e.g.
// std::inplace_merge in the high-load engine) allocate with nothrow new and
// release with plain delete, so every form must share malloc/free.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace lpt {
namespace {

using obs::Histogram;

// ---------------------------------------------------------------------------
// Histogram vs sorted oracle.
// ---------------------------------------------------------------------------

std::uint64_t oracle_percentile(std::vector<std::uint64_t> sorted, double q) {
  // Nearest-rank on the sorted sample — the definition Histogram documents.
  if (sorted.empty()) return 0;
  const auto n = sorted.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

void expect_percentiles_near_oracle(const Histogram& h,
                                    std::vector<std::uint64_t> values,
                                    const char* tag) {
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.9, 0.95, 0.99, 1.0}) {
    const std::uint64_t exact = oracle_percentile(values, q);
    const std::uint64_t approx = h.percentile(q);
    // The histogram answers a bucket upper edge: never below the exact
    // answer, and at most one sub-bucket (1/32 relative) plus rounding
    // above it.
    EXPECT_GE(approx, exact) << tag << " q=" << q;
    const auto bound = static_cast<std::uint64_t>(
        static_cast<double>(exact) * (1.0 + 1.0 / 32.0)) + 1;
    EXPECT_LE(approx, bound) << tag << " q=" << q;
  }
}

TEST(ObsHistogram, MatchesOracleOnUniform) {
  Histogram h;
  std::vector<std::uint64_t> values;
  auto rng = testsupport::seeded_rng("obs-hist-uniform");
  for (int k = 0; k < 20000; ++k) {
    const std::uint64_t v = rng() % 1'000'000;
    h.record(v);
    values.push_back(v);
  }
  expect_percentiles_near_oracle(h, values, "uniform");
  EXPECT_EQ(h.count(), 20000u);
}

TEST(ObsHistogram, MatchesOracleOnHeavyTail) {
  // Latency-shaped data: most values small, a long multiplicative tail.
  Histogram h;
  std::vector<std::uint64_t> values;
  auto rng = testsupport::seeded_rng("obs-hist-tail");
  for (int k = 0; k < 20000; ++k) {
    const unsigned shift = static_cast<unsigned>(rng() % 40);
    const std::uint64_t v = (std::uint64_t{1} << shift) +
                            rng() % (std::uint64_t{1} << shift);
    h.record(v);
    values.push_back(v);
  }
  expect_percentiles_near_oracle(h, values, "heavy-tail");
}

TEST(ObsHistogram, ExactBelowSixtyFour) {
  // Values below 2^6 land in width-1 buckets: percentiles are exact.
  Histogram h;
  std::vector<std::uint64_t> values;
  auto rng = testsupport::seeded_rng("obs-hist-small");
  for (int k = 0; k < 5000; ++k) {
    const std::uint64_t v = rng() % 64;
    h.record(v);
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.1, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(h.percentile(q), oracle_percentile(values, q)) << q;
  }
}

TEST(ObsHistogram, ConstantStream) {
  for (const std::uint64_t v : {0ull, 1ull, 63ull, 64ull, 65ull, 4095ull,
                                (1ull << 40) + 17}) {
    Histogram h;
    for (int k = 0; k < 100; ++k) h.record(v);
    EXPECT_GE(h.percentile(0.5), v) << v;
    const auto bound = static_cast<std::uint64_t>(
        static_cast<double>(v) * (1.0 + 1.0 / 32.0)) + 1;
    EXPECT_LE(h.percentile(0.5), bound) << v;
    EXPECT_EQ(h.max(), v);
    EXPECT_EQ(h.sum(), 100 * v);
  }
}

TEST(ObsHistogram, BucketIndexSweep) {
  // Exhaustive low range plus power-of-two edges across the full width:
  // indices stay in range and non-decreasing, upper edges bound the value.
  std::size_t prev = 0;
  for (std::uint64_t v = 0; v < 1u << 16; ++v) {
    const std::size_t idx = Histogram::index(v);
    ASSERT_LT(idx, Histogram::kBuckets) << v;
    ASSERT_GE(idx, prev) << v;
    ASSERT_GE(Histogram::bucket_upper(idx), v) << v;
    prev = idx;
  }
  for (unsigned shift = 16; shift < 64; ++shift) {
    for (const std::uint64_t v :
         {(std::uint64_t{1} << shift) - 1, std::uint64_t{1} << shift,
          (std::uint64_t{1} << shift) + 1}) {
      const std::size_t idx = Histogram::index(v);
      ASSERT_LT(idx, Histogram::kBuckets) << v;
      ASSERT_GE(Histogram::bucket_upper(idx), v) << v;
    }
  }
  EXPECT_LT(Histogram::index(~std::uint64_t{0}), Histogram::kBuckets);
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(ObsRegistry, RegistrationIsIdempotentAndStable) {
  obs::Counter& a = obs::counter("test.reg.counter");
  obs::Counter& b = obs::counter("test.reg.counter");
  EXPECT_EQ(&a, &b);
  obs::Gauge& g1 = obs::gauge("test.reg.gauge");
  obs::Gauge& g2 = obs::gauge("test.reg.gauge");
  EXPECT_EQ(&g1, &g2);
  obs::Histogram& h1 = obs::histogram("test.reg.hist");
  obs::Histogram& h2 = obs::histogram("test.reg.hist");
  EXPECT_EQ(&h1, &h2);
}

TEST(ObsRegistry, SnapshotAndDelta) {
  obs::Counter& c = obs::counter("test.snap.counter");
  obs::Gauge& g = obs::gauge("test.snap.gauge");
  obs::Histogram& h = obs::histogram("test.snap.hist");
  c.reset();
  g.reset();
  h.reset();

  c.add(5);
  g.set(-7);
  h.record(100);
  const obs::Snapshot before = obs::snapshot();
  EXPECT_EQ(before.counter_value("test.snap.counter"), 5u);
  EXPECT_EQ(before.gauge_value("test.snap.gauge"), -7);
  ASSERT_NE(before.find_histogram("test.snap.hist"), nullptr);
  EXPECT_EQ(before.find_histogram("test.snap.hist")->count, 1u);

  c.add(3);
  g.set(11);
  h.record(200);
  h.record(300);
  const obs::Snapshot after = obs::snapshot();
  const obs::Snapshot d = after.delta(before);
  EXPECT_EQ(d.counter_value("test.snap.counter"), 3u);
  EXPECT_EQ(d.gauge_value("test.snap.gauge"), 11);  // gauges stay absolute
  ASSERT_NE(d.find_histogram("test.snap.hist"), nullptr);
  EXPECT_EQ(d.find_histogram("test.snap.hist")->count, 2u);
  EXPECT_EQ(d.find_histogram("test.snap.hist")->sum, 500u);
}

TEST(ObsRegistry, DumpJsonCoversEveryKind) {
  obs::counter("test.json.counter").add(1);
  obs::gauge("test.json.gauge").set(2);
  obs::histogram("test.json.hist").record(3);
  const std::string j = obs::dump_json();
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"gauges\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
  EXPECT_NE(j.find("\"test.json.counter\""), std::string::npos);
  EXPECT_NE(j.find("\"test.json.gauge\""), std::string::npos);
  EXPECT_NE(j.find("\"test.json.hist\""), std::string::npos);
  EXPECT_NE(j.find("\"p99\""), std::string::npos);
}

// One engine run at a canonical instance, used by the determinism and
// bit-identity tests below.
core::DistributedLpResult<problems::MinDisk> run_engine(
    std::size_t parallel_nodes = 0, std::size_t shards = 0) {
  problems::MinDisk p;
  const auto pts = testsupport::golden_disk_points(
      workloads::DiskDataset::kTripleDisk, 512);
  core::LowLoadConfig cfg;
  cfg.seed = 20250808;
  cfg.parallel_nodes = parallel_nodes;
  cfg.shard.shards = shards;
  return core::run_low_load(p, pts, 512, cfg);
}

std::vector<std::pair<std::string, std::uint64_t>> engine_counters() {
  const obs::Snapshot s = obs::snapshot();
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, value] : s.counters) {
    // The deterministic subset: gossip totals and engine round counts.
    // (shard.* frame traffic is transport bookkeeping, not part of the
    // determinism contract.)
    if (name.rfind("gossip.", 0) == 0 || name.rfind("engine.", 0) == 0) {
      out.emplace_back(name, value);
    }
  }
  return out;
}

TEST(ObsRegistry, CountersDeterministicAcrossParallelism) {
  // parallel_nodes moves stage A onto threads without changing what runs:
  // every deterministic counter total must match the serial run exactly.
  obs::reset_all();
  const auto serial = run_engine(0);
  const auto serial_counters = engine_counters();

  obs::reset_all();
  const auto parallel = run_engine(4);
  const auto parallel_counters = engine_counters();

  EXPECT_EQ(serial.solution, parallel.solution);
  EXPECT_EQ(serial_counters, parallel_counters);
  EXPECT_EQ(obs::snapshot().counter_value("gossip.rounds"),
            serial.stats.rounds_to_first);
}

TEST(ObsRegistry, CountersDeterministicAcrossSharding) {
  obs::reset_all();
  const auto serial = run_engine(0, 0);
  const auto serial_counters = engine_counters();

  obs::reset_all();
  const auto sharded = run_engine(0, 2);
  const auto sharded_counters = engine_counters();

  EXPECT_EQ(serial.solution, sharded.solution);
  EXPECT_EQ(serial_counters, sharded_counters);
}

// ---------------------------------------------------------------------------
// WorkMeter reserve: the per-round history push_back never reallocates
// once the engine has declared its round bound.
// ---------------------------------------------------------------------------

TEST(ObsWorkMeter, ReserveRoundsPreventsReallocation) {
  gossip::WorkMeter m(8);
  m.reserve_rounds(32);
  const std::size_t cap = m.history_capacity();
  ASSERT_GE(cap, 32u);
  for (int round = 0; round < 32; ++round) {
    m.begin_round();
    m.add_push(0, 16);
    m.add_pull(1, 16);
  }
  m.finish();
  EXPECT_EQ(m.history_capacity(), cap);
  EXPECT_EQ(m.history().size(), 32u);
}

TEST(ObsWorkMeter, FinishFoldsIntoRegistryOnce) {
  obs::reset_all();
  gossip::WorkMeter m(4);
  m.begin_round();
  m.add_push(0, 8);
  m.add_push(1, 8);
  m.add_pull(2, 8);
  m.finish();
  m.finish();  // idempotent: the delta fold must not double-count
  const obs::Snapshot s = obs::snapshot();
  EXPECT_EQ(s.counter_value("gossip.rounds"), 1u);
  EXPECT_EQ(s.counter_value("gossip.push_ops"), 2u);
  EXPECT_EQ(s.counter_value("gossip.pull_ops"), 1u);
  EXPECT_EQ(s.counter_value("gossip.bytes"), 24u);
}

// ---------------------------------------------------------------------------
// Memory telemetry.
// ---------------------------------------------------------------------------

TEST(ObsMemory, ProcSelfStatusSampleIsSane) {
  const obs::MemorySample s = obs::sample_memory();
  if (!s.ok) GTEST_SKIP() << "/proc/self/status not readable here";
  EXPECT_GT(s.vm_rss_bytes, 0u);
  EXPECT_GE(s.vm_hwm_bytes, s.vm_rss_bytes);
  EXPECT_EQ(obs::snapshot().gauge_value("mem.vm_rss_bytes"),
            static_cast<std::int64_t>(s.vm_rss_bytes));
  EXPECT_EQ(obs::snapshot().gauge_value("mem.vm_hwm_bytes"),
            static_cast<std::int64_t>(s.vm_hwm_bytes));
}

// ---------------------------------------------------------------------------
// Tracing: bit-identity, zero-allocation recording, Chrome JSON output.
// ---------------------------------------------------------------------------

TEST(ObsTrace, EngineRunBitIdenticalWithTracingEnabled) {
  // The headline contract: tracing never draws RNG or branches into
  // algorithm code, so a traced run reproduces the untraced run field by
  // field — solution, rounds, and every WorkMeter total.
  const auto plain = run_engine();

  if (obs::kTraceCompiled) {
    obs::TraceConfig cfg;
    cfg.sample_period = 1;  // trace every round: the worst case
    obs::enable_tracing(cfg);
  }
  const auto traced = run_engine();
  obs::disable_tracing();

  EXPECT_EQ(plain.solution, traced.solution);
  EXPECT_EQ(plain.stats.rounds_to_first, traced.stats.rounds_to_first);
  EXPECT_EQ(plain.stats.reached_optimum, traced.stats.reached_optimum);
  EXPECT_EQ(plain.stats.total_push_ops, traced.stats.total_push_ops);
  EXPECT_EQ(plain.stats.total_pull_ops, traced.stats.total_pull_ops);
  EXPECT_EQ(plain.stats.total_bytes, traced.stats.total_bytes);
  EXPECT_EQ(plain.stats.max_work_per_round, traced.stats.max_work_per_round);
  EXPECT_EQ(plain.stats.max_total_elements, traced.stats.max_total_elements);
  EXPECT_EQ(plain.stats.sampling_attempts, traced.stats.sampling_attempts);
  EXPECT_EQ(plain.stats.bookkeeping_touches_total,
            traced.stats.bookkeeping_touches_total);
}

TEST(ObsTrace, RecordingAllocatesNothing) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with LPT_OBS_TRACE=OFF";
  // Registration and ring setup happen before the window; the measured
  // region is pure recording — the serve-path contract.
  obs::Histogram& h = obs::histogram("test.alloc.hist");
  obs::Counter& c = obs::counter("test.alloc.counter");
  obs::TraceConfig cfg;
  cfg.sample_period = 1;
  obs::enable_tracing(cfg);

  const std::uint64_t before = g_allocs.load();
  for (int k = 0; k < 10000; ++k) {
    obs::trace_tick();
    obs::TraceSpan span("test.alloc.span", static_cast<std::uint64_t>(k));
    obs::trace_instant("test.alloc.instant", 1);
    c.add(1);
    h.record(static_cast<std::uint64_t>(k) * 977);
  }
  const std::uint64_t after = g_allocs.load();
  obs::disable_tracing();
  EXPECT_EQ(after - before, 0u)
      << "metric/trace recording allocated on the hot path";
}

TEST(ObsTrace, ChromeTraceRoundTripsThroughValidator) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with LPT_OBS_TRACE=OFF";
  obs::TraceConfig cfg;
  cfg.sample_period = 1;
  obs::enable_tracing(cfg);
  (void)run_engine();
  // A hitting-set round carries its stage A as child spans too, so the
  // per-layer self-time tables split it into stage A and the rest.
  util::Rng rng(31);
  const problems::HittingSetProblem hs(
      workloads::generate_planted_hitting_set(256, 32, 3, 2, rng).system);
  core::HittingSetConfig hs_cfg;
  hs_cfg.hitting_set_size = 3;
  EXPECT_TRUE(core::run_hitting_set(hs, 256, hs_cfg).valid);
  // High-load rounds and hypercube iterations carry phase spans.
  const problems::MinDisk md;
  const auto pts = testsupport::golden_disk_points(
      workloads::DiskDataset::kTriangle, 512);
  EXPECT_TRUE(core::run_high_load(md, pts, 512).stats.reached_optimum);
  EXPECT_TRUE(core::run_hypercube_clarkson(md, pts, 512).converged);
  obs::disable_tracing();
  ASSERT_GT(obs::trace_event_count(), 0u);

  const std::string path =
      ::testing::TempDir() + "/obs_trace_roundtrip.json";
  ASSERT_TRUE(obs::write_chrome_trace(path));

  // Cheap in-process sanity on the emitted JSON.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string head(64, '\0');
  head.resize(std::fread(head.data(), 1, head.size(), f));
  std::fclose(f);
  EXPECT_NE(head.find("\"traceEvents\""), std::string::npos);

  // Full validation through the same tool CI runs: schema, timestamp
  // monotonicity, span nesting, and the round and phase names.
  if (std::system("python3 --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 unavailable; validator not run";
  }
  const std::string cmd = std::string("python3 ") + LPT_TOOLS_DIR +
                          "/trace_summary.py " + path +
                          " --require low_load.round"
                          " --require low_load.stage_a.chunk"
                          " --require hitting_set.round"
                          " --require hitting_set.stage_a.chunk"
                          " --require high_load.round"
                          " --require high_load.solve"
                          " --require high_load.scan"
                          " --require high_load.deliver"
                          " --require hypercube.iteration"
                          " --require hypercube.sweep"
                          " --require hypercube.collective"
                          " --require hypercube.leader --quiet";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
}

TEST(ObsTrace, DisabledTracingRecordsNothing) {
  // The ring keeps its contents after disable (for the final trace
  // write); what must hold is that disabled sites record nothing NEW.
  obs::disable_tracing();
  const std::size_t before = obs::trace_event_count();
  obs::trace_tick();
  { obs::TraceSpan span("test.off.span"); }
  obs::trace_instant("test.off.instant");
  obs::trace_rare("test.off.rare");
  EXPECT_EQ(obs::trace_event_count(), before);
  EXPECT_FALSE(obs::tracing_enabled());
}

}  // namespace
}  // namespace lpt
