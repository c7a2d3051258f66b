// SHARD-SCALING — wall time of the sharded low-load engine versus shard
// count, over all three transports, with every sharded run hard-gated
// bit-identical to the serial baseline (solution, rounds, and all
// DistributedRunStats counters — the shard runtime's deterministic-merge
// contract, enforced here with LPT_CHECK so a divergence fails the bench,
// not just a test).
//
// Usage: shard_scaling [--i=10] [--reps=3] [--dataset=duo-disk]
//                      [--shard-counts=1,2,4]
//                      [--transports=inproc,pipe,socket]
//                      [--kill-shard=1] [--kill-after-frames=2]
//
// Writes BENCH_shard_scaling.json: a "serial" series with the baseline
// point and one series per transport ("inproc" / "pipe" / "socket") with
// one row per shard count carrying wall_per_rep, speedup_vs_serial, and
// the wire bytes per round the shard.bytes.task / shard.bytes.result
// counters saw (task_bytes_per_round, result_bytes_per_round).  On
// a 1-core runner the interesting number is the *overhead* (speedup < 1:
// frame encode/decode + transport cost); on multicore the per-shard
// stage-A compute overlaps.  The socket rows run the full multi-machine
// topology (loopback TCP, workers bootstrapped over the wire) on one box.
//
// The fault column: unless --kill-shard=-1, the largest sweep point is
// rerun with a scripted SIGKILL of worker --kill-shard after it has been
// sent --kill-after-frames task frames (FaultyTransport; a real forked
// child dies on the pipe and socket transports — the socket recovery is a
// genuine respawn-over-reconnect: a new worker dials in and is
// re-bootstrapped).  The run recovers via the default respawn policy and
// is *still* hard-gated bit-identical to the serial baseline; the "fault"
// series records recovery_wall (wall_per_rep of the faulted run) and
// recovery_overhead (vs the fault-free run of the same configuration).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common.hpp"
#include "core/low_load.hpp"
#include "obs/obs.hpp"
#include "shard/fault.hpp"
#include "problems/min_disk.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workloads/disk_data.hpp"

namespace {

using namespace lpt;

std::vector<std::size_t> parse_counts(const std::string& csv) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? csv.size() - pos
                                                   : comma - pos);
    if (!tok.empty()) out.push_back(static_cast<std::size_t>(std::stoul(tok)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  LPT_CHECK_MSG(!out.empty(), "--shard-counts parsed to nothing");
  return out;
}

void check_identical(const core::DistributedLpResult<problems::MinDisk>& a,
                     const core::DistributedLpResult<problems::MinDisk>& b) {
  LPT_CHECK_MSG(a.solution == b.solution,
                "sharded solution diverged from serial");
  const auto& sa = a.stats;
  const auto& sb = b.stats;
  LPT_CHECK_MSG(sa.rounds_to_first == sb.rounds_to_first &&
                    sa.reached_optimum == sb.reached_optimum &&
                    sa.max_work_per_round == sb.max_work_per_round &&
                    sa.total_push_ops == sb.total_push_ops &&
                    sa.total_pull_ops == sb.total_pull_ops &&
                    sa.total_bytes == sb.total_bytes &&
                    sa.max_total_elements == sb.max_total_elements &&
                    sa.final_total_elements == sb.final_total_elements &&
                    sa.sampling_attempts == sb.sampling_attempts &&
                    sa.sampling_failures == sb.sampling_failures &&
                    sa.bookkeeping_touches_total ==
                        sb.bookkeeping_touches_total,
                "sharded DistributedRunStats diverged from serial");
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto i = static_cast<std::size_t>(cli.get_int("i", 10));
  const auto reps = static_cast<std::size_t>(cli.get_int("reps", 3));
  const auto dataset = bench::dataset_flag(cli);
  const auto shard_counts = parse_counts(cli.get("shard-counts", "1,2,4"));
  const std::string transports_csv =
      cli.get("transports", "inproc,pipe,socket");
  const long kill_shard = cli.get_int("kill-shard", 1);  // -1: no fault rows
  const std::string trace_path = cli.get("trace", "");
  const auto trace_period =
      static_cast<std::uint32_t>(cli.get_int("trace-period", 1));
  // Chrome-trace the sweep: rounds + shard frame traffic, plus recovery
  // events from the fault column (which bypass the sampling gate).
  // Tracing writes only into a preallocated ring — the bit-identity
  // gates below run unchanged with it on.
  if (!trace_path.empty()) {
    obs::TraceConfig tc;
    tc.sample_period = trace_period;
    obs::enable_tracing(tc);
  }
  const long kill_after = cli.get_int("kill-after-frames", 1);  // 2nd task
                                                                // frame: mid-
                                                                // run for any
                                                                // >= 2-round
                                                                // run
  // The fault column reruns the LARGEST sweep point, so the victim index
  // must be a valid shard there.  Out of range was previously clamped to
  // the last shard — silently killing a different worker than asked for;
  // reject it loudly instead (the PR-6 CLI validation contract: garbage
  // flags exit 2, they do not limp on).
  if (kill_shard >= 0 &&
      static_cast<std::size_t>(kill_shard) >= shard_counts.back()) {
    std::fprintf(stderr,
                 "error: --kill-shard expects a shard index below the "
                 "largest --shard-counts entry (%zu), got \"%ld\"\n",
                 shard_counts.back(), kill_shard);
    return 2;
  }
  if (kill_after < 0) {
    std::fprintf(stderr,
                 "error: --kill-after-frames expects a non-negative frame "
                 "index, got \"%ld\"\n",
                 kill_after);
    return 2;
  }

  bench::banner("Shard scaling: sharded low-load wall time vs shard count",
                "src/shard runtime; every run hard-gated bit-identical to "
                "serial");

  const std::size_t n = std::size_t{1} << i;
  problems::MinDisk p;
  util::Table table({"transport", "shards", "rounds", "wall/rep s",
                     "speedup vs serial", "task KB/round",
                     "result KB/round"});
  obs::Counter& task_bytes = obs::counter("shard.bytes.task");
  obs::Counter& result_bytes = obs::counter("shard.bytes.result");
  bench::WallTimer wall;
  bench::BenchJson json("shard_scaling");

  // Per-rep instances and serial baselines (fixed per-rep seeds, the same
  // scheme as fig2's average_runs).
  std::vector<std::vector<geom::Vec2>> instances(reps);
  std::vector<core::DistributedLpResult<problems::MinDisk>> baselines(reps);
  double serial_secs = 0.0;
  util::RunningStat serial_rounds;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const std::uint64_t seed = 1 + rep * 7919;
    util::Rng data_rng(seed * 31 + i);
    instances[rep] = workloads::generate_disk_dataset(dataset, n, data_rng);
    core::LowLoadConfig cfg;
    cfg.seed = seed;
    bench::WallTimer t;
    baselines[rep] = core::run_low_load(p, instances[rep], n, cfg);
    serial_secs += t.seconds();
    LPT_CHECK_MSG(baselines[rep].stats.reached_optimum,
                  "serial baseline failed to converge");
    serial_rounds.add(
        static_cast<double>(baselines[rep].stats.rounds_to_first));
  }
  const double serial_per_rep = serial_secs / static_cast<double>(reps);
  table.add_row({"serial", "0", util::fmt(serial_rounds.mean(), 2),
                 util::fmt(serial_per_rep, 4), "1.00", "-", "-"});
  json.add_row("serial", {{"i", static_cast<double>(i)},
                          {"n", static_cast<double>(n)},
                          {"mean_rounds", serial_rounds.mean()},
                          {"wall_per_rep", serial_per_rep}});

  struct TransportOpt {
    const char* name;
    shard::TransportKind kind;
  };
  const TransportOpt kTransports[] = {
      {"inproc", shard::TransportKind::kInProc},
      {"pipe", shard::TransportKind::kPipe},
      {"socket", shard::TransportKind::kSocket}};
  constexpr std::size_t kNumTransports = std::size(kTransports);

  double faultfree_wall[kNumTransports] = {};  // largest sweep point, per
                                               // transport (fault baseline)
  for (std::size_t t_idx = 0; t_idx < kNumTransports; ++t_idx) {
    const TransportOpt& transport = kTransports[t_idx];
    if (transports_csv.find(transport.name) == std::string::npos) continue;
    for (const std::size_t shards : shard_counts) {
      double secs = 0.0;
      util::RunningStat rounds;
      const std::uint64_t task0 = task_bytes.get();
      const std::uint64_t result0 = result_bytes.get();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        core::LowLoadConfig cfg;
        cfg.seed = 1 + rep * 7919;
        cfg.shard.shards = shards;
        cfg.shard.transport = transport.kind;
        bench::WallTimer t;
        const auto res = core::run_low_load(p, instances[rep], n, cfg);
        secs += t.seconds();
        check_identical(res, baselines[rep]);
        rounds.add(static_cast<double>(res.stats.rounds_to_first));
      }
      const double per_rep = secs / static_cast<double>(reps);
      const double speedup = per_rep > 0.0 ? serial_per_rep / per_rep : 0.0;
      const double total_rounds = rounds.mean() * static_cast<double>(reps);
      const double task_per_round =
          static_cast<double>(task_bytes.get() - task0) / total_rounds;
      const double result_per_round =
          static_cast<double>(result_bytes.get() - result0) / total_rounds;
      if (shards == shard_counts.back()) faultfree_wall[t_idx] = per_rep;
      table.add_row({transport.name, util::fmt(shards),
                     util::fmt(rounds.mean(), 2), util::fmt(per_rep, 4),
                     util::fmt(speedup, 2),
                     util::fmt(task_per_round / 1024.0, 1),
                     util::fmt(result_per_round / 1024.0, 1)});
      json.add_row(transport.name,
                   {{"i", static_cast<double>(i)},
                    {"n", static_cast<double>(n)},
                    {"shards", static_cast<double>(shards)},
                    {"mean_rounds", rounds.mean()},
                    {"wall_per_rep", per_rep},
                    {"speedup_vs_serial", speedup},
                    {"task_bytes_per_round", task_per_round},
                    {"result_bytes_per_round", result_per_round}});
    }
  }

  // Fault column: rerun the largest sweep point with a scripted worker
  // kill; recovery must reproduce the serial results bit-for-bit.
  if (kill_shard >= 0) {
    const std::size_t shards = shard_counts.back();
    const auto victim = static_cast<std::size_t>(kill_shard);  // validated
                                                               // above
    for (std::size_t t_idx = 0; t_idx < kNumTransports; ++t_idx) {
      const TransportOpt& transport = kTransports[t_idx];
      if (transports_csv.find(transport.name) == std::string::npos) continue;
      double secs = 0.0;
      util::RunningStat rounds;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        core::LowLoadConfig cfg;
        cfg.seed = 1 + rep * 7919;
        cfg.shard.shards = shards;
        cfg.shard.transport = transport.kind;
        cfg.shard.fault_script = {
            {victim, shard::FaultOp::kKillWorker,
             static_cast<std::size_t>(kill_after)}};
        bench::WallTimer t;
        const auto res = core::run_low_load(p, instances[rep], n, cfg);
        secs += t.seconds();
        // The acceptance gate: a run that lost (and replaced) a worker
        // mid-round still matches the fault-free serial baseline exactly.
        check_identical(res, baselines[rep]);
        rounds.add(static_cast<double>(res.stats.rounds_to_first));
      }
      const double recovery_wall = secs / static_cast<double>(reps);
      const double overhead = faultfree_wall[t_idx] > 0.0
                                  ? recovery_wall / faultfree_wall[t_idx]
                                  : 0.0;
      const std::string label = std::string(transport.name) + "+kill" +
                                util::fmt(victim) + "@" +
                                util::fmt(static_cast<std::size_t>(
                                    kill_after));
      table.add_row({label, util::fmt(shards), util::fmt(rounds.mean(), 2),
                     util::fmt(recovery_wall, 4),
                     util::fmt(recovery_wall > 0.0
                                   ? serial_per_rep / recovery_wall
                                   : 0.0,
                               2),
                     "-", "-"});
      json.add_row("fault",
                   {{"i", static_cast<double>(i)},
                    {"n", static_cast<double>(n)},
                    {"shards", static_cast<double>(shards)},
                    {"transport", static_cast<double>(t_idx)},
                    {"kill_shard", static_cast<double>(victim)},
                    {"kill_after_frames", static_cast<double>(kill_after)},
                    {"mean_rounds", rounds.mean()},
                    {"recovery_wall", recovery_wall},
                    {"recovery_overhead", overhead}});
    }
  }

  table.print();
  std::printf(
      "\nEvery sharded run above was checked bit-identical to its serial\n"
      "baseline (solution, rounds, work meter, load and bookkeeping\n"
      "counters) — the deterministic stage-B merge contract.\n");

  json.set("wall_seconds", wall.seconds());
  json.set("reps", static_cast<std::uint64_t>(reps));
  json.set("i", static_cast<std::uint64_t>(i));
  json.set("dataset", workloads::dataset_name(dataset));
  if (!trace_path.empty()) {
    obs::disable_tracing();
    if (obs::write_chrome_trace(trace_path)) {
      std::printf("\n[trace] wrote %zu events to %s\n",
                  obs::trace_event_count(), trace_path.c_str());
    } else {
      std::fprintf(stderr, "[trace] FAILED to write %s\n", trace_path.c_str());
      return 1;
    }
  }
  const auto path = json.write();
  if (!path.empty()) std::printf("\n[bench-json] wrote %s\n", path.c_str());
  return 0;
}
