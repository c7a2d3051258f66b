// The distributed Hitting Set Algorithm (paper Section 4, Algorithm 6) —
// also the set-cover solver via the duality of Section 1.4.
//
// (X, S) with |X| = n elements, |S| = s sets, minimum hitting set size d.
// Every node knows S (part of the problem description); the *elements* of X
// are randomly distributed and gossiped.  Per round each node:
//
//   1. samples a multiset R_i of size r >= 6 d ln(12 d s) from X(V)
//      (Section 2.1 sampler),
//   2. if R_i hits everything, R_i is the answer (size O(d log(ds))),
//   3. otherwise picks a *random* unhit set S, and pushes W_i = S \ X(v_i)
//      — capped at c d log n elements — to random nodes (this doubles the
//      multiplicity of elements of sparse unhit sets, Lemma 18),
//   4. filters non-original copies with probability 1/(1 + 1/(2d)).
//
// Theorem 5: a hitting set of size O(d log(ds)) in O(d log n) rounds with
// work O(d log(ds) + log n) per round, w.h.p.
//
// Simulator cost per round follows the same large-n contract as
// run_low_load: slab-backed element storage (O(1) |X(V)|, O(copy-holders)
// filter pass), one O(n + |X(V)|) round-start store snapshot for the
// pulls, receiver-list delivery walks, and a chunk-collected stage-B
// replay that only visits winners and W_i pushers — all bit-identical to
// a serial full scan for any parallel_nodes value.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/result.hpp"
#include "core/sampling.hpp"
#include "gossip/mailbox.hpp"
#include "gossip/network.hpp"
#include "obs/obs.hpp"
#include "problems/hitting_set_problem.hpp"
#include "shard/runtime.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/thread_pool.hpp"

namespace lpt::core {

/// Configuration for run_hitting_set.  Every field participates in the
/// determinism contract except parallel_nodes, which is guaranteed not to
/// (bit-identical results for any value).
struct HittingSetConfig {
  std::uint64_t seed = 1;
  std::size_t hitting_set_size = 0;  // the paper's d; 0 = start doubling at 1
  std::size_t sample_size = 0;       // r; 0 = ceil(6 d ln(12 d s))
  double sampler_c = 2.0;
  double push_cap_c = 4.0;  // the c of "|W_i| <= c d log n"
  bool strict_sampling = false;
  bool filtering = true;
  std::size_t max_rounds = 0;  // 0: auto cap (per doubling stage)
  gossip::FaultModel faults;   // message loss / sleeping nodes
  std::size_t parallel_nodes = 0;  // >1: the per-node compute phase (pulls,
                                   // sample selection, hit marking, W_i
                                   // assembly) runs on this many threads.
                                   // Results are bit-identical to the
                                   // serial run:
                                   // the phase consumes only the per-node
                                   // RNG streams, and all shared-RNG
                                   // traffic (mailbox pushes) is replayed
                                   // serially in node order — the same
                                   // stage-A/stage-B split as low/high
                                   // load.  One pool level only: combining
                                   // with a bench --threads sweep
                                   // oversubscribes.
  shard::ShardConfig shard;  // shards >= 1: stage A runs on shard workers
                             // (threads or fork()ed processes) over
                             // contiguous node ranges with the stage-B
                             // replay applied after the deterministic
                             // shard-order merge — bit-identical to the
                             // serial and parallel_nodes paths for every
                             // shard count and transport.  Takes precedence
                             // over parallel_nodes.
};

struct HittingSetRunResult {
  std::vector<std::uint32_t> hitting_set;  // the winning R_i
  bool valid = false;                      // hits every set (always checked)
  std::size_t d_used = 0;                  // final d of the doubling search
  std::size_t sample_size = 0;             // final r
  DistributedRunStats stats;
};

/// The paper's prescription for r given d and s.
inline std::size_t hitting_set_sample_size(std::size_t d, std::size_t s) {
  const double dd = static_cast<double>(d);
  const double ss = static_cast<double>(s);
  return static_cast<std::size_t>(std::ceil(6.0 * dd * std::log(12.0 * dd * ss)));
}

namespace detail {

/// Per-worker scratch for one hitting-set stage-A node evaluation
/// (thread_local in the in-process path, closure-owned on shard workers).
struct HsStageAScratch {
  PullBuffer<std::uint32_t> buf;
  std::vector<std::uint8_t> hit;
  std::vector<std::uint32_t> unhit;
};

enum class HsNodeOutcome : std::uint8_t {
  kFailed,  // sample came up short (strict mode) or empty
  kWinner,  // R_i hits every set: `sample` holds the answer
  kPusher,  // `wi` holds W_i = S \ X(v_i) for a random unhit S (may be
            // empty or over the push cap; the caller applies the cap)
};

/// One node's stage A (its `pulls` pulls against the round-start snapshot
/// `store`, sample selection, hit marking, W_i assembly) — the single
/// definition executed by both the in-process chunk loop (over the
/// snapshot the run builds each round) and the shard workers (over the one
/// they decode).  Consumes `rng` exactly as a serial full scan would; adds
/// the answers' wire bytes to `response_bytes`.
inline HsNodeOutcome hitting_set_node_stage_a(
    const problems::HittingSetProblem& problem,
    const shard::StoreSnapshot<std::uint32_t>& store, const PullRound& round,
    gossip::NodeId v, std::size_t pulls, std::size_t r, bool strict,
    util::Rng& rng, HsStageAScratch& scr, std::uint64_t& response_bytes,
    std::vector<std::uint32_t>& sample, std::vector<std::uint32_t>& wi) {
  const auto& sys = problem.system();
  const std::size_t s = sys.set_count();
  const std::span<std::uint32_t> answers =
      draw_pulls(store, round, pulls, rng, scr.buf);
  response_bytes +=
      pull_response_bytes(store, std::span<const std::uint32_t>(answers));
  const SampleView<std::uint32_t> view =
      select_distinct_answers(store, answers, r, rng, strict, scr.buf);
  if (!view.success) return HsNodeOutcome::kFailed;
  // S_i: sets not hit by R_i.
  problem.mark_hit(view.sample, scr.hit);
  scr.unhit.clear();
  for (std::uint32_t j = 0; j < s; ++j) {
    if (!scr.hit[j]) scr.unhit.push_back(j);
  }
  if (scr.unhit.empty()) {
    // R_i is a hitting set: the algorithm's answer (line 13).
    sample.assign(view.sample.begin(), view.sample.end());
    return HsNodeOutcome::kWinner;
  }
  // Random unhit set; W_i = S \ X(v_i) (lines 6-9; cap applied by caller).
  const auto& chosen = sys.set(scr.unhit[rng.below(scr.unhit.size())]);
  const std::span<const std::uint32_t> local = store.view(v);
  wi.clear();
  for (auto x : chosen) {
    bool have = false;
    for (auto own : local) {
      if (own == x) {
        have = true;
        break;
      }
    }
    if (!have) wi.push_back(x);
  }
  return HsNodeOutcome::kPusher;
}

/// Build the stage-A serve handler every hitting-set shard worker runs.
/// Captures the problem by value: the set system is part of the problem
/// description every node knows (Section 4), so it ships once at spawn
/// (fork inheritance / closure copy), never per round.
///
/// Task payload (after the MsgType byte):
///   u32 r · u64 push_cap · u32 pulls · u32 begin · u32 end · the round's
///   pull inputs (put_pull_inputs) · per node: u8 flags; if kActive: rng
///   state.
/// Result payload:
///   per node: u8 flags; if kActive: rng state (advanced); if kWinner:
///   winning-sample seq; else if kReplay: capped W_i seq — then
///   u32 attempts, u32 failures, u64 response bytes.
inline auto make_hitting_set_serve(problems::HittingSetProblem problem,
                                   bool strict) {
  using Element = std::uint32_t;
  return [problem = std::move(problem), strict, rng = util::Rng{},
          scr = HsStageAScratch{}, inputs = RemotePullInputs<Element>{},
          sample = std::vector<Element>{},
          wi = std::vector<Element>{}](gossip::Decoder& d,
                                       gossip::Encoder& e) mutable {
    const std::uint32_t r = d.get_u32();
    const std::uint64_t push_cap = d.get_u64();
    const std::uint32_t pulls = d.get_u32();
    const gossip::NodeId begin = d.get_u32();
    const gossip::NodeId end = d.get_u32();
    inputs.decode(d);
    LPT_CHECK_MSG(begin <= end && end <= inputs.store().nodes(),
                  "shard wire: task range outside the snapshot");
    shard::put_msg_type(e, shard::MsgType::kStageAResult);
    std::uint32_t attempts = 0;
    std::uint32_t failures = 0;
    std::uint64_t response_bytes = 0;
    for (gossip::NodeId v = begin; v < end; ++v) {
      if (!(d.get_u8() & shard::nodeflag::kActive)) {
        e.put_u8(0);
        continue;
      }
      shard::get_rng(d, rng);
      ++attempts;
      const HsNodeOutcome out = hitting_set_node_stage_a(
          problem, inputs.store(), inputs.round(), v, pulls, r, strict, rng,
          scr, response_bytes, sample, wi);
      std::uint8_t flags = shard::nodeflag::kActive;
      if (out == HsNodeOutcome::kFailed) {
        ++failures;
      } else if (out == HsNodeOutcome::kWinner) {
        flags |= shard::nodeflag::kWinner | shard::nodeflag::kReplay;
      } else if (!wi.empty() && wi.size() <= push_cap) {
        flags |= shard::nodeflag::kReplay;
      }
      e.put_u8(flags);
      shard::put_rng(e, rng);
      if (flags & shard::nodeflag::kWinner) {
        shard::put_seq(e, std::span<const Element>(sample));
      } else if (flags & shard::nodeflag::kReplay) {
        shard::put_seq(e, std::span<const Element>(wi));
      }
    }
    e.put_u32(attempts);
    e.put_u32(failures);
    e.put_u64(response_bytes);
  };
}

}  // namespace detail

/// Run Algorithm 6 over `n_nodes` gossip nodes.  If cfg.hitting_set_size is
/// zero the engine performs the doubling search on d the paper sketches in
/// Section 1.4 ("binary search on d, stopping the algorithm if it takes too
/// long"): each stage runs O(d log n) rounds and on failure d doubles.
inline HittingSetRunResult run_hitting_set(
    const problems::HittingSetProblem& problem, std::size_t n_nodes,
    const HittingSetConfig& cfg = {}) {
  using Element = std::uint32_t;
  const auto& sys = problem.system();
  const std::size_t n = n_nodes;
  const std::size_t x_size = sys.universe_size();
  const std::size_t s = sys.set_count();
  LPT_CHECK(n >= 1 && x_size >= 1 && s >= 1);

  HittingSetRunResult res;
  util::Rng master(cfg.seed);
  gossip::Network net(n, master.child(0), cfg.faults);
  util::Rng dist_rng = master.child(1);
  std::vector<util::Rng> node_rng;
  node_rng.reserve(n);
  for (std::size_t v = 0; v < n; ++v) node_rng.push_back(master.child(2 + v));

  // Initial placement of X over the nodes (slab-backed store: O(1) global
  // totals, O(copy-holders) filter pass).
  gossip::NodeStore<Element> store(n);
  for (std::uint32_t x = 0; x < x_size; ++x) {
    store.add_original(static_cast<gossip::NodeId>(dist_rng.below(n)), x);
  }
  res.stats.initial_total_elements = store.total_elements();
  res.stats.max_total_elements = res.stats.initial_total_elements;

  gossip::Mailbox<Element> copies_mail(net);
  std::vector<gossip::NodeId> sleeping_scratch;  // task-frame encode scratch
  shard::StoreSnapshot<Element> snapshot;  // the round-start store, in-process
  const std::size_t log_n = util::ceil_log2(n) + 1;

  std::size_t d = cfg.hitting_set_size ? cfg.hitting_set_size : 1;
  bool done = false;
  std::size_t global_round = 0;

  // Per-node round results for the compute stage (stage A), persistent
  // across rounds so the steady state allocates nothing.  Only what stage
  // B consumes lives here — the sampler/hit-marking scratch is per worker
  // thread (thread_local in the stage-A body), keeping the footprint
  // O(n + s) per thread instead of O(n * s).
  struct NodeRound {
    std::uint8_t winner = 0;      // R_i hits every set (sample is it)
    std::vector<Element> sample;  // the winning R_i (filled only on win)
    std::vector<Element> wi;
  };
  std::vector<NodeRound> scratch(n);

  // Shard runtime (shard/runtime.hpp): stage A on shard workers over
  // contiguous node ranges, stage B applied in shard order — bit-identical
  // to the serial and parallel_nodes paths.  Workers spawn (PipeTransport:
  // fork) before any thread pool exists.
  const bool sharded = cfg.shard.enabled();
  std::optional<shard::ShardHarness> harness;
  if (sharded) {
    // All transports (socket included) use the fork-inheriting closure
    // path here: a HittingSetProblem owns the whole SetSystem, so a
    // bootstrap-over-wire worker would need a set-system codec — a
    // documented limitation until one exists (socket workers are still
    // fork()ed locally, so inheritance holds on one box).
    harness.emplace(
        n, cfg.shard,
        detail::make_hitting_set_serve(problem, cfg.strict_sampling));
  }

  std::optional<util::ThreadPool> pool;
  if (!sharded && cfg.parallel_nodes > 1) pool.emplace(cfg.parallel_nodes);

  // Stage-A chunk accumulators (see run_low_load): candidates for stage-B
  // replay in ascending node order plus sampler counters, bit-identical
  // for any thread count.  In the sharded run the chunks are the shards
  // themselves.
  struct ChunkAcc {
    std::vector<gossip::NodeId> replay;
    std::uint32_t attempts = 0;
    std::uint32_t failures = 0;
    std::uint64_t response_bytes = 0;
  };
  const std::size_t chunk =
      pool ? std::max<std::size_t>(64, n / (cfg.parallel_nodes * 8)) : n;
  std::vector<ChunkAcc> chunks(sharded ? harness->frame_count()
                                       : util::chunk_count(n, chunk));

  while (!done) {
    const std::size_t r = cfg.sample_size
                              ? cfg.sample_size
                              : hitting_set_sample_size(d, s);
    SamplerConfig sampler;
    sampler.target = r;
    sampler.c = cfg.sampler_c;
    sampler.log_n = log_n;
    sampler.strict = cfg.strict_sampling;
    const std::size_t pulls = sampler.pulls_per_node();
    const double keep_p =
        1.0 / (1.0 + 1.0 / (2.0 * static_cast<double>(d)));
    const auto push_cap = static_cast<std::size_t>(
        cfg.push_cap_c * static_cast<double>(d) *
        static_cast<double>(log_n)) + 1;
    const std::size_t stage_rounds =
        cfg.max_rounds ? cfg.max_rounds
                       : 40 * d * (util::ceil_log2(n) + 2) + 40;
    // Round-bound hint for this doubling stage: keeps the meter's
    // per-round push_back realloc-free (reserve is monotone, so later
    // stages only ever grow it).
    net.meter().reserve_rounds(global_round + stage_rounds + 1);

    for (std::size_t t = 1; t <= stage_rounds && !done; ++t) {
      ++global_round;
      net.begin_round();
      obs::trace_tick();  // rounds are the engine's sampling unit
      obs::TraceSpan round_span("hitting_set.round", global_round);
      std::size_t bookkeeping = 0;

      // --- Per-node compute (stage A): the node's pulls (Section 2.1),
      // sample selection, hit marking, and W_i assembly.  Touches only
      // node_rng[v] and the store, read-only until delivery, so it fans
      // out across threads when cfg.parallel_nodes asks for it; every
      // shared-RNG side effect (the W_i mailbox pushes) is collected per
      // chunk and replayed in stage B in ascending node order, making
      // parallel runs bit-identical to serial ones.
      const PullRound pull_round = core::pull_round(net);
      auto stage_a = [&](std::size_t k, std::size_t begin, std::size_t end) {
        obs::TraceSpan chunk_span("hitting_set.stage_a.chunk", k);
        thread_local detail::HsStageAScratch scr;
        ChunkAcc& ch = chunks[k];
        ch.replay.clear();
        ch.attempts = 0;
        ch.failures = 0;
        ch.response_bytes = 0;
        for (std::size_t vi = begin; vi < end; ++vi) {
          const auto v = static_cast<gossip::NodeId>(vi);
          NodeRound& sc = scratch[v];
          sc.winner = 0;
          if (net.asleep(v)) continue;
          ++ch.attempts;
          const detail::HsNodeOutcome out = detail::hitting_set_node_stage_a(
              problem, snapshot, pull_round, v, pulls, r, sampler.strict,
              node_rng[v], scr, ch.response_bytes, sc.sample, sc.wi);
          if (out == detail::HsNodeOutcome::kFailed) {
            ++ch.failures;
            continue;
          }
          if (out == detail::HsNodeOutcome::kWinner) {
            sc.winner = 1;
            ch.replay.push_back(v);
            continue;
          }
          if (!sc.wi.empty() && sc.wi.size() <= push_cap) {
            ch.replay.push_back(v);
          }
        }
      };
      if (sharded) {
        // Ship each shard, in bounded sub-frames, the round's read-only
        // pull inputs once plus each node's flags and RNG state;
        // frame-indexed ChunkAccs walked in order by stage B recover the
        // ascending node order (the deterministic-merge contract).
        harness->round(
            [&](shard::ShardRange rg, gossip::Encoder& e) {
              e.put_u32(static_cast<std::uint32_t>(r));
              e.put_u64(static_cast<std::uint64_t>(push_cap));
              e.put_u32(static_cast<std::uint32_t>(pulls));
              e.put_u32(rg.begin);
              e.put_u32(rg.end);
              put_pull_inputs(e, net, store, sleeping_scratch);
              for (gossip::NodeId v = rg.begin; v < rg.end; ++v) {
                const bool active = !net.asleep(v);
                e.put_u8(active ? shard::nodeflag::kActive : std::uint8_t{0});
                if (active) shard::put_rng(e, node_rng[v]);
              }
            },
            [&](std::size_t frame, shard::ShardRange rg,
                gossip::Decoder& dec) {
              ChunkAcc& ch = chunks[frame];
              ch.replay.clear();
              for (gossip::NodeId v = rg.begin; v < rg.end; ++v) {
                const std::uint8_t flags = dec.get_u8();
                NodeRound& sc = scratch[v];
                sc.winner = 0;
                if (flags & shard::nodeflag::kActive) {
                  shard::get_rng(dec, node_rng[v]);
                }
                if (flags & shard::nodeflag::kWinner) {
                  sc.winner = 1;
                  shard::get_seq(dec, sc.sample);
                  ch.replay.push_back(v);
                } else if (flags & shard::nodeflag::kReplay) {
                  shard::get_seq(dec, sc.wi);
                  ch.replay.push_back(v);
                }
              }
              ch.attempts = dec.get_u32();
              ch.failures = dec.get_u32();
              ch.response_bytes = dec.get_u64();
            });
      } else {
        // The round-start store as one flat snapshot with dense ids (shard
        // workers decode their own from the task frame).
        snapshot.assign(store);
        util::parallel_chunks(pool ? &*pool : nullptr, n, chunk, stage_a);
      }

      // Meter the round's pulls on the coordinator: every awake node
      // issued `pulls` of them.
      for (gossip::NodeId v = 0; v < n; ++v) {
        if (!net.asleep(v)) net.meter().add_pulls(v, pulls);
      }

      // --- Shared-state replay (stage B): only winners and within-cap W_i
      // pushers, in ascending node order. ---
      for (const ChunkAcc& ch : chunks) {
        res.stats.sampling_attempts += ch.attempts;
        res.stats.sampling_failures += ch.failures;
        net.meter().add_response_bytes(ch.response_bytes);
        for (const gossip::NodeId v : ch.replay) {
          ++bookkeeping;
          NodeRound& sc = scratch[v];
          if (sc.winner) {
            if (!done) {
              done = true;
              res.hitting_set = std::move(sc.sample);
              res.stats.rounds_to_first = global_round;
              res.stats.reached_optimum = true;
              res.d_used = d;
              res.sample_size = r;
            }
            continue;
          }
          for (auto x : sc.wi) copies_mail.push(v, x);
        }
      }

      copies_mail.deliver();
      for (const gossip::NodeId v : copies_mail.receivers()) {
        ++bookkeeping;
        for (const auto& x : copies_mail.inbox(v)) store.add_copy(v, x);
      }
      if (cfg.filtering) {
        bookkeeping += store.filter_copies(
            keep_p,
            [&](gossip::NodeId v) -> util::Rng& { return node_rng[v]; });
      }
      const std::size_t m = store.total_elements();
      if (m > res.stats.max_total_elements) res.stats.max_total_elements = m;
      res.stats.bookkeeping_touches_total += bookkeeping;
      res.stats.last_round_bookkeeping_touches = bookkeeping;
    }

    if (!done) {
      if (cfg.hitting_set_size || d >= x_size) break;  // give up
      d *= 2;  // doubling search on the unknown minimum hitting set size
    }
  }

  res.valid = !res.hitting_set.empty() &&
              problem.is_hitting_set(res.hitting_set);
  if (sharded && cfg.shard.recovery_out != nullptr) {
    *cfg.shard.recovery_out = harness->recovery_stats();
  }
  net.meter().finish();
  res.stats.max_work_per_round = net.meter().max_work_per_round();
  res.stats.total_push_ops = net.meter().total_push_ops();
  res.stats.total_pull_ops = net.meter().total_pull_ops();
  res.stats.total_bytes = net.meter().total_bytes();
  res.stats.final_total_elements = store.total_elements();
  obs::counter("engine.hitting_set.runs").add(1);
  obs::counter("engine.hitting_set.rounds").add(res.stats.rounds_to_first);
  return res;
}

}  // namespace lpt::core
