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
//
// Stage A is one kernel (detail::HittingSetKernel) that core/stage_a.hpp
// runs inline, on a thread pool, or on shard workers over any transport.
// Every node knows S, so a shard worker receives the set system once, in
// its bootstrap frame, and each task frame only the round's sampler
// parameters, store snapshot and per-node RNG states.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/result.hpp"
#include "core/sampling.hpp"
#include "core/stage_a.hpp"
#include "gossip/mailbox.hpp"
#include "gossip/network.hpp"
#include "obs/obs.hpp"
#include "problems/hitting_set_problem.hpp"
#include "shard/runtime.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

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
  std::size_t parallel_nodes = 0;  // >1: stage A (pulls, sample selection,
                                   // hit marking, W_i assembly) runs on
                                   // this many threads, bit-identical to
                                   // the serial run (core/stage_a.hpp).
                                   // One pool level only: combining with a
                                   // bench --threads sweep oversubscribes.
  shard::ShardConfig shard;  // shards >= 1: stage A runs on that many shard
                             // workers (shard/runtime.hpp), bit-identical
                             // to the serial run for every shard count and
                             // transport; takes precedence over
                             // parallel_nodes.
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

/// Per-thread (per-worker) scratch of the hitting-set kernel.
struct HsStageAScratch {
  PullBuffer<std::uint32_t> buf;
  std::vector<std::uint8_t> hit;
  std::vector<std::uint32_t> unhit;
};

/// A hitting-set node's stage-A output for stage B.
struct HsNode {
  bool winner = false;                // R_i hits every set (sample is it)
  std::vector<std::uint32_t> sample;  // the winning R_i (filled only on win)
  std::vector<std::uint32_t> wi;      // W_i = S \ X(v_i) otherwise
};

/// The hitting-set stage-A kernel (core/stage_a.hpp), built per round: one
/// node's pulls against the round-start snapshot, sample selection, hit
/// marking and W_i assembly, for the in-process loop and the shard workers.
struct HittingSetKernel {
  using Element = std::uint32_t;
  using Node = HsNode;
  using Scratch = HsStageAScratch;
  static constexpr bool kShardable = true;
  static constexpr const char* kChunkSpan = "hitting_set.stage_a.chunk";

  const problems::HittingSetProblem& problem;
  bool strict;           // strict sampling
  std::size_t r;         // sample size
  std::size_t push_cap;  // W_i is pushed only when |W_i| <= push_cap
  std::size_t pulls;

  /// Consumes `rng` exactly as a serial full scan would.
  std::uint8_t run(const shard::StoreSnapshot<Element>& store,
                   const PullRound& round, gossip::NodeId v, util::Rng& rng,
                   Scratch& scr, bool /*first_open*/,
                   std::uint64_t& response_bytes, Node& out) const {
    const auto& sys = problem.system();
    const std::size_t s = sys.set_count();
    const std::span<std::uint32_t> answers =
        draw_pulls(store, round, pulls, rng, scr.buf);
    response_bytes +=
        pull_response_bytes(store, std::span<const std::uint32_t>(answers));
    const SampleView<Element> view =
        select_distinct_answers(store, answers, r, rng, strict, scr.buf);
    out.winner = false;
    if (!view.success) return shard::nodeflag::kFailed;
    // S_i: sets not hit by R_i.
    problem.mark_hit(view.sample, scr.hit);
    scr.unhit.clear();
    for (std::uint32_t j = 0; j < s; ++j) {
      if (!scr.hit[j]) scr.unhit.push_back(j);
    }
    if (scr.unhit.empty()) {
      // R_i is a hitting set: the algorithm's answer (line 13).
      out.winner = true;
      out.sample.assign(view.sample.begin(), view.sample.end());
      return shard::nodeflag::kWinner | shard::nodeflag::kReplay;
    }
    // Random unhit set; W_i = S \ X(v_i) (lines 6-9), pushed in stage B
    // when within the push cap.
    const auto& chosen = sys.set(scr.unhit[rng.below(scr.unhit.size())]);
    const std::span<const std::uint32_t> local = store.view(v);
    out.wi.clear();
    for (auto x : chosen) {
      bool have = false;
      for (auto own : local) {
        if (own == x) {
          have = true;
          break;
        }
      }
      if (!have) out.wi.push_back(x);
    }
    return !out.wi.empty() && out.wi.size() <= push_cap
               ? shard::nodeflag::kReplay
               : std::uint8_t{0};
  }

  // Task header: u32 r · u64 push_cap · u32 pulls.  Node payload: if
  // kWinner: the winning sample seq; else if kReplay: W_i seq.
  void put_round(gossip::Encoder& e) const {
    e.put_u32(static_cast<std::uint32_t>(r));
    e.put_u64(static_cast<std::uint64_t>(push_cap));
    e.put_u32(static_cast<std::uint32_t>(pulls));
  }
  void put_node(gossip::Encoder& e, std::uint8_t flags, const Node& n) const {
    if (flags & shard::nodeflag::kWinner) {
      shard::put_seq(e, std::span<const Element>(n.sample));
    } else if (flags & shard::nodeflag::kReplay) {
      shard::put_seq(e, std::span<const Element>(n.wi));
    }
  }
  void get_node(gossip::Decoder& d, std::uint8_t flags, Node& n) const {
    n.winner = (flags & shard::nodeflag::kWinner) != 0;
    if (n.winner) {
      shard::get_seq(d, n.sample);
    } else if (flags & shard::nodeflag::kReplay) {
      shard::get_seq(d, n.wi);
    }
  }

  /// A hitting-set shard worker's bootstrap payload: every node knows S
  /// (Section 4), so the set system ships once per worker, never per
  /// round.  Schema: u8 strict · problem instance (its SetSystem).
  struct Boot {
    bool strict;
    problems::HittingSetProblem problem;

    void put(gossip::Encoder& e) const {
      e.put_u8(strict ? 1 : 0);
      wire_put(e, problem);
    }

    static Boot get(gossip::Decoder& d) {
      const bool strict = d.get_u8() != 0;
      return {strict,
              wire_make(d, std::type_identity<problems::HittingSetProblem>{})};
    }

    /// This round's kernel, from a task frame's header.
    HittingSetKernel kernel(gossip::Decoder& task) const {
      return {problem, strict, task.get_u32(),
              static_cast<std::size_t>(task.get_u64()), task.get_u32()};
    }
  };
};

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
  const std::size_t log_n = util::ceil_log2(n) + 1;

  std::size_t d = cfg.hitting_set_size ? cfg.hitting_set_size : 1;
  bool done = false;
  std::size_t global_round = 0;

  // Per-node stage-A output, persistent across rounds so the steady state
  // allocates nothing.  Only what stage B consumes lives here — the
  // sampler/hit-marking scratch is per worker thread, keeping the
  // footprint O(n + s) per thread instead of O(n * s).
  std::vector<detail::HsNode> scratch(n);

  // Stage A (core/stage_a.hpp) runs on shard workers when configured, else
  // on cfg.parallel_nodes threads — bit-identical to the serial run either
  // way.  Workers spawn here, before any thread pool exists.
  StageA<detail::HittingSetKernel> stage_a(
      n, cfg.parallel_nodes, cfg.shard, [&] {
        return detail::HittingSetKernel::Boot{cfg.strict_sampling, problem};
      });

  while (!done) {
    const std::size_t r = cfg.sample_size
                              ? cfg.sample_size
                              : hitting_set_sample_size(d, s);
    SamplerConfig sampler;
    sampler.target = r;
    sampler.c = cfg.sampler_c;
    sampler.log_n = log_n;
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

      // --- Per-node compute (stage A, core/stage_a.hpp): the node's pulls
      // (Section 2.1), sample selection, hit marking, and W_i assembly,
      // against the round-start store.  It touches only node_rng[v], so it
      // fans out across threads or shard workers; every shared-RNG side
      // effect (the W_i mailbox pushes) is collected per chunk and
      // replayed in stage B in ascending node order, making those runs
      // bit-identical to serial ones.
      stage_a.run(
          detail::HittingSetKernel{problem, cfg.strict_sampling, r, push_cap,
                                   pulls},
          net, store, [&](gossip::NodeId v) { return !net.asleep(v); },
          node_rng, scratch, res.stats);

      // --- Shared-state replay (stage B): only winners and within-cap W_i
      // pushers, in ascending node order. ---
      for (const ChunkAcc& ch : stage_a.chunks()) {
        for (const gossip::NodeId v : ch.replay) {
          ++bookkeeping;
          detail::HsNode& sc = scratch[v];
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
      res.stats.end_round(store.total_elements(), bookkeeping);
    }

    if (!done) {
      if (cfg.hitting_set_size || d >= x_size) break;  // give up
      d *= 2;  // doubling search on the unknown minimum hitting set size
    }
  }

  res.valid = !res.hitting_set.empty() &&
              problem.is_hitting_set(res.hitting_set);
  stage_a.copy_recovery_stats(cfg.shard.recovery_out);
  res.stats.finish(net.meter(), store.total_elements());
  obs::counter("engine.hitting_set.runs").add(1);
  obs::counter("engine.hitting_set.rounds").add(res.stats.rounds_to_first);
  return res;
}

}  // namespace lpt::core
