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
// core/round_driver.hpp runs the round under low load's large-n contract
// (core/low_load.hpp); the stage-B replay visits only winners and W_i
// pushers.  Stage A is one kernel (detail::HittingSetKernel) that
// core/stage_a.hpp runs inline, on a thread pool, or on shard workers over
// any transport, bit-identically.  Every node knows S, so a shard worker
// receives the set system once, in its bootstrap frame.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <ranges>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/result.hpp"
#include "core/round_driver.hpp"
#include "core/sampling.hpp"
#include "core/stage_a.hpp"
#include "gossip/mailbox.hpp"
#include "gossip/network.hpp"
#include "problems/hitting_set_problem.hpp"
#include "shard/runtime.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace lpt::core {

/// Configuration for run_hitting_set.  Every field participates in the
/// determinism contract except parallel_nodes and shard, which only move
/// stage A (bit-identical results for any value).
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
  std::size_t parallel_nodes = 0;  // >1: stage A (core/stage_a.hpp) runs on
                                   // this many threads for one run; a bench
                                   // --threads sweep on top oversubscribes
  shard::ShardConfig shard;  // shards >= 1: stage A runs on shard workers
                             // (shard/runtime.hpp), over parallel_nodes
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

/// The hitting-set engine of core/round_driver.hpp: stage A
/// (HittingSetKernel through core/stage_a.hpp), the stage-B replay of
/// winners and W_i pushers, and the doubling search on d.  The elements
/// X = {0..|X|-1} are placed as originals.
class HittingSetEngine : public EngineHooks {
 public:
  using Problem = problems::HittingSetProblem;
  using Element = std::uint32_t;
  using Input = std::ranges::iota_view<Element, Element>;
  using Config = HittingSetConfig;
  using Result = HittingSetRunResult;
  static constexpr EngineNames kNames = LPT_ENGINE_NAMES("hitting_set");

  static RoundPlan plan(const Problem& problem, const HittingSetConfig& cfg,
                        std::size_t n) {
    LPT_CHECK(problem.system().universe_size() >= 1 &&
              problem.system().set_count() >= 1);
    const std::size_t d = cfg.hitting_set_size ? cfg.hitting_set_size : 1;
    return {.seed = cfg.seed, .faults = cfg.faults,
            .max_rounds = stage_rounds(cfg, d, n), .dimension = d};
  }

  HittingSetEngine(RoundDriver<HittingSetEngine>& d, const Problem& problem,
                   const HittingSetConfig& cfg)
      : problem_(problem), cfg_(cfg), copies_mail_(d.net_) {
    const std::size_t n = d.n_;
    log_n_ = util::ceil_log2(n) + 1;
    start_stage(d.plan_.dimension);
    // Only what stage B consumes lives per node; the sampler and
    // hit-marking scratch is per worker thread (O(n + s) per thread).
    scratch_.resize(n);
    // Shard workers spawn here, before any thread pool exists.
    stage_a_.emplace(n, cfg_.parallel_nodes, cfg_.shard, [&] {
      return detail::HittingSetKernel::Boot{cfg_.strict_sampling, problem_};
    });
  }

  void round(RoundDriver<HittingSetEngine>& d) {
    const gossip::Network& net = d.net_;
    // Stage A (core/stage_a.hpp): each node's pulls (Section 2.1), sample
    // selection, hit marking and W_i assembly, against the round-start
    // store, drawing only from the node's own stream.
    stage_a_->run(
        detail::HittingSetKernel{problem_, cfg_.strict_sampling, r_,
                                 push_cap_, pulls_},
        d.net_, d.store_, [&](gossip::NodeId v) { return !net.asleep(v); },
        d.node_rng_, scratch_, d.res_.stats);
    // Stage B: only winners and within-cap W_i pushers, in ascending node
    // order.
    for (const ChunkAcc& ch : stage_a_->chunks()) {
      for (const gossip::NodeId v : ch.replay) {
        d.touch();
        detail::HsNode& sc = scratch_[v];
        if (!sc.winner) {
          for (const Element x : sc.wi) copies_mail_.push(v, x);
        } else if (!d.found()) {
          HittingSetRunResult& res = d.res_;
          res.hitting_set = std::move(sc.sample);
          res.d_used = d_;
          res.sample_size = r_;
          d.record_first();
        }
      }
    }
    d.deliver(copies_mail_, /*as_originals=*/false);
  }

  std::size_t filter_dimension() const { return cfg_.filtering ? d_ : 0; }

  /// The doubling search on the unknown minimum hitting set size: a stage
  /// that runs out doubles d, unless d is fixed or already covers X.
  std::size_t next_stage(std::size_t n) {
    if (cfg_.hitting_set_size || d_ >= problem_.system().universe_size()) {
      return 0;  // give up
    }
    start_stage(2 * d_);
    return stage_rounds(cfg_, d_, n);
  }

  void finish(RoundDriver<HittingSetEngine>& d) {
    HittingSetRunResult& res = d.res_;
    res.valid = !res.hitting_set.empty() &&
                problem_.is_hitting_set(res.hitting_set);
    stage_a_->copy_recovery_stats(cfg_.shard.recovery_out);
  }

 private:
  /// One doubling stage's round cap: O(d log n).
  static std::size_t stage_rounds(const HittingSetConfig& cfg, std::size_t d,
                                  std::size_t n) {
    return cfg.max_rounds ? cfg.max_rounds
                          : 40 * d * (util::ceil_log2(n) + 2) + 40;
  }

  /// The sampler and push parameters of the stage at d.
  void start_stage(std::size_t d) {
    d_ = d;
    r_ = cfg_.sample_size
             ? cfg_.sample_size
             : hitting_set_sample_size(d, problem_.system().set_count());
    pulls_ = SamplerConfig{.target = r_, .c = cfg_.sampler_c, .log_n = log_n_}
                 .pulls_per_node();
    push_cap_ = static_cast<std::size_t>(cfg_.push_cap_c *
                                         static_cast<double>(d) *
                                         static_cast<double>(log_n_)) +
                1;
  }

  const problems::HittingSetProblem& problem_;
  const HittingSetConfig cfg_;
  std::size_t log_n_ = 0;     // ceil(log2 n) + 1
  std::size_t d_ = 0;         // the stage's d
  std::size_t r_ = 0;         // the stage's sample size
  std::size_t pulls_ = 0;     // per node per round
  std::size_t push_cap_ = 0;  // W_i is pushed only when |W_i| <= push_cap_
  gossip::Mailbox<Element> copies_mail_;
  std::vector<detail::HsNode> scratch_;
  // Last: its shard workers or thread pool outlive nothing stage A reads.
  std::optional<StageA<detail::HittingSetKernel>> stage_a_;
};

/// Run Algorithm 6 over `n_nodes` gossip nodes.  If cfg.hitting_set_size is
/// zero the engine performs the doubling search on d the paper sketches in
/// Section 1.4 ("binary search on d, stopping the algorithm if it takes too
/// long"): each stage runs O(d log n) rounds and on failure d doubles.
inline HittingSetRunResult run_hitting_set(
    const problems::HittingSetProblem& problem, std::size_t n_nodes,
    const HittingSetConfig& cfg = {}) {
  const auto universe = static_cast<std::uint32_t>(
      problem.system().universe_size());
  return run_to_end<HittingSetEngine>(
      problem, std::views::iota(std::uint32_t{0}, universe), n_nodes, cfg);
}

}  // namespace lpt::core
