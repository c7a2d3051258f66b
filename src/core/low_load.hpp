// The Low-Load Clarkson Algorithm (paper Section 2: Algorithms 2 and 4).
//
// Setting: |H| = O(n log n), elements initially distributed uniformly at
// random over n anonymous gossip nodes.  Per iteration (= one round, the
// paper's Section 2 convention) every node:
//
//   1. samples a random multiset R_i of size 6d^2 from H(V) with the
//      Section 2.1 pull sampler,
//   2. pushes its local violators W_i = { h in H(v_i) : f(R_i) < f(R_i+h) }
//      to uniformly random nodes (multiplicity doubling, distributed), and
//   3. filters: every non-original element is kept with probability
//      1/(1 + 1/(2d)), so |H(V)| stays O(|H_0|) (Lemma 9) while original
//      elements are never deleted (no wash-out).
//
// Nodes with no initial element first run the Section 2.3 pull phase so
// that |H(V)| >= n holds from O(log n) rounds on (Lemma 13).
//
// Theorem 3: O(d log n) rounds and O(d^2 + log n) work per node per round,
// w.h.p.  bench/fig2_low_load reproduces Figure 2 with this engine.
//
// ## Simulator cost and determinism
//
// core/round_driver.hpp runs the round.  The only per-round loops
// proportional to n do inherent per-node work: stage A (each awake node's
// pulls, sample selection, local solve and violator scan), metering those
// pulls, and the round-start store snapshot they read.  All bookkeeping is
// proportional to the *active* sets: the Section 2.3 pull phase is a sorted
// node list that empties after O(log n) rounds, and the stage-B replay
// walks only the nodes stage A flagged; tests pin
// last_round_bookkeeping_touches to O(active) << n.
//
// Stage A (detail::LowLoadKernel, run by core/stage_a.hpp inline, on a
// thread pool or on shard workers) draws only from per-node streams, and
// every shared-RNG effect is replayed in stage B in ascending node order,
// so a run is a pure function of (problem, h_set, n_nodes, cfg) whatever
// cfg.parallel_nodes and cfg.shard say — and whatever a caller does
// between the steps of a LowLoadRun (the query service relies on it).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/churn.hpp"
#include "core/lp_type.hpp"
#include "core/result.hpp"
#include "core/round_driver.hpp"
#include "core/sampling.hpp"
#include "core/stage_a.hpp"
#include "gossip/mailbox.hpp"
#include "gossip/network.hpp"
#include "shard/runtime.hpp"
#include "util/math.hpp"

namespace lpt::core {

enum class SamplingMode {
  kPullBased,   // Section 2.1 sampler (the paper's algorithm)
  kIdealized,   // exact uniform draws from H(V) (ablation upper bound)
};

/// Configuration for run_low_load.  Every field participates in the
/// determinism contract above except parallel_nodes and shard, which only
/// move stage A (bit-identical results for any value).
struct LowLoadConfig {
  std::uint64_t seed = 1;
  double sampler_c = 2.0;        // pull-count constant of Section 2.1
  bool strict_sampling = false;  // fail short samples (theory mode)
  bool filtering = true;         // Algorithm 2 line 8-9 (ablation toggle)
  SamplingMode sampling = SamplingMode::kPullBased;
  bool run_termination = false;  // run Algorithm 3 until every node outputs
  std::size_t termination_maturity = 0;  // 0: 2*ceil(log2 n) + 4
  std::size_t max_rounds = 0;            // 0: auto safety cap
  std::size_t min_rounds = 0;  // keep running at least this long, even past
                               // the optimum (long-horizon load runs)
  gossip::FaultModel faults;   // message loss / sleeping nodes (Section 1.2)
  const ChurnSchedule* churn = nullptr;  // nodes leaving/joining mid-run
                                         // (core/churn.hpp); incompatible
                                         // with run_termination
  std::size_t dimension_override = 0;  // run as if dim(H, f) were this (the
                                       // Section 1.4 doubling search on an
                                       // unknown d); 0: p.dimension()
  std::size_t parallel_nodes = 0;  // >1: stage A (core/stage_a.hpp) runs on
                                   // this many threads for one run; a bench
                                   // --threads sweep on top oversubscribes
  shard::ShardConfig shard;  // shards >= 1: stage A runs on shard workers
                             // (shard/runtime.hpp), over parallel_nodes, if
                             // the problem's elements, solutions and
                             // instance have wire codecs
};

template <LpTypeProblem P>
struct DistributedLpResult {
  typename P::Solution solution;  // the optimum found (first node's f(R_i))
  DistributedRunStats stats;
};

namespace detail {

/// The sharded runtime is available for P when its elements, its solutions
/// and its instances have shard wire codecs (shard/wire.hpp customization
/// points); otherwise a run falls back to the in-process paths.
template <typename P>
concept ShardableLowLoad = shard::Wirable<typename P::Element> &&
                           shard::Wirable<typename P::Solution> &&
                           shard::WirableInstance<P>;

/// A low-load node's stage-A output: its sample's solution and its local
/// violators W_i, which stage B pushes.
template <LpTypeProblem P>
struct LowLoadNode {
  typename P::Solution sol;
  std::vector<typename P::Element> violators;
};

/// The low-load stage-A kernel (core/stage_a.hpp), built per round: one
/// node's pulls (draw_pulls against the round-start snapshot, or exact
/// uniform draws from H(V) when idealized), sample selection, local solve
/// and violator scan, for the in-process chunk loop and the shard workers.
template <LpTypeProblem P>
struct LowLoadKernel {
  using Element = typename P::Element;
  using Solution = typename P::Solution;
  using Node = LowLoadNode<P>;
  using Scratch = PullBuffer<Element>;
  static constexpr bool kShardable = ShardableLowLoad<P>;
  static constexpr const char* kChunkSpan = "low_load.stage_a.chunk";

  const P& p;
  const Solution& oracle;
  const SamplerConfig& sampler;
  std::size_t pulls;     // sampler.pulls_per_node()
  bool idealized;        // SamplingMode::kIdealized
  bool run_termination;  // every node's solution feeds Algorithm 3
  bool found;            // an optimum was found in an earlier round

  /// Consumes `rng` exactly as a serial full scan would.  kFirst marks the
  /// range's first node whose solution is the optimum, until one is found.
  std::uint8_t run(const shard::StoreSnapshot<Element>& store,
                   const PullRound& round, gossip::NodeId v, util::Rng& rng,
                   Scratch& buf, bool first_open,
                   std::uint64_t& response_bytes, Node& out) const {
    std::span<std::uint32_t> answers;
    if (!idealized) {
      answers = draw_pulls(store, round, pulls, rng, buf);
      response_bytes +=
          pull_response_bytes(store, std::span<const std::uint32_t>(answers));
    } else {
      // Exact uniform draws from H(V): global index g is snapshot slot g.
      const std::size_t m = store.offsets().back();
      const std::size_t k = m > 0 ? pulls : 0;
      if (buf.answers.size() < k) buf.answers.resize(k);
      for (std::size_t i = 0; i < k; ++i) {
        buf.answers[i] = static_cast<std::uint32_t>(rng.below(m));
      }
      answers = {buf.answers.data(), k};
      response_bytes += k * sizeof(Element);
    }
    const SampleView<Element> view = select_distinct_answers(
        store, answers, sampler.target, rng, sampler.strict, buf);
    if (!view.success) return shard::nodeflag::kFailed;
    // A full-size sample left the selection step in uniform random order,
    // so the problem's pre-shuffled local solve applies; lenient short
    // samples keep dedupe order and take the shuffling solve.
    if constexpr (requires { p.solve_shuffled(view.sample); }) {
      out.sol = view.randomized ? p.solve_shuffled(view.sample)
                                : p.solve(view.sample);
    } else {
      out.sol = p.solve(view.sample);
    }
    // W_i: local violators (Algorithm 2 lines 5-6), pushed in stage B.
    out.violators.clear();
    for (const auto& h : store.view(v)) {
      if (p.violates(out.sol, h)) out.violators.push_back(h);
    }
    const bool first = first_open && !found && p.same_value(out.sol, oracle);
    const bool replay = !out.violators.empty() || run_termination;
    std::uint8_t flags = 0;
    if (replay) flags |= shard::nodeflag::kReplay;
    if (first) flags |= shard::nodeflag::kFirst;
    // Ship the solution only where stage B can read it: termination
    // injects (replay with no violators) and the round's first optimum
    // (res.solution).
    if ((replay && out.violators.empty()) || first) {
      flags |= shard::nodeflag::kSolution;
    }
    return flags;
  }

  // Task header: u8 found.  Node payload: if kReplay: violators seq; if
  // kSolution: solution.
  void put_round(gossip::Encoder& e) const { e.put_u8(found ? 1 : 0); }
  void put_node(gossip::Encoder& e, std::uint8_t flags, const Node& n) const {
    if (flags & shard::nodeflag::kReplay) {
      shard::put_seq(e, std::span<const Element>(n.violators));
    }
    if (flags & shard::nodeflag::kSolution) wire_put(e, n.sol);
  }
  void get_node(gossip::Decoder& d, std::uint8_t flags, Node& n) const {
    if (flags & shard::nodeflag::kReplay) shard::get_seq(d, n.violators);
    if (flags & shard::nodeflag::kSolution) wire_get(d, n.sol);
  }

  /// A low-load shard worker's bootstrap payload: all of the run its
  /// kernel reads besides the task frames (the problem *type* is compile
  /// time).  Schema: u8 idealized · u8 run_termination · u8 strict ·
  /// u32 target · u32 log_n · f64 c · oracle solution · problem instance.
  struct Boot {
    bool idealized;
    bool run_termination;
    SamplerConfig sampler;
    Solution oracle;
    P p;

    void put(gossip::Encoder& e) const {
      e.put_u8(idealized ? 1 : 0);
      e.put_u8(run_termination ? 1 : 0);
      e.put_u8(sampler.strict ? 1 : 0);
      e.put_u32(static_cast<std::uint32_t>(sampler.target));
      e.put_u32(static_cast<std::uint32_t>(sampler.log_n));
      e.put_f64(sampler.c);
      wire_put(e, oracle);
      wire_put(e, p);
    }

    static Boot get(gossip::Decoder& d) {
      const bool idealized = d.get_u8() != 0;
      const bool run_termination = d.get_u8() != 0;
      SamplerConfig sampler;
      sampler.strict = d.get_u8() != 0;
      sampler.target = d.get_u32();
      sampler.log_n = d.get_u32();
      sampler.c = d.get_f64();
      Solution oracle;
      wire_get(d, oracle);
      return {idealized, run_termination, sampler, std::move(oracle),
              wire_make(d, std::type_identity<P>{})};
    }

    /// This round's kernel, from a task frame's header.
    LowLoadKernel kernel(gossip::Decoder& task) const {
      return {p,         oracle,          sampler,
              sampler.pulls_per_node(),   idealized,
              run_termination, task.get_u8() != 0};
    }
  };
};
}  // namespace detail

/// The low-load engine of core/round_driver.hpp: the Section 2.3 pull
/// phase, stage A (LowLoadKernel through core/stage_a.hpp) and the stage-B
/// replay that merges the pull-phase list with the chunks' candidates.
template <LpTypeProblem P>
class LowLoadEngine : public EngineHooks {
 public:
  using Problem = P;
  using Element = typename P::Element;
  using Input = std::span<const Element>;
  using Config = LowLoadConfig;
  using Result = DistributedLpResult<P>;
  static constexpr EngineNames kNames = LPT_ENGINE_NAMES("low_load");

  static RoundPlan plan(const P& p, const LowLoadConfig& cfg, std::size_t) {
    return {.seed = cfg.seed, .faults = cfg.faults, .churn = cfg.churn,
            .run_termination = cfg.run_termination,
            .termination_maturity = cfg.termination_maturity,
            .max_rounds = cfg.max_rounds, .min_rounds = cfg.min_rounds,
            .dimension = cfg.dimension_override ? cfg.dimension_override
                                                : p.dimension()};
  }

  LowLoadEngine(RoundDriver<LowLoadEngine>& d, const P& p,
                const LowLoadConfig& cfg)
      : p_(p), cfg_(cfg), d_(d.plan_.dimension), seed_chan_(d.net_),
        copies_mail_(d.net_), seeds_mail_(d.net_) {
    const std::size_t n = d.n_;
    sampler_ = {.target = 6 * d_ * d_,
                .c = cfg_.sampler_c,
                .log_n = util::ceil_log2(n) + 1,
                .strict = cfg_.strict_sampling};
    // Shard workers spawn here, before any thread pool exists.
    stage_a_.emplace(n, cfg_.parallel_nodes, cfg_.shard, [&] {
      return typename Kernel::Boot{idealized(), cfg_.run_termination,
                                   sampler_, d.lp_.oracle, p_};
    });
    // Section 2.3: nodes with no original element start in the pull phase.
    in_pull_phase_.assign(n, 0);
    for (gossip::NodeId v = 0; v < n; ++v) {
      if (d.store_.h0_count(v) == 0) on_join(v);
    }
    scratch_.resize(n);
  }

  void round(RoundDriver<LowLoadEngine>& d);

  // A joiner enters the Section 2.3 pull phase (a sorted id list plus a
  // flag array for O(1) stage-A checks); a leaver drops out of it.
  void on_join(gossip::NodeId v) {
    if (in_pull_phase_[v]) return;
    in_pull_phase_[v] = 1;
    pull_nodes_.insert(
        std::lower_bound(pull_nodes_.begin(), pull_nodes_.end(), v), v);
  }
  void on_leave(gossip::NodeId v) {
    if (!in_pull_phase_[v]) return;
    in_pull_phase_[v] = 0;
    pull_nodes_.erase(
        std::lower_bound(pull_nodes_.begin(), pull_nodes_.end(), v));
  }
  std::size_t filter_dimension() const { return cfg_.filtering ? d_ : 0; }

  void finish(auto&) {
    stage_a_->copy_recovery_stats(cfg_.shard.recovery_out);
  }

 private:
  using Kernel = detail::LowLoadKernel<P>;

  bool idealized() const { return cfg_.sampling == SamplingMode::kIdealized; }

  const P& p_;
  const LowLoadConfig cfg_;  // a copy: the caller's config may not outlive us
  const std::size_t d_;
  SamplerConfig sampler_;
  gossip::PullChannel<Element> seed_chan_;  // Section 2.3 pull phase
  gossip::Mailbox<Element> copies_mail_;    // W_i pushes
  gossip::Mailbox<Element> seeds_mail_;     // (h, 0) pushes
  std::vector<std::uint8_t> in_pull_phase_;
  std::vector<gossip::NodeId> pull_nodes_;
  // Per-node stage-A output, kept across rounds: no steady-state allocation.
  std::vector<typename Kernel::Node> scratch_;
  // Last: its shard workers or thread pool outlive nothing stage A reads.
  std::optional<StageA<Kernel>> stage_a_;
};

template <LpTypeProblem P>
void LowLoadEngine<P>::round(RoundDriver<LowLoadEngine>& d) {
  gossip::Network& net = d.net_;
  const gossip::NodeStore<Element>& store = d.store_;

  // --- Pull phase requests (Algorithm 4, lines 2-6): O(phase members).
  for (const gossip::NodeId v : pull_nodes_) {
    if (!net.asleep(v)) seed_chan_.request(v);
  }
  seed_chan_.resolve([&](gossip::NodeId target) -> std::optional<Element> {
    const std::size_t h0 = store.h0_count(target);
    if (h0 == 0) return std::nullopt;
    return store.elem(target, net.rng().below(h0));
  });

  // --- Stage A (core/stage_a.hpp): each node's pulls (Algorithm 2 line 3
  // via Section 2.1), sample selection, local solve and violator scan,
  // against the round-start store and drawing only from its own stream.
  stage_a_->run(
      Kernel{p_, d.lp_.oracle, sampler_, sampler_.pulls_per_node(), idealized(),
             cfg_.run_termination, d.found()},
      net, store,
      [&](gossip::NodeId v) {
        return !net.asleep(v) && !in_pull_phase_[v] && !d.absent(v);
      },
      d.node_rng_, scratch_, d.res_.stats);

  // --- Stage B: walk the pull-phase list and the chunks' candidate lists
  // merged in ascending node order — the shared-RNG order of a full O(n)
  // scan, at O(phase members + candidates) cost. ---
  std::size_t pull_read = 0;
  std::size_t pull_write = 0;
  auto replay_pull_below = [&](gossip::NodeId limit) {
    while (pull_read < pull_nodes_.size() && pull_nodes_[pull_read] < limit) {
      const gossip::NodeId v = pull_nodes_[pull_read++];
      d.touch();
      bool exited = false;
      if (!net.asleep(v)) {
        const auto got = seed_chan_.responses(v);
        if (!got.empty()) {
          seeds_mail_.push(v, got.front());
          in_pull_phase_[v] = 0;
          exited = true;
        }
      }
      if (!exited) pull_nodes_[pull_write++] = v;
    }
  };
  gossip::NodeId first_opt = detail::kNoNodeId;
  for (const ChunkAcc& ch : stage_a_->chunks()) {
    if (first_opt == detail::kNoNodeId) first_opt = ch.first;
    for (const gossip::NodeId v : ch.replay) {
      replay_pull_below(v);
      d.touch();
      const auto& sc = scratch_[v];
      for (const auto& h : sc.violators) copies_mail_.push(v, h);
      if (sc.violators.empty()) d.inject(v, sc.sol);
    }
  }
  replay_pull_below(static_cast<gossip::NodeId>(d.n_));
  pull_nodes_.resize(pull_write);
  if (!d.found() && first_opt != detail::kNoNodeId) {
    d.res_.solution = scratch_[first_opt].sol;
    d.record_first();
  }

  // --- Delivery: a seed becomes an original, a W_i element a copy. ---
  d.deliver(seeds_mail_, /*as_originals=*/true);
  d.deliver(copies_mail_, /*as_originals=*/false);
}

/// One resumable run of the Low-Load Clarkson Algorithm (construct, then
/// step() until done(), then finish()).  It stops when some node's sample
/// attains f(H) (the paper's Figure 2 measurement), or — with
/// cfg.run_termination — when every node has an Algorithm 3 output.
template <LpTypeProblem P>
using LowLoadRun = RoundDriver<LowLoadEngine<P>>;

/// Run the Low-Load Clarkson Algorithm to completion: a LowLoadRun stepped
/// until done().
template <LpTypeProblem P>
DistributedLpResult<P> run_low_load(const P& p,
                                    std::span<const typename P::Element> h_set,
                                    std::size_t n_nodes,
                                    const LowLoadConfig& cfg = {}) {
  return run_to_end<LowLoadEngine<P>>(p, h_set, n_nodes, cfg);
}

}  // namespace lpt::core
