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
// ## Simulator cost per round (the large-n engine contract)
//
// The only per-round loops proportional to n are the ones that do inherent
// per-node algorithm work: the stage-A compute (each awake node's sampler
// pulls, sample selection, local solve, violator scan), metering those
// pulls, and the round-start store snapshot those pulls read.  The
// snapshot is one O(n + |H(V)|) pass per round in every mode — built from
// the live store in-process, encoded by the coordinator and decoded by
// each worker when sharded — that also hashes every stored element once
// to give it a dense id; bookkeeping_touches does not count it.  All
// bookkeeping is proportional to the *active* sets instead:
//
//   * element storage is a slab-backed gossip::NodeStore — |H(V)| is O(1)
//     (incremental), and the filter pass visits only nodes holding copies;
//   * delivery walks only the inboxes that received something (CSR
//     receiver lists), not all n;
//   * the Section 2.3 pull phase is a compact sorted node list that
//     empties after O(log n) rounds;
//   * the stage-B replay walks only the nodes stage A flagged as needing
//     shared-state effects (violator pushes, termination injects), with
//     sampler statistics accumulated as per-chunk counters.
//
// DistributedRunStats::last_round_bookkeeping_touches records the final
// round's bookkeeping node-touches; tests pin it to O(active) << n.
//
// ## Determinism
//
// One run is a pure function of (problem, h_set, n_nodes, cfg): the master
// seed fans out into the network stream, the placement stream, and n
// per-node streams.  cfg.parallel_nodes only changes *where* the stage-A
// compute runs: that stage consumes per-node RNG streams exclusively (a
// node draws its own pulls' targets, answers and loss gaps), every
// shared-RNG side effect is replayed serially in ascending node order in
// stage B (the chunked stage-A collection preserves that order exactly),
// and the filter pass consumes per-node streams only — so results are
// bit-identical for every thread count.
//
// Stage A is one kernel (detail::LowLoadKernel) that core/stage_a.hpp runs
// inline, on a thread pool, or on shard workers started from a bootstrap
// frame holding the problem instance, the sampler constants, the
// termination flag and the oracle.
//
// LowLoadRun exposes one run round by round (step()); run_low_load is that
// run stepped to completion.  A round reads only the run's own state, so a
// run stepped with other work between its rounds is bit-identical to an
// uninterrupted one (the query service relies on this).
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
#include "core/sampling.hpp"
#include "core/stage_a.hpp"
#include "core/termination.hpp"
#include "gossip/mailbox.hpp"
#include "gossip/network.hpp"
#include "obs/obs.hpp"
#include "shard/runtime.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace lpt::core {

enum class SamplingMode {
  kPullBased,   // Section 2.1 sampler (the paper's algorithm)
  kIdealized,   // exact uniform draws from H(V) (ablation upper bound)
};

/// Configuration for run_low_load.  Every field participates in the
/// determinism contract above except parallel_nodes, which is guaranteed
/// not to (bit-identical results for any value).
struct LowLoadConfig {
  std::uint64_t seed = 1;
  double sampler_c = 2.0;        // pull-count constant of Section 2.1
  bool strict_sampling = false;  // fail short samples (theory mode)
  bool filtering = true;         // Algorithm 2 line 8-9 (ablation toggle)
  SamplingMode sampling = SamplingMode::kPullBased;
  bool run_termination = false;  // run Algorithm 3 until every node outputs
  std::size_t termination_maturity = 0;  // 0: 2*ceil(log2 n) + 4
  std::size_t max_rounds = 0;            // 0: auto safety cap
  std::size_t min_rounds = 0;  // keep simulating at least this many rounds
                               // even after the optimum is found (used by
                               // long-horizon load measurements / ablations)
  gossip::FaultModel faults;   // message loss / sleeping nodes (Section 1.2's
                               // robustness claim; see gossip::FaultModel)
  const ChurnSchedule* churn = nullptr;  // nodes leaving/joining mid-run with
                                         // store handoff (core/churn.hpp);
                                         // incompatible with run_termination
                                         // (departed nodes cannot output)
  std::size_t dimension_override = 0;  // run as if dim(H, f) were this value
                                       // (the Section 1.4 doubling search on
                                       // an unknown d; 0 = use p.dimension())
  std::size_t parallel_nodes = 0;  // >1: stage A (pulls, sample selection,
                                   // local solve, violator scan) runs on
                                   // this many threads, bit-identical to
                                   // the serial run (core/stage_a.hpp).
                                   // The pool lives for one run: combining
                                   // with a bench-level --threads sweep
                                   // oversubscribes — pick one level.
  shard::ShardConfig shard;  // shards >= 1: stage A runs on that many shard
                             // workers (shard/runtime.hpp), bit-identical
                             // to the serial run for every shard count and
                             // transport; takes precedence over
                             // parallel_nodes.  Needs shard wire codecs for
                             // the problem's elements, solutions and
                             // instance, else the run stays in-process.
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

/// One run of the Low-Load Clarkson Algorithm on (p, h_set) over `n_nodes`
/// gossip nodes, resumable round by round: the constructor does the set-up
/// (oracle, RNG tree, placement, shard workers, channels), step() runs one
/// round, done() reports the stop rule, and finish() does the post-run
/// accounting.  The run stops when some node's sample attains f(H) (the
/// paper's Figure 2 measurement), or — with cfg.run_termination — when
/// every node has produced an Algorithm 3 output.
///
/// Stepping draws no RNG and keeps no clock, so the result does not depend
/// on what the caller does between steps: it is bit-identical to
/// run_low_load.  The run borrows `p`, cfg.churn and cfg.shard.recovery_out
/// until it is destroyed; channels and shard workers hold addresses inside
/// it, so it is neither copyable nor movable.
template <LpTypeProblem P>
class LowLoadRun {
 public:
  using Element = typename P::Element;
  using Solution = typename P::Solution;

  LowLoadRun(const P& p, std::span<const Element> h_set, std::size_t n_nodes,
             const LowLoadConfig& cfg = {});
  LowLoadRun(const LowLoadRun&) = delete;
  LowLoadRun& operator=(const LowLoadRun&) = delete;

  /// True once the run has stopped (stop rule met past cfg.min_rounds, or
  /// the round cap reached); an empty h_set is done at construction.
  bool done() const noexcept { return done_; }

  /// Run one round.  Requires !done().
  void step();

  /// The post-run accounting; call once, after done().
  DistributedLpResult<P> finish();

 private:
  using Kernel = detail::LowLoadKernel<P>;

  bool absent(gossip::NodeId v) const {
    return churn_on_ && !members_->present(v);
  }

  const P& p_;
  const LowLoadConfig cfg_;  // a copy: the caller's config may not outlive us
  const std::size_t n_;
  const Solution oracle_;
  const std::size_t maturity_;
  DistributedLpResult<P> res_;
  gossip::Network net_;
  std::vector<util::Rng> node_rng_;
  gossip::NodeStore<Element> store_;
  SamplerConfig sampler_;
  double keep_p_ = 0.0;
  std::size_t max_rounds_ = 0;
  gossip::PullChannel<Element> seed_chan_;  // Section 2.3 pull phase
  gossip::Mailbox<Element> copies_mail_;    // W_i pushes
  gossip::Mailbox<Element> seeds_mail_;     // (h, 0) pushes
  TerminationProtocol<P> term_;
  std::vector<std::uint8_t> in_pull_phase_;
  std::vector<gossip::NodeId> pull_nodes_;
  const bool churn_on_;
  std::optional<ChurnState> members_;
  detail::ChurnCursor churn_cursor_;
  std::vector<Element> handoff_scratch_;
  // Per-node stage-A output, persistent across rounds so the steady state
  // allocates nothing.
  std::vector<typename Kernel::Node> scratch_;
  bool found_ = false;
  std::size_t t_ = 0;  // rounds run so far
  bool done_ = false;
  // Last: its shard workers or thread pool outlive nothing stage A reads.
  std::optional<StageA<Kernel>> stage_a_;
};

template <LpTypeProblem P>
LowLoadRun<P>::LowLoadRun(const P& p, std::span<const Element> h_set,
                          std::size_t n_nodes, const LowLoadConfig& cfg)
    : p_(p),
      cfg_(cfg),
      n_(n_nodes),
      oracle_(p.solve(h_set)),
      maturity_(cfg.termination_maturity
                    ? cfg.termination_maturity
                    : 2 * (util::ceil_log2(n_nodes) + 2)),
      net_(n_nodes, util::Rng(cfg.seed).child(0), cfg.faults),
      store_(n_nodes),
      seed_chan_(net_),
      copies_mail_(net_),
      seeds_mail_(net_),
      term_(p, net_, maturity_),
      churn_on_(cfg.churn != nullptr && !cfg.churn->empty()),
      churn_cursor_(churn_on_ ? cfg.churn : nullptr) {
  const std::size_t d =
      cfg.dimension_override ? cfg.dimension_override : p.dimension();
  const std::size_t n = n_nodes;
  LPT_CHECK(n >= 1 && d >= 1);
  if (h_set.empty()) {
    res_.solution = oracle_;
    res_.stats.reached_optimum = true;
    done_ = true;
    return;
  }

  util::Rng master(cfg.seed);
  util::Rng dist_rng = master.child(1);
  node_rng_.reserve(n);
  for (std::size_t v = 0; v < n; ++v) node_rng_.push_back(master.child(2 + v));

  // Initial placement: every element lands on a uniformly random node
  // (the paper's standing assumption; achievable with one push each).
  for (const auto& h : h_set) {
    store_.add_original(static_cast<gossip::NodeId>(dist_rng.below(n)), h);
  }

  sampler_.target = 6 * d * d;
  sampler_.c = cfg.sampler_c;
  sampler_.log_n = util::ceil_log2(n) + 1;
  sampler_.strict = cfg.strict_sampling;
  keep_p_ = 1.0 / (1.0 + 1.0 / (2.0 * static_cast<double>(d)));

  max_rounds_ =
      cfg.max_rounds ? cfg.max_rounds
                     : 60 * d * (util::ceil_log2(n) + 2) + 8 * maturity_ + 60;
  // The meter closes one history entry per round: reserving the round
  // bound up front keeps begin_round's push_back realloc-free for the
  // whole run (+1 covers the finish() flush of the last round).
  net_.meter().reserve_rounds(max_rounds_ + 1);

  // Stage A (core/stage_a.hpp) runs on shard workers when configured and
  // the problem has wire codecs, else on cfg.parallel_nodes threads —
  // bit-identical to the serial run either way.  Workers spawn here,
  // before any thread pool exists.
  stage_a_.emplace(n, cfg.parallel_nodes, cfg.shard, [&] {
    return typename Kernel::Boot{cfg.sampling == SamplingMode::kIdealized,
                                 cfg.run_termination, sampler_, oracle_, p};
  });

  // Section 2.3: nodes with no original element start in the pull phase.
  // The phase membership is a compact *sorted* id list (plus a flag array
  // for O(1) stage-A checks): the request loop and the stage-B response
  // walk cost O(phase members), which drops to zero after O(log n) rounds.
  in_pull_phase_.assign(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    if (store_.h0_count(static_cast<gossip::NodeId>(v)) == 0) {
      in_pull_phase_[v] = 1;
      pull_nodes_.push_back(static_cast<gossip::NodeId>(v));
    }
  }

  // Churn (core/churn.hpp): membership bookkeeping plus a cursor over the
  // schedule.  Events apply at the top of their round, before any traffic.
  LPT_CHECK_MSG(!(churn_on_ && cfg.run_termination),
                "run_low_load: churn is incompatible with run_termination");
  if (churn_on_) members_.emplace(n);

  res_.stats.initial_total_elements = store_.total_elements();
  res_.stats.max_total_elements = res_.stats.initial_total_elements;
  scratch_.resize(n);
}

template <LpTypeProblem P>
void LowLoadRun<P>::step() {
  LPT_CHECK_MSG(!done_, "LowLoadRun::step after done()");
  const std::size_t n = n_;
  const std::size_t t = ++t_;
  net_.begin_round();
  obs::trace_tick();  // rounds are the engine's sampling unit
  obs::TraceSpan round_span("low_load.round", t);
  std::size_t bookkeeping = 0;

  // --- Churn events due this round: a leaver hands its store off to
  // uniformly random present nodes (originals stay originals) and drops
  // out of the pull phase; a joiner enters the Section 2.3 pull phase.
  for (const ChurnEvent& ev : churn_cursor_.events_due(t)) {
    const gossip::NodeId v = ev.node;
    if (ev.join) {
      members_->join(v);
      if (!in_pull_phase_[v]) {
        in_pull_phase_[v] = 1;
        pull_nodes_.insert(
            std::lower_bound(pull_nodes_.begin(), pull_nodes_.end(), v), v);
      }
    } else {
      members_->leave(v);  // before hand_off: targets exclude the leaver
      detail::hand_off_store(store_, v, *members_, net_.rng(),
                             handoff_scratch_);
      if (in_pull_phase_[v]) {
        in_pull_phase_[v] = 0;
        pull_nodes_.erase(
            std::lower_bound(pull_nodes_.begin(), pull_nodes_.end(), v));
      }
    }
  }

  // --- Pull phase requests (Algorithm 4, lines 2-6): O(phase members).
  for (const gossip::NodeId v : pull_nodes_) {
    if (!net_.asleep(v)) seed_chan_.request(v);
  }
  seed_chan_.resolve([&](gossip::NodeId target) -> std::optional<Element> {
    const std::size_t h0 = store_.h0_count(target);
    if (h0 == 0) return std::nullopt;
    return store_.elem(target, net_.rng().below(h0));
  });

  // --- Per-node compute (stage A, core/stage_a.hpp): the node's pulls
  // (Algorithm 2 line 3 via Section 2.1), sample selection, local solve,
  // and violator scan, against the round-start store.  It touches only
  // node_rng_[v], so it fans out across threads or shard workers; every
  // shared-RNG side effect (mailbox pushes, termination traffic) is
  // collected per chunk and replayed in stage B in node order, making
  // those runs bit-identical to serial ones.
  stage_a_->run(
      Kernel{p_, oracle_, sampler_, sampler_.pulls_per_node(),
             cfg_.sampling == SamplingMode::kIdealized, cfg_.run_termination,
             found_},
      net_, store_,
      [&](gossip::NodeId v) {
        return !net_.asleep(v) && !in_pull_phase_[v] && !absent(v);
      },
      node_rng_, scratch_, res_.stats);

  // --- Shared-state replay (stage B): walk the pull-phase list and the
  // per-chunk candidate lists merged in ascending node order — the exact
  // order (and hence shared-RNG stream) of a full O(n) scan, at
  // O(phase members + candidates) cost. ---
  std::size_t pull_read = 0;
  std::size_t pull_write = 0;
  auto replay_pull_below = [&](gossip::NodeId limit) {
    while (pull_read < pull_nodes_.size() && pull_nodes_[pull_read] < limit) {
      const gossip::NodeId v = pull_nodes_[pull_read++];
      ++bookkeeping;
      bool exited = false;
      if (!net_.asleep(v)) {
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
      ++bookkeeping;
      const auto& sc = scratch_[v];
      for (const auto& h : sc.violators) copies_mail_.push(v, h);
      if (sc.violators.empty() && cfg_.run_termination) {
        term_.inject(v, static_cast<std::uint32_t>(t), sc.sol);
      }
    }
  }
  replay_pull_below(static_cast<gossip::NodeId>(n));
  pull_nodes_.resize(pull_write);
  if (!found_ && first_opt != detail::kNoNodeId) {
    found_ = true;
    res_.solution = scratch_[first_opt].sol;
    res_.stats.rounds_to_first = t;
    res_.stats.reached_optimum = true;
  }

  // --- Delivery (received at the beginning of the next round): walk
  // only the inboxes that received something. ---
  seeds_mail_.deliver();
  copies_mail_.deliver();
  for (const gossip::NodeId v : seeds_mail_.receivers()) {
    ++bookkeeping;
    // A departed receiver drops the delivery: the seed is a duplicate of
    // an original the answerer still holds, so nothing is destroyed.
    if (absent(v)) continue;
    for (const auto& h : seeds_mail_.inbox(v)) store_.add_original(v, h);
  }
  for (const gossip::NodeId v : copies_mail_.receivers()) {
    ++bookkeeping;
    if (absent(v)) continue;  // pushers retain their own copies
    for (const auto& h : copies_mail_.inbox(v)) store_.add_copy(v, h);
  }

  // --- Filtering (lines 8-9): originals are never deleted; only the
  // copy-holding nodes are visited, each consuming its own RNG stream.
  if (cfg_.filtering) {
    bookkeeping += store_.filter_copies(
        keep_p_, [&](gossip::NodeId v) -> util::Rng& { return node_rng_[v]; });
  }

  if (cfg_.run_termination) {
    term_.round(static_cast<std::uint32_t>(t),
                [&](gossip::NodeId v) { return store_.view(v); });
  }

  res_.stats.end_round(store_.total_elements(), bookkeeping);

  const bool stop = cfg_.run_termination ? term_.all_output() : found_;
  if (stop && t >= cfg_.min_rounds) {
    res_.stats.rounds_to_all_output = cfg_.run_termination ? t : 0;
    done_ = true;
  } else if (t == max_rounds_) {
    done_ = true;
  }
}

template <LpTypeProblem P>
DistributedLpResult<P> LowLoadRun<P>::finish() {
  LPT_CHECK_MSG(done_, "LowLoadRun::finish before done()");
  // An empty h_set ran no round: the constructor already set the answer.
  if (t_ == 0) return std::move(res_);

  if (cfg_.run_termination) {
    for (gossip::NodeId v = 0; v < n_; ++v) {
      const auto& out = term_.output(v);
      if (!out || !p_.same_value(*out, oracle_)) {
        res_.stats.all_outputs_correct = false;
        break;
      }
    }
    if (term_.all_output() && res_.stats.all_outputs_correct && !found_) {
      // Every node output the optimum via the protocol even though the
      // oracle check never fired (possible only in degenerate instances).
      res_.solution = *term_.output(0);
      res_.stats.reached_optimum = true;
    }
  }

  stage_a_->copy_recovery_stats(cfg_.shard.recovery_out);
  res_.stats.finish(net_.meter(), store_.total_elements());
  obs::counter("engine.low_load.runs").add(1);
  obs::counter("engine.low_load.rounds").add(res_.stats.rounds_to_first);
  obs::gauge("engine.low_load.store_arena_bytes")
      .set(static_cast<std::int64_t>(store_.arena_bytes()));
  return std::move(res_);
}

/// Run the Low-Load Clarkson Algorithm to completion: a LowLoadRun stepped
/// until done().
template <LpTypeProblem P>
DistributedLpResult<P> run_low_load(const P& p,
                                    std::span<const typename P::Element> h_set,
                                    std::size_t n_nodes,
                                    const LowLoadConfig& cfg = {}) {
  LowLoadRun<P> run(p, h_set, n_nodes, cfg);
  while (!run.done()) run.step();
  return run.finish();
}

}  // namespace lpt::core
