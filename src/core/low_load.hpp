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
// LowLoadRun exposes one run round by round (step()); run_low_load is that
// run stepped to completion.  A round reads only the run's own state, so a
// run stepped with other work between its rounds is bit-identical to an
// uninterrupted one (the query service relies on this).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/churn.hpp"
#include "core/lp_type.hpp"
#include "core/result.hpp"
#include "core/sampling.hpp"
#include "core/termination.hpp"
#include "gossip/mailbox.hpp"
#include "gossip/network.hpp"
#include "obs/obs.hpp"
#include "shard/runtime.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/thread_pool.hpp"

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
  std::size_t parallel_nodes = 0;  // >1: per-node compute phase (pulls,
                                   // sample selection, local solve,
                                   // violator scan) runs on this many
                                   // threads.  Results are bit-identical
                                   // to the serial run: the phase
                                   // consumes only the per-node RNG
                                   // streams, and all shared-RNG traffic is
                                   // replayed serially in node order.  Only
                                   // kPullBased sampling parallelizes (the
                                   // idealized sampler meters global pulls).
                                   // The pool lives for one run: combining
                                   // with a bench-level --threads sweep
                                   // oversubscribes (threads x parallel_
                                   // nodes OS threads) — pick one level.
  shard::ShardConfig shard;  // shards >= 1: the stage-A compute runs on that
                             // many shard workers (in-process threads or
                             // fork()ed processes; see shard/runtime.hpp)
                             // over contiguous node ranges, with the stage-B
                             // replay applied after a deterministic merge of
                             // the per-shard candidate streams.  Results are
                             // bit-identical to the serial and the
                             // parallel_nodes paths for every shard count
                             // and either transport.  Takes precedence over
                             // parallel_nodes; requires kPullBased sampling
                             // and a problem with shard wire codecs
                             // (wire_put/wire_get for Element and Solution),
                             // else the run falls back to the in-process
                             // paths.
};

template <LpTypeProblem P>
struct DistributedLpResult {
  typename P::Solution solution;  // the optimum found (first node's f(R_i))
  DistributedRunStats stats;
};

namespace detail {
// "No node" sentinel for the stage-A chunk accumulators.  Namespace scope
// (not function-local constexpr) because GCC 12 ICEs on a local struct
// NSDMI referencing a function-local constexpr inside a template.
inline constexpr gossip::NodeId kNoNodeId = 0xffffffffu;

/// Sample selection, local solve and violator scan of node v from its
/// drawn pull answers (slots of `store`, reordered in place) and its local
/// multiset.  Consumes `rng` exactly as a serial full scan would; returns
/// false when the sample failed (no solve, no further draws).
template <LpTypeProblem P>
bool low_load_solve_sample(
    const P& p, const SamplerConfig& sampler,
    const shard::StoreSnapshot<typename P::Element>& store,
    std::span<std::uint32_t> answers, gossip::NodeId v, util::Rng& rng,
    PullBuffer<typename P::Element>& buf, typename P::Solution& sol,
    std::vector<typename P::Element>& violators) {
  const SampleView<typename P::Element> view = select_distinct_answers(
      store, answers, sampler.target, rng, sampler.strict, buf);
  if (!view.success) return false;
  // A full-size sample left the selection step in uniform random order, so
  // the problem's pre-shuffled local solve applies; lenient short samples
  // keep dedupe order and take the shuffling solve.
  if constexpr (requires { p.solve_shuffled(view.sample); }) {
    sol = view.randomized ? p.solve_shuffled(view.sample)
                          : p.solve(view.sample);
  } else {
    sol = p.solve(view.sample);
  }
  // W_i: local violators (Algorithm 2 lines 5-6), pushed in stage B.
  violators.clear();
  for (const auto& h : store.view(v)) {
    if (p.violates(sol, h)) violators.push_back(h);
  }
  return true;
}

/// One node's stage A: its pulls (draw_pulls on its own stream, against
/// the round-start snapshot `store`), then low_load_solve_sample — the
/// single definition executed by the in-process chunk loop (over the
/// snapshot the run builds each round) and by the shard workers (over the
/// one they decode), so the paths cannot drift.  Adds the answers' wire
/// bytes to `response_bytes`.
template <LpTypeProblem P>
bool low_load_node_stage_a(
    const P& p, const SamplerConfig& sampler,
    const shard::StoreSnapshot<typename P::Element>& store,
    const PullRound& round, gossip::NodeId v, util::Rng& rng,
    PullBuffer<typename P::Element>& buf, std::uint64_t& response_bytes,
    typename P::Solution& sol, std::vector<typename P::Element>& violators) {
  const std::span<std::uint32_t> answers =
      draw_pulls(store, round, sampler.pulls_per_node(), rng, buf);
  response_bytes +=
      pull_response_bytes(store, std::span<const std::uint32_t>(answers));
  return low_load_solve_sample(p, sampler, store, answers, v, rng, buf, sol,
                               violators);
}

/// The sharded runtime is available for P when its element and solution
/// types have shard wire codecs (shard/wire.hpp customization point).
template <typename P>
concept ShardableLowLoad = shard::Wirable<typename P::Element> &&
                           shard::Wirable<typename P::Solution>;

/// Build the stage-A serve handler every low-load shard worker runs.
/// Captures only run-static state (problem, oracle, sampler constants) by
/// value, so it stays valid in a fork()ed child and is data-race-free
/// across in-process worker threads (each worker owns a copy).
///
/// Task payload (after the MsgType byte):
///   u8 found_snapshot · u32 begin · u32 end · the round's pull inputs
///   (put_pull_inputs: loss rate, sorted sleeping nodes, store snapshot) ·
///   per node in [begin, end): u8 flags; if kActive: rng state.
/// Result payload:
///   per node: u8 flags; if kActive: rng state (advanced); if kReplay:
///   violators seq; if kSolution: solution — then u32 attempts,
///   u32 failures, u32 first_opt (kNoNodeId when none), u64 response bytes.
template <LpTypeProblem P>
auto make_low_load_serve(P p, typename P::Solution oracle,
                         SamplerConfig sampler, bool run_termination) {
  using Element = typename P::Element;
  using Solution = typename P::Solution;
  return [p = std::move(p), oracle = std::move(oracle), sampler,
          run_termination, rng = util::Rng{}, sol = Solution{},
          inputs = RemotePullInputs<Element>{}, buf = PullBuffer<Element>{},
          violators = std::vector<Element>{}](gossip::Decoder& d,
                                              gossip::Encoder& e) mutable {
    const bool found_snapshot = d.get_u8() != 0;
    const gossip::NodeId begin = d.get_u32();
    const gossip::NodeId end = d.get_u32();
    inputs.decode(d);
    LPT_CHECK_MSG(begin <= end && end <= inputs.store().nodes(),
                  "shard wire: task range outside the snapshot");
    shard::put_msg_type(e, shard::MsgType::kStageAResult);
    std::uint32_t attempts = 0;
    std::uint32_t failures = 0;
    std::uint64_t response_bytes = 0;
    gossip::NodeId first_opt = kNoNodeId;
    for (gossip::NodeId v = begin; v < end; ++v) {
      if (!(d.get_u8() & shard::nodeflag::kActive)) {
        e.put_u8(0);
        continue;
      }
      shard::get_rng(d, rng);
      ++attempts;
      const bool ok = low_load_node_stage_a(
          p, sampler, inputs.store(), inputs.round(), v, rng, buf,
          response_bytes, sol, violators);
      std::uint8_t flags = shard::nodeflag::kActive;
      if (!ok) {
        ++failures;
      } else {
        bool is_first_opt = false;
        if (!found_snapshot && first_opt == kNoNodeId &&
            p.same_value(sol, oracle)) {
          first_opt = v;
          is_first_opt = true;
        }
        const bool replay = !violators.empty() || run_termination;
        if (replay) flags |= shard::nodeflag::kReplay;
        // Ship the solution only where stage B can read it: termination
        // injects (replay with no violators) and the round's first
        // optimum (res.solution).
        if ((replay && violators.empty()) || is_first_opt) {
          flags |= shard::nodeflag::kSolution;
        }
      }
      e.put_u8(flags);
      shard::put_rng(e, rng);
      if (flags & shard::nodeflag::kReplay) {
        shard::put_seq(e, std::span<const Element>(violators));
      }
      if (flags & shard::nodeflag::kSolution) wire_put(e, sol);
    }
    e.put_u32(attempts);
    e.put_u32(failures);
    e.put_u32(first_opt);
    e.put_u64(response_bytes);
  };
}

/// Bootstrap payload for workers that inherit nothing via fork (the socket
/// transport; ShardHarness frames these bytes as MsgType::kBootstrap): the
/// run-static instance state make_low_load_serve would otherwise capture at
/// fork time — the termination flag, the sampler constants, the oracle
/// solution.  The problem *type* is compile time (a remote worker binary
/// instantiates the same template); problems whose instances carry no
/// state (MinDisk) are therefore fully described by this payload.
///
/// Schema: u8 run_termination · u8 strict · u32 target · u32 log_n ·
/// f64 c · oracle solution (wire_put).
template <LpTypeProblem P>
std::vector<std::uint8_t> low_load_bootstrap_payload(
    const typename P::Solution& oracle, const SamplerConfig& sampler,
    bool run_termination) {
  gossip::Encoder e;
  e.put_u8(run_termination ? 1 : 0);
  e.put_u8(sampler.strict ? 1 : 0);
  e.put_u32(static_cast<std::uint32_t>(sampler.target));
  e.put_u32(static_cast<std::uint32_t>(sampler.log_n));
  e.put_f64(sampler.c);
  wire_put(e, oracle);
  return e.bytes();
}

/// The matching serve factory: decodes one low_load_bootstrap_payload and
/// builds the same handler make_low_load_serve would have built — run from
/// bootstrap_worker_loop inside every socket worker (and every respawned
/// replacement, which gets the bootstrap re-sent).
template <LpTypeProblem P>
auto make_low_load_bootstrap_factory(P p) {
  return [p = std::move(p)](gossip::Decoder& d) {
    const bool run_termination = d.get_u8() != 0;
    SamplerConfig sampler;
    sampler.strict = d.get_u8() != 0;
    sampler.target = d.get_u32();
    sampler.log_n = d.get_u32();
    sampler.c = d.get_f64();
    typename P::Solution oracle;
    wire_get(d, oracle);
    return make_low_load_serve<P>(p, std::move(oracle), sampler,
                                  run_termination);
  };
}
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
  // Per-node round scratch for the compute stage (stage A).  Persistent
  // across rounds so the steady state allocates nothing.
  struct NodeRound {
    Solution sol;
    std::vector<Element> violators;
  };
  // Stage-A chunk accumulators: fixed contiguous chunks collect, each in
  // ascending node order, the nodes whose stage-B replay has shared-state
  // effects, plus sampler counters and the pull answers' wire bytes.
  // Concatenated in chunk order they recover the exact node order of a
  // full scan at O(candidates) cost, independent of the thread count (see
  // util::parallel_chunks).  In the sharded run the chunks are the shards
  // themselves (contiguous ascending ranges, applied in shard order — the
  // same contract over the wire).
  struct ChunkAcc {
    std::vector<gossip::NodeId> replay;
    std::uint32_t attempts = 0;
    std::uint32_t failures = 0;
    gossip::NodeId first_opt = detail::kNoNodeId;
    std::uint64_t response_bytes = 0;
  };
  static constexpr bool kShardable = detail::ShardableLowLoad<P>;

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
  std::size_t pulls_ = 0;
  double keep_p_ = 0.0;
  std::size_t max_rounds_ = 0;
  bool sharded_ = false;
  std::optional<shard::ShardHarness> harness_;
  std::vector<gossip::NodeId> sleeping_scratch_;  // task-frame encode scratch
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
  std::vector<NodeRound> scratch_;
  shard::StoreSnapshot<Element> snapshot_;  // the round-start store, in-process
  std::size_t chunk_ = 0;
  std::vector<ChunkAcc> chunks_;
  bool found_ = false;
  std::size_t t_ = 0;  // rounds run so far
  bool done_ = false;
  std::optional<util::ThreadPool> pool_;  // after everything its tasks touch
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
  pulls_ = sampler_.pulls_per_node();
  keep_p_ = 1.0 / (1.0 + 1.0 / (2.0 * static_cast<double>(d)));

  max_rounds_ =
      cfg.max_rounds ? cfg.max_rounds
                     : 60 * d * (util::ceil_log2(n) + 2) + 8 * maturity_ + 60;
  // The meter closes one history entry per round: reserving the round
  // bound up front keeps begin_round's push_back realloc-free for the
  // whole run (+1 covers the finish() flush of the last round).
  net_.meter().reserve_rounds(max_rounds_ + 1);

  // Shard runtime (shard/runtime.hpp): when configured and the problem has
  // wire codecs, stage A runs on shard workers over contiguous node ranges
  // and stage B applies the per-shard candidate streams merged in shard
  // order — bit-identical to the serial and parallel_nodes paths.  Workers
  // spawn (PipeTransport: fork) here, before any thread pool exists.
  sharded_ = kShardable && cfg.shard.enabled() &&
             cfg.sampling == SamplingMode::kPullBased;
  if constexpr (kShardable) {
    if (sharded_) {
      if (cfg.shard.transport == shard::TransportKind::kSocket) {
        // Socket workers inherit nothing: the run-static state travels in
        // a bootstrap frame and the serve handler is rebuilt from it
        // inside the worker (and inside every respawned replacement).
        // The fork-inheriting transports keep the closure path — their
        // existing fault-script frame positions must not shift.
        harness_.emplace(n, cfg.shard,
                         detail::low_load_bootstrap_payload<P>(
                             oracle_, sampler_, cfg.run_termination),
                         detail::make_low_load_bootstrap_factory<P>(p));
      } else {
        harness_.emplace(n, cfg.shard,
                         detail::make_low_load_serve<P>(p, oracle_, sampler_,
                                                        cfg.run_termination));
      }
    }
  }

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
  const bool parallel = !sharded_ && cfg.parallel_nodes > 1 &&
                        cfg.sampling == SamplingMode::kPullBased;
  if (parallel) pool_.emplace(cfg.parallel_nodes);
  chunk_ = parallel ? std::max<std::size_t>(64, n / (cfg.parallel_nodes * 8))
                    : n;
  chunks_.resize(sharded_ ? harness_->frame_count()
                          : util::chunk_count(n, chunk_));
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

  // The round-start store that stage A reads, as one flat snapshot with
  // dense ids: an O(n + |H(V)|) pass.  Shard workers decode their own from
  // the task frame instead.
  if (!sharded_) snapshot_.assign(store_);

  // --- Per-node compute (stage A): the node's pulls (Algorithm 2 line 3
  // via Section 2.1), sample selection, local solve, and violator scan.
  // Touches only node_rng_[v] and the store, which stays read-only until
  // delivery, so it fans out across threads when cfg.parallel_nodes asks
  // for it; every shared-RNG side effect (mailbox pushes, termination
  // traffic) is collected per chunk and replayed in stage B in node order,
  // making parallel runs bit-identical to serial ones.
  const bool found_snapshot = found_;
  const PullRound pull_round = core::pull_round(net_);
  auto stage_a = [&](std::size_t k, std::size_t begin, std::size_t end) {
    obs::TraceSpan chunk_span("low_load.stage_a.chunk", k);
    thread_local PullBuffer<Element> buf;
    ChunkAcc& ch = chunks_[k];
    ch.replay.clear();
    ch.attempts = 0;
    ch.failures = 0;
    ch.first_opt = detail::kNoNodeId;
    ch.response_bytes = 0;
    for (std::size_t vi = begin; vi < end; ++vi) {
      const auto v = static_cast<gossip::NodeId>(vi);
      if (net_.asleep(v) || in_pull_phase_[v] || absent(v)) continue;
      ++ch.attempts;
      NodeRound& sc = scratch_[v];
      bool ok;
      if (cfg_.sampling == SamplingMode::kPullBased) {
        ok = detail::low_load_node_stage_a(p_, sampler_, snapshot_,
                                           pull_round, v, node_rng_[v], buf,
                                           ch.response_bytes, sc.sol,
                                           sc.violators);
      } else {
        // Exact uniform draws from H(V): global index g is snapshot slot g.
        const std::size_t m = snapshot_.offsets()[n];
        const std::size_t k = m > 0 ? pulls_ : 0;
        if (buf.answers.size() < k) buf.answers.resize(k);
        for (std::size_t k2 = 0; k2 < k; ++k2) {
          net_.meter().add_pull(v, 0);
          buf.answers[k2] = static_cast<std::uint32_t>(node_rng_[v].below(m));
          net_.meter().add_response_bytes(sizeof(Element));
        }
        ok = detail::low_load_solve_sample(
            p_, sampler_, snapshot_,
            std::span<std::uint32_t>(buf.answers.data(), k), v, node_rng_[v],
            buf, sc.sol, sc.violators);
      }
      if (!ok) {
        ++ch.failures;
        continue;
      }
      if (!found_snapshot && ch.first_opt == detail::kNoNodeId &&
          p_.same_value(sc.sol, oracle_)) {
        ch.first_opt = v;
      }
      if (!sc.violators.empty() || cfg_.run_termination) {
        ch.replay.push_back(v);
      }
    }
  };
  bool ran_on_shards = false;
  if constexpr (kShardable) {
    if (sharded_) {
      // Ship each shard, in bounded sub-frames, the round's read-only pull
      // inputs once plus each node's flags and RNG state; the workers draw
      // the pulls themselves.  Per-frame results land in frame-indexed
      // ChunkAccs, which stage B walks in index order — shard-major
      // contiguous ascending ranges, i.e. the serial full-scan node order.
      harness_->round(
          [&](shard::ShardRange r, gossip::Encoder& e) {
            e.put_u8(found_snapshot ? 1 : 0);
            e.put_u32(r.begin);
            e.put_u32(r.end);
            put_pull_inputs(e, net_, store_, sleeping_scratch_);
            for (gossip::NodeId v = r.begin; v < r.end; ++v) {
              const bool active =
                  !net_.asleep(v) && !in_pull_phase_[v] && !absent(v);
              e.put_u8(active ? shard::nodeflag::kActive : std::uint8_t{0});
              if (active) shard::put_rng(e, node_rng_[v]);
            }
          },
          [&](std::size_t frame, shard::ShardRange r, gossip::Decoder& dec) {
            ChunkAcc& ch = chunks_[frame];
            ch.replay.clear();
            for (gossip::NodeId v = r.begin; v < r.end; ++v) {
              const std::uint8_t flags = dec.get_u8();
              if (flags & shard::nodeflag::kActive) {
                shard::get_rng(dec, node_rng_[v]);
              }
              if (flags & shard::nodeflag::kReplay) {
                shard::get_seq(dec, scratch_[v].violators);
                ch.replay.push_back(v);
              }
              if (flags & shard::nodeflag::kSolution) {
                wire_get(dec, scratch_[v].sol);
              }
            }
            ch.attempts = dec.get_u32();
            ch.failures = dec.get_u32();
            ch.first_opt = dec.get_u32();
            ch.response_bytes = dec.get_u64();
          });
      ran_on_shards = true;
    }
  }
  if (!ran_on_shards) {
    util::parallel_chunks(pool_ ? &*pool_ : nullptr, n, chunk_, stage_a);
  }

  // --- Meter the round's pulls on the coordinator: every active node
  // issued pulls_ of them (the idealized sampler metered its own). ---
  if (cfg_.sampling == SamplingMode::kPullBased) {
    for (gossip::NodeId v = 0; v < n; ++v) {
      if (!net_.asleep(v) && !in_pull_phase_[v] && !absent(v)) {
        net_.meter().add_pulls(v, pulls_);
      }
    }
  }

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
  for (const ChunkAcc& ch : chunks_) {
    res_.stats.sampling_attempts += ch.attempts;
    res_.stats.sampling_failures += ch.failures;
    net_.meter().add_response_bytes(ch.response_bytes);
    if (first_opt == detail::kNoNodeId) first_opt = ch.first_opt;
    for (const gossip::NodeId v : ch.replay) {
      replay_pull_below(v);
      ++bookkeeping;
      const NodeRound& sc = scratch_[v];
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

  const std::size_t m = store_.total_elements();
  if (m > res_.stats.max_total_elements) res_.stats.max_total_elements = m;
  res_.stats.bookkeeping_touches_total += bookkeeping;
  res_.stats.last_round_bookkeeping_touches = bookkeeping;

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

  if constexpr (kShardable) {
    if (sharded_ && cfg_.shard.recovery_out != nullptr) {
      *cfg_.shard.recovery_out = harness_->recovery_stats();
    }
  }

  net_.meter().finish();
  res_.stats.max_work_per_round = net_.meter().max_work_per_round();
  res_.stats.total_push_ops = net_.meter().total_push_ops();
  res_.stats.total_pull_ops = net_.meter().total_pull_ops();
  res_.stats.total_bytes = net_.meter().total_bytes();
  res_.stats.final_total_elements = store_.total_elements();
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
