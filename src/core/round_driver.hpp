// One gossip round for low load (paper Algorithm 2), high load (Algorithm
// 5) and hitting set (Algorithm 6): every node works on its multiset
// H(v_i) and pushes elements to uniformly random nodes; Algorithms 2 and 6
// also filter copies, and Algorithm 3's termination runs on top of the two
// LP-type algorithms.  RoundDriver<E> writes that iteration once and runs
// an engine E for the rest.  The driver owns the RNG tree (network stream
// child(0), placement stream child(1), node v's stream child(2 + v) when
// the plan asks), the set-up (oracle, maturity, round cap, placement,
// initial load), the round frame (begin_round, trace_tick, the
// `<engine>.round` span, end_round), churn (core/churn.hpp), delivery into
// the stores, filtering, the stop rule (first answer, Algorithm 3,
// min_rounds, round cap) and the run end (stats.finish, the
// engine.<name>.* counters and gauge).
//
// An engine E supplies the types Problem, Element, Input (what is placed),
// Config and Result (with `stats`; an LP-type engine's also `solution`),
// its obs names kNames (LPT_ENGINE_NAMES), and
//   static RoundPlan plan(const Problem&, const Config&, std::size_t n);
//   E(RoundDriver<E>&, const Problem&, const Config&);  // after placement
//   void round(RoundDriver<E>&);  // its own work, ending in deliver()
// plus the EngineHooks it overrides.  The engine is the driver's friend:
// it reads the driver's members (net_, store_, node_rng_, res_, lp_, n_,
// t_, plan_) and calls its helpers below; every hook call is static.
//
// Stepping draws no RNG and reads no clock, so a run stepped with other
// work between its rounds is bit-identical to an uninterrupted one.  The
// driver borrows the problem, the churn schedule and the shard recovery
// sink; its engine's channels and shard workers hold addresses inside it,
// so it is neither copyable nor movable.  The hypercube Clarkson engine
// stays out: it has no Network, store, churn or gossip round.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/churn.hpp"
#include "core/lp_type.hpp"
#include "core/result.hpp"
#include "core/termination.hpp"
#include "gossip/mailbox.hpp"
#include "gossip/network.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace lpt::core {

/// What an engine's config tells the driver.
struct RoundPlan {
  std::uint64_t seed = 1;
  gossip::FaultModel faults;
  const ChurnSchedule* churn = nullptr;  // null or empty: no churn
  bool run_termination = false;          // Algorithm 3 (LP-type only)
  std::size_t termination_maturity = 0;  // 0: 2*ceil(log2 n) + 4
  std::size_t max_rounds = 0;  // the first stage's cap; 0: the auto cap
  std::size_t min_rounds = 0;  // keep running at least this long
  std::size_t dimension = 1;   // the d of the auto cap
  bool node_streams = true;    // draw node v's stream child(2 + v)
  bool place_copies = false;   // place the input as copies, not originals
};

/// An engine's round span, runs and rounds counters and arena gauge.
struct EngineNames {
  const char *round_span, *runs, *rounds, *arena_bytes;
};

/// The obs names under one stem: the `<stem>.round` span and the
/// engine.<stem>.{runs,rounds,store_arena_bytes} metrics.  A macro: the
/// literals join at compile time, and a span's name needs static storage.
#define LPT_ENGINE_NAMES(stem)                                        \
  ::lpt::core::EngineNames {                                          \
    stem ".round", "engine." stem ".runs", "engine." stem ".rounds", \
        "engine." stem ".store_arena_bytes"                           \
  }

/// The engine hooks, doing nothing; an engine hides the ones it needs.
struct EngineHooks {
  void on_join(gossip::NodeId) {}     // v is present again
  void on_leave(gossip::NodeId) {}    // v left; its store was handed off
  void on_receive(gossip::NodeId) {}  // per handoff element or delivery
  std::size_t filter_dimension() const { return 0; }  // d; 0: no filter
  std::size_t next_stage(std::size_t /*n*/) { return 0; }  // 0: end the run
  void finish(auto& /*driver*/) {}  // before stats.finish
};

namespace detail {

/// The oracle's answer and Algorithm 3: for LP-type problems only.
template <typename P>
struct LpStop {};

template <LpTypeProblem P>
struct LpStop<P> {
  typename P::Solution oracle;                 // f(H), solved at set-up
  std::optional<TerminationProtocol<P>> term;  // with run_termination
};

}  // namespace detail

template <typename E>
class RoundDriver {
 public:
  using Problem = typename E::Problem;
  using Element = typename E::Element;
  using Result = typename E::Result;

  /// The set-up; an empty LP-type input is done here (the oracle answers).
  RoundDriver(const Problem& p, typename E::Input input, std::size_t n_nodes,
              const typename E::Config& cfg = {})
      : p_(p),
        plan_(E::plan(p, cfg, n_nodes)),
        n_(n_nodes),
        net_(n_nodes, util::Rng(plan_.seed).child(0), plan_.faults),
        store_(n_nodes),
        churn_cursor_(plan_.churn) {
    LPT_CHECK(n_ >= 1 && plan_.dimension >= 1);
    const std::size_t maturity = plan_.termination_maturity
                                     ? plan_.termination_maturity
                                     : 2 * (util::ceil_log2(n_) + 2);
    if constexpr (kLpType) {
      lp_.oracle = p.solve(input);
      if (input.empty()) {
        res_.solution = lp_.oracle;
        res_.stats.reached_optimum = true;
        done_ = true;
        return;
      }
      if (plan_.run_termination) lp_.term.emplace(p, net_, maturity);
    }

    const util::Rng master(plan_.seed);
    util::Rng placement = master.child(1);
    if (plan_.node_streams) {
      node_rng_.reserve(n_);
      for (std::size_t v = 0; v < n_; ++v) {
        node_rng_.push_back(master.child(2 + v));
      }
    }
    // Every element lands on a uniformly random node (the paper's standing
    // assumption).
    for (const auto& h : input) {
      add(static_cast<gossip::NodeId>(placement.below(n_)), h,
          !plan_.place_copies);
    }

    extend_cap(plan_.max_rounds
                   ? plan_.max_rounds
                   : 60 * plan_.dimension * (util::ceil_log2(n_) + 2) +
                         8 * maturity + 60);
    const bool churn_on = plan_.churn != nullptr && !plan_.churn->empty();
    LPT_CHECK_MSG(!(churn_on && plan_.run_termination),
                  "churn is incompatible with run_termination (departed "
                  "nodes cannot output)");
    if (churn_on) members_.emplace(n_);

    engine_.emplace(*this, p, cfg);
    res_.stats.initial_total_elements = store_.total_elements();
    res_.stats.max_total_elements = res_.stats.initial_total_elements;
  }
  RoundDriver(const RoundDriver&) = delete;
  RoundDriver& operator=(const RoundDriver&) = delete;

  /// True once the run has stopped: the stop rule met past min_rounds, or
  /// the round cap reached with no further stage.
  bool done() const noexcept { return done_; }

  /// Run one round.  Requires !done().
  void step() {
    LPT_CHECK_MSG(!done_, "RoundDriver::step after done()");
    const std::size_t t = ++t_;
    net_.begin_round();
    obs::trace_tick();  // rounds are the engines' sampling unit
    obs::TraceSpan round_span(E::kNames.round_span, t);
    bookkeeping_ = 0;

    // Churn events apply before any traffic: a leaver hands its store off
    // to uniformly random present nodes; a joiner is present again.
    for (const ChurnEvent& ev : churn_cursor_.events_due(t)) {
      if (ev.join) {
        members_->join(ev.node);
        engine_->on_join(ev.node);
        continue;
      }
      members_->leave(ev.node);  // before the handoff: targets exclude it
      detail::hand_off_store(store_, ev.node, *members_, net_.rng(),
                             handoff_scratch_, [&](gossip::NodeId to) {
                               engine_->on_receive(to);
                             });
      engine_->on_leave(ev.node);
    }

    engine_->round(*this);

    // Filtering (Algorithm 2 lines 8-9): only copies are ever deleted, at
    // the copy-holding nodes, each drawing from its own stream.
    if (const std::size_t d = engine_->filter_dimension()) {
      const double keep_p =
          1.0 / (1.0 + 1.0 / (2.0 * static_cast<double>(d)));
      bookkeeping_ += store_.filter_copies(
          keep_p,
          [&](gossip::NodeId v) -> util::Rng& { return node_rng_[v]; });
    }

    bool stop = found();
    if constexpr (kLpType) {
      if (lp_.term) {
        lp_.term->round(static_cast<std::uint32_t>(t),
                        [&](gossip::NodeId v) { return store_.view(v); });
        stop = lp_.term->all_output();
      }
    }
    res_.stats.end_round(store_.total_elements(), bookkeeping_);

    if (stop && t >= plan_.min_rounds) {
      res_.stats.rounds_to_all_output = plan_.run_termination ? t : 0;
      done_ = true;
    } else if (t == cap_) {
      const std::size_t more = engine_->next_stage(n_);
      if (more == 0) done_ = true;
      extend_cap(more);
    }
  }

  /// The run-end accounting; call once, after done().
  Result finish() {
    LPT_CHECK_MSG(done_, "RoundDriver::finish before done()");
    if (t_ == 0) return std::move(res_);  // empty input: answered at set-up
    if constexpr (kLpType) {
      if (lp_.term) {
        for (gossip::NodeId v = 0; v < n_; ++v) {
          const auto& out = lp_.term->output(v);
          if (!out || !p_.same_value(*out, lp_.oracle)) {
            res_.stats.all_outputs_correct = false;
            break;
          }
        }
        if (lp_.term->all_output() && res_.stats.all_outputs_correct &&
            !found()) {
          // Only in degenerate instances: no node's own check fired.
          res_.solution = *lp_.term->output(0);
          res_.stats.reached_optimum = true;
        }
      }
    }
    engine_->finish(*this);
    res_.stats.finish(net_.meter(), store_.total_elements());
    obs::counter(E::kNames.runs).add(1);
    obs::counter(E::kNames.rounds).add(res_.stats.rounds_to_first);
    obs::gauge(E::kNames.arena_bytes)
        .set(static_cast<std::int64_t>(store_.arena_bytes()));
    return std::move(res_);
  }

 private:
  friend E;
  static constexpr bool kLpType = LpTypeProblem<Problem>;

  // --- What the engine uses besides the members. ---
  bool absent(gossip::NodeId v) const {
    return members_ && !members_->present(v);
  }
  void touch() noexcept { ++bookkeeping_; }  // one bookkeeping node touch
  bool found() const noexcept { return res_.stats.reached_optimum; }

  /// This round found the run's first answer (the engine stores it).
  void record_first() {
    res_.stats.rounds_to_first = t_;
    res_.stats.reached_optimum = true;
  }

  /// Node v offers `sol` to Algorithm 3 (LP-type problems; a no-op
  /// without run_termination).
  void inject(gossip::NodeId v, const auto& sol) {
    if (lp_.term) lp_.term->inject(v, static_cast<std::uint32_t>(t_), sol);
  }

  /// Deliver `mail` into the present receivers' stores.  A departed
  /// receiver drops its delivery; nothing is lost, as a pushed copy stays
  /// with its pusher and a seed duplicates an original its answerer holds.
  void deliver(gossip::Mailbox<Element>& mail, bool as_originals) {
    mail.deliver();
    for (const gossip::NodeId v : mail.receivers()) {
      ++bookkeeping_;
      if (absent(v)) continue;
      engine_->on_receive(v);
      for (const Element& h : mail.inbox(v)) add(v, h, as_originals);
    }
  }

  void add(gossip::NodeId v, const Element& h, bool original) {
    if (original) {
      store_.add_original(v, h);
    } else {
      store_.add_copy(v, h);
    }
  }

  /// Move the cap `rounds` on, reserving the meter's per-round history up
  /// to it (+1 for finish()'s flush) so begin_round never reallocates.
  void extend_cap(std::size_t rounds) {
    cap_ += rounds;
    net_.meter().reserve_rounds(cap_ + 1);
  }

  const Problem& p_;
  const RoundPlan plan_;
  const std::size_t n_;
  Result res_;
  gossip::Network net_;
  gossip::NodeStore<Element> store_;
  std::vector<util::Rng> node_rng_;
  detail::LpStop<Problem> lp_;
  std::optional<ChurnState> members_;  // engaged with a non-empty schedule
  detail::ChurnCursor churn_cursor_;
  std::vector<Element> handoff_scratch_;
  std::size_t cap_ = 0;  // the round that ends the run or its stage
  std::size_t t_ = 0;    // rounds run so far
  std::size_t bookkeeping_ = 0;  // this round's bookkeeping node touches
  bool done_ = false;
  // Built last, after the set-up it reads; its shard workers and thread
  // pool are destroyed first.
  std::optional<E> engine_;
};

/// An engine's run stepped to completion.
template <typename E>
typename E::Result run_to_end(const typename E::Problem& p,
                              typename E::Input input, std::size_t n_nodes,
                              const typename E::Config& cfg) {
  RoundDriver<E> run(p, input, n_nodes, cfg);
  while (!run.done()) run.step();
  return run.finish();
}

}  // namespace lpt::core
