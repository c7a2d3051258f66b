// The High-Load Clarkson Algorithm (paper Section 3: Algorithm 5) and its
// accelerated variant (Section 3.1).
//
// Setting: |H| up to poly(n).  Per round every node v_i:
//
//   1. computes an optimal basis B_i of its local multiset H(v_i),
//   2. pushes B_i to C uniformly random nodes (C = 1 is Algorithm 5;
//      C = log^eps n gives the accelerated O(d log n / log log n) variant),
//   3. for every received basis B_j, pushes its local violators
//      W_j = { h in H(v_i) : f(B_j) < f(B_j + h) } to random nodes.
//
// There is no filtering; |H(V)| grows by O(C d n log n) per round w.h.p.
// (Lemma 15, the paper's Chernoff-style higher-moment bound), while copies
// of some optimal-basis element multiply by (C+1) per d rounds (Lemmas 16
// and 17), which forces termination within O(d log n / log(C+1)) rounds.
//
// Theorem 4: O(d log n) rounds at O(d log n) work per round (C = 1), or
// O(d log n / log log n) rounds at O(d log^{1+eps} n) work.
// bench/fig3_high_load reproduces Figure 3; bench/thm4_accelerated sweeps C.
//
// ## Simulator cost per round (the large-n engine contract)
//
// Elements live in a slab-backed gossip::NodeStore (O(1) incremental
// |H(V)|, contiguous per-node storage), and every per-round walk runs over
// the *occupied* node list — the sorted ids of nodes holding at least one
// element, grown incrementally from the delivery receiver lists — or over
// the CSR receiver lists themselves.  Early rounds therefore cost
// O(occupied + messages) instead of O(n); once the element spread
// saturates (occupied ~ n) every visited node is doing real per-round
// algorithm work, so the bookkeeping stays proportional to useful work.
// DistributedRunStats::last_round_bookkeeping_touches records the final
// round's bookkeeping node-touches.
//
// The round does only the work its results depend on:
//   * basis messages are {offset, count} slices of one per-round basis
//     pool (the C copies of a push share a slice), so proposing allocates
//     nothing; wire_size still charges the basis elements;
//   * a node re-solves only when its store changed since its last solve
//     (a per-node stale flag set by every store mutation), reusing the
//     solution's buffers through P::solve_into when P has one.  A cached
//     solution is never kept merely because no new element violates it:
//     near-degenerate supports make that shortcut inexact.
// Each round records high_load.solve (stage-A solves), high_load.scan
// (stage-A violator scans) and high_load.deliver (the stage-B pushes,
// deliveries and store additions) trace spans: one per phase, never one
// per node.
//
// ## Determinism
//
// One run is a pure function of (problem, h_set, n_nodes, cfg).
// cfg.parallel_nodes only moves the stage-A compute (local basis solves,
// violator scans — node-local state, no RNG) onto a pool; every shared-RNG
// effect (basis and violator pushes) is replayed serially in ascending
// node order over the sorted occupied list, so results are bit-identical
// for every thread count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
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
#include "util/thread_pool.hpp"

namespace lpt::core {

/// Configuration for run_high_load.  Every field participates in the
/// determinism contract above except parallel_nodes, which is guaranteed
/// not to (bit-identical results for any value).
struct HighLoadConfig {
  std::uint64_t seed = 1;
  std::size_t push_copies = 1;   // the C of Section 3.1 (1 = Algorithm 5)
  bool run_termination = false;  // run Algorithm 3 until every node outputs
  std::size_t termination_maturity = 0;  // 0: 2*ceil(log2 n) + 4
  std::size_t max_rounds = 0;            // 0: auto safety cap
  gossip::FaultModel faults;             // message loss / sleeping nodes
  const ChurnSchedule* churn = nullptr;  // nodes leaving/joining mid-run with
                                         // store handoff (core/churn.hpp);
                                         // incompatible with run_termination
  std::size_t parallel_nodes = 0;  // >1: local basis solves and violator
                                   // scans run on this many threads; shared
                                   // RNG traffic is replayed serially in
                                   // node order, so results are
                                   // bit-identical to the serial run.  The
                                   // pool lives for one run: combining with
                                   // a bench-level --threads sweep
                                   // oversubscribes — pick one level.
};

namespace detail {

/// Wire message carrying a basis (<= d elements, i.e. O(d log n) bits): the
/// slice [offset, offset + count) of the round's basis pool, where the
/// ascending-node push loop appends each proposer's basis once, so the C
/// copies of one push share one slice.  The wire carries the elements, so
/// wire_size charges count elements, not the two indices.
template <typename Element>
struct BasisSlice {
  std::uint32_t offset = 0;
  std::uint32_t count = 0;

  friend std::size_t wire_size(const BasisSlice& m) noexcept {
    return m.count * sizeof(Element);
  }
};

}  // namespace detail

template <LpTypeProblem P>
struct HighLoadResultExtras {
  std::size_t max_local_elements = 0;  // max |H(v_i)| seen (Lemma: (1±eps)m/n)
  std::size_t max_single_w = 0;        // max |W_j| pushed at once (Lemma 15)
};

template <LpTypeProblem P>
struct HighLoadResult {
  typename P::Solution solution;
  DistributedRunStats stats;
  HighLoadResultExtras<P> extras;
};

template <LpTypeProblem P>
HighLoadResult<P> run_high_load(const P& p,
                                std::span<const typename P::Element> h_set,
                                std::size_t n_nodes,
                                const HighLoadConfig& cfg = {}) {
  using Element = typename P::Element;
  using Msg = detail::BasisSlice<Element>;

  HighLoadResult<P> res;
  const std::size_t d = p.dimension();
  const std::size_t n = n_nodes;
  const std::size_t c_copies = cfg.push_copies ? cfg.push_copies : 1;
  LPT_CHECK(n >= 1 && d >= 1);
  const auto oracle = p.solve(h_set);
  if (h_set.empty()) {
    res.solution = oracle;
    res.stats.reached_optimum = true;
    return res;
  }

  util::Rng master(cfg.seed);
  gossip::Network net(n, master.child(0), cfg.faults);
  util::Rng dist_rng = master.child(1);

  gossip::NodeStore<Element> store(n);
  for (const auto& h : h_set) {
    store.add_copy(static_cast<gossip::NodeId>(dist_rng.below(n)), h);
  }
  // stale[v]: v's store changed since v's last local solve (every node
  // starts unsolved).  Every store mutation below sets it — delivery,
  // churn handoff, clear — and only stale nodes re-solve: the solve is a
  // pure function of the store's contents, so an unchanged store gives
  // the cached solution bit for bit.  (Sizes cannot stand in for the flag:
  // a churned node can leave and refill to the same size.)
  std::vector<std::uint8_t> stale(n, 1);

  // The sorted ids of nodes that have *ever* held an element.  Occupancy is
  // monotone even under churn (a leaver stays listed with an empty store and
  // is skipped by the per-round stages): newly occupied nodes are collected
  // from each delivery's receiver list — deduplicated via occ_flag — and
  // merged in.
  std::vector<gossip::NodeId> occupied;
  std::vector<std::uint8_t> occ_flag(n, 0);
  for (gossip::NodeId v = 0; v < n; ++v) {
    if (store.size(v) != 0) {
      occupied.push_back(v);
      occ_flag[v] = 1;
    }
  }
  std::vector<gossip::NodeId> newly_occupied;

  // Churn (core/churn.hpp): membership bookkeeping plus a schedule cursor.
  const bool churn_on = cfg.churn != nullptr && !cfg.churn->empty();
  LPT_CHECK_MSG(!(churn_on && cfg.run_termination),
                "run_high_load: churn is incompatible with run_termination");
  std::optional<ChurnState> members;
  if (churn_on) members.emplace(n);
  detail::ChurnCursor churn_cursor(churn_on ? cfg.churn : nullptr);
  std::vector<Element> handoff_scratch;
  auto absent = [&](gossip::NodeId v) {
    return churn_on && !members->present(v);
  };

  const std::size_t maturity = cfg.termination_maturity
                                   ? cfg.termination_maturity
                                   : 2 * (util::ceil_log2(n) + 2);
  const std::size_t max_rounds =
      cfg.max_rounds ? cfg.max_rounds
                     : 60 * d * (util::ceil_log2(n) + 2) + 8 * maturity + 60;
  // Round-bound hint: keeps the meter's per-round push_back realloc-free.
  net.meter().reserve_rounds(max_rounds + 1);

  gossip::Mailbox<Msg> basis_mail(net);
  std::vector<Element> basis_pool;  // this round's proposed bases
  gossip::Mailbox<Element> elem_mail(net);
  TerminationProtocol<P> term(p, net, maturity);

  res.stats.initial_total_elements = store.total_elements();
  res.stats.max_total_elements = res.stats.initial_total_elements;

  // Per-node round scratch for the compute stages; persistent across
  // rounds so the steady state allocates nothing.  Only occupied nodes are
  // ever visited; the rest keep their zero-initialized state.
  struct NodeRound {
    std::uint8_t has_sol = 0;        // proposes this round
    typename P::Solution sol;        // last local solve (see stale)
    std::vector<Element> violators;  // across all received bases, in order
    std::size_t max_single_w = 0;    // largest per-basis W_j this round
  };
  std::vector<NodeRound> scratch(n);

  std::optional<util::ThreadPool> pool;
  if (cfg.parallel_nodes > 1) pool.emplace(cfg.parallel_nodes);
  auto for_each_occupied = [&](auto&& body) {
    if (pool) {
      util::parallel_for(*pool, occupied.size(),
                         [&](std::size_t k) { body(occupied[k]); });
    } else {
      for (const gossip::NodeId v : occupied) body(v);
    }
  };

  bool found = false;
  for (std::size_t t = 1; t <= max_rounds; ++t) {
    net.begin_round();
    obs::trace_tick();  // rounds are the engine's sampling unit
    obs::TraceSpan round_span("high_load.round", t);
    std::size_t bookkeeping = 0;

    // --- Churn events due this round.  A leaver hands its whole store off
    // to uniformly random present nodes (all high-load elements are copies)
    // and then sits empty; a joiner simply becomes present again and
    // refills through normal deliveries.  The leaver's elements are staged
    // through scratch first: add_copy on a target can grow the slab arena
    // the leaver's view points into.
    for (const ChurnEvent& ev : churn_cursor.events_due(t)) {
      const gossip::NodeId v = ev.node;
      if (ev.join) {
        members->join(v);
        continue;
      }
      members->leave(v);  // before handoff: targets exclude the leaver
      const std::span<const Element> view = store.view(v);
      if (view.empty()) continue;
      handoff_scratch.assign(view.begin(), view.end());
      store.clear_node(v);
      stale[v] = 1;
      newly_occupied.clear();
      for (const Element& h : handoff_scratch) {
        const gossip::NodeId target = members->draw_present(net.rng());
        if (!occ_flag[target]) {
          occ_flag[target] = 1;
          newly_occupied.push_back(target);
        }
        store.add_copy(target, h);
        stale[target] = 1;
      }
      if (!newly_occupied.empty()) {
        std::sort(newly_occupied.begin(), newly_occupied.end());
        const std::size_t mid = occupied.size();
        occupied.insert(occupied.end(), newly_occupied.begin(),
                        newly_occupied.end());
        std::inplace_merge(
            occupied.begin(),
            occupied.begin() + static_cast<std::ptrdiff_t>(mid),
            occupied.end());
      }
    }

    // Lines 3-4: local basis computation and C pushes.  Nodes holding no
    // element yet have nothing to propose (f(∅) would mark *everything* a
    // violator); they only participate as receivers this round.  The
    // solves touch only node-local state (stage A, parallelizable); the
    // pushes replay serially in ascending node order (stage B, the sorted
    // occupied list), so parallel runs are bit-identical to serial ones.
    {
      obs::TraceSpan span("high_load.solve", t);
      for_each_occupied([&](gossip::NodeId v) {
        NodeRound& sc = scratch[v];
        sc.has_sol = 0;
        // A departed node's store is empty (cleared on leave): no proposal.
        if (net.asleep(v) || store.size(v) == 0) return;
        sc.has_sol = 1;
        if (!stale[v]) return;
        stale[v] = 0;
        if constexpr (requires { p.solve_into(store.view(v), sc.sol); }) {
          p.solve_into(store.view(v), sc.sol);  // reuses sc.sol's buffers
        } else {
          sc.sol = p.solve(store.view(v));
        }
      });
    }
    {
      obs::TraceSpan span("high_load.deliver", t);
      basis_pool.clear();
      for (const gossip::NodeId v : occupied) {
        ++bookkeeping;
        NodeRound& sc = scratch[v];
        if (!sc.has_sol) continue;
        if (!found && p.same_value(sc.sol, oracle)) {
          found = true;
          res.solution = sc.sol;
          res.stats.rounds_to_first = t;
          res.stats.reached_optimum = true;
        }
        if (cfg.run_termination) {
          term.inject(v, static_cast<std::uint32_t>(t), sc.sol);
        }
        const Msg slice{static_cast<std::uint32_t>(basis_pool.size()),
                        static_cast<std::uint32_t>(sc.sol.basis.size())};
        basis_pool.insert(basis_pool.end(), sc.sol.basis.begin(),
                          sc.sol.basis.end());
        for (std::size_t k = 0; k < c_copies; ++k) basis_mail.push(v, slice);
        if (store.size(v) > res.extras.max_local_elements) {
          res.extras.max_local_elements = store.size(v);
        }
      }
      basis_mail.deliver();
    }

    // Lines 5-7: violator pushes for every received basis.  Stage A scans
    // locally (only occupied nodes can produce violators — an empty store
    // has none to offer, so basis copies landing on empty nodes need no
    // scan); stage B pushes in ascending node order.
    {
      obs::TraceSpan span("high_load.scan", t);
      const std::span<const Element> pool_view(basis_pool);
      for_each_occupied([&](gossip::NodeId v) {
        NodeRound& sc = scratch[v];
        sc.violators.clear();
        sc.max_single_w = 0;
        if (net.asleep(v) || store.size(v) == 0) return;
        for (const Msg& msg : basis_mail.inbox(v)) {
          const auto sol_j =
              p.from_basis(pool_view.subspan(msg.offset, msg.count));
          std::size_t w = 0;
          for (const auto& h : store.view(v)) {
            if (p.violates(sol_j, h)) {
              sc.violators.push_back(h);
              ++w;
            }
          }
          if (w > sc.max_single_w) sc.max_single_w = w;
        }
      });
    }
    {
      obs::TraceSpan span("high_load.deliver", t);
      for (const gossip::NodeId v : occupied) {
        ++bookkeeping;
        const NodeRound& sc = scratch[v];
        for (const auto& h : sc.violators) elem_mail.push(v, h);
        if (sc.max_single_w > res.extras.max_single_w) {
          res.extras.max_single_w = sc.max_single_w;
        }
      }
      elem_mail.deliver();

      // Line 8: add received elements — walk only the receiving inboxes,
      // collecting nodes that just became occupied.
      newly_occupied.clear();
      for (const gossip::NodeId v : elem_mail.receivers()) {
        ++bookkeeping;
        if (absent(v)) continue;  // departed: drop (pushers retain copies)
        if (!occ_flag[v]) {
          occ_flag[v] = 1;
          newly_occupied.push_back(v);
        }
        for (const auto& h : elem_mail.inbox(v)) store.add_copy(v, h);
        stale[v] = 1;
      }
      if (!newly_occupied.empty()) {
        std::sort(newly_occupied.begin(), newly_occupied.end());
        const std::size_t mid = occupied.size();
        occupied.insert(occupied.end(), newly_occupied.begin(),
                        newly_occupied.end());
        std::inplace_merge(
            occupied.begin(),
            occupied.begin() + static_cast<std::ptrdiff_t>(mid),
            occupied.end());
      }
    }

    if (cfg.run_termination) {
      term.round(static_cast<std::uint32_t>(t),
                 [&](gossip::NodeId v) { return store.view(v); });
    }

    res.stats.end_round(store.total_elements(), bookkeeping);

    const bool done = cfg.run_termination ? term.all_output() : found;
    if (done) {
      res.stats.rounds_to_all_output = cfg.run_termination ? t : 0;
      break;
    }
  }

  if (cfg.run_termination) {
    for (gossip::NodeId v = 0; v < n; ++v) {
      const auto& out = term.output(v);
      if (!out || !p.same_value(*out, oracle)) {
        res.stats.all_outputs_correct = false;
        break;
      }
    }
  }

  res.stats.finish(net.meter(), store.total_elements());
  obs::counter("engine.high_load.runs").add(1);
  obs::counter("engine.high_load.rounds").add(res.stats.rounds_to_first);
  obs::gauge("engine.high_load.store_arena_bytes")
      .set(static_cast<std::int64_t>(store.arena_bytes()));
  return res;
}

}  // namespace lpt::core
