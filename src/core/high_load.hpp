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
// ## Simulator cost and determinism
//
// core/round_driver.hpp runs the round.  Every per-round walk runs over the
// *occupied* list, so early rounds cost O(occupied + messages), not O(n),
// and the round does only the work its results depend on:
//   * basis messages are {offset, count} slices of one per-round basis
//     pool (the C copies of a push share a slice), so proposing allocates
//     nothing; wire_size still charges the basis elements;
//   * a node re-solves only when its store changed since its last solve
//     (a per-node stale flag set by every store mutation), reusing the
//     solution's buffers through P::solve_into when P has one.  A cached
//     solution is never kept merely because no new element violates it:
//     near-degenerate supports make that shortcut inexact.
// Each round records high_load.solve, high_load.scan and high_load.deliver
// trace spans.  There are only copies and no per-node streams;
// cfg.parallel_nodes only moves the solves and scans (node-local, no RNG)
// onto a pool, and every push is replayed serially in ascending node
// order, so results are bit-identical for every thread count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/churn.hpp"
#include "core/lp_type.hpp"
#include "core/result.hpp"
#include "core/round_driver.hpp"
#include "gossip/mailbox.hpp"
#include "gossip/network.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace lpt::core {

/// Configuration for run_high_load.  Every field participates in the
/// determinism contract above except parallel_nodes (bit-identical results
/// for any value).
struct HighLoadConfig {
  std::uint64_t seed = 1;
  std::size_t push_copies = 1;   // the C of Section 3.1 (1 = Algorithm 5)
  bool run_termination = false;  // run Algorithm 3 until every node outputs
  std::size_t termination_maturity = 0;  // 0: 2*ceil(log2 n) + 4
  std::size_t max_rounds = 0;            // 0: auto safety cap
  gossip::FaultModel faults;             // message loss / sleeping nodes
  const ChurnSchedule* churn = nullptr;  // nodes leaving/joining mid-run
                                         // (core/churn.hpp); incompatible
                                         // with run_termination
  std::size_t parallel_nodes = 0;  // >1: the local solves and violator
                                   // scans run on this many threads for one
                                   // run; a bench --threads sweep on top
                                   // oversubscribes
};

namespace detail {

/// Wire message carrying a basis (<= d elements, i.e. O(d log n) bits): the
/// slice [offset, offset + count) of the round's basis pool, shared by the
/// C copies of one push.  wire_size charges the elements it stands for.
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

/// The high-load engine of core/round_driver.hpp: the occupied list, the
/// stale flags, the basis pool and the solve and scan phases.
template <LpTypeProblem P>
class HighLoadEngine : public EngineHooks {
 public:
  using Problem = P;
  using Element = typename P::Element;
  using Input = std::span<const Element>;
  using Config = HighLoadConfig;
  using Result = HighLoadResult<P>;
  static constexpr EngineNames kNames = LPT_ENGINE_NAMES("high_load");

  static RoundPlan plan(const P& p, const HighLoadConfig& cfg, std::size_t) {
    return {.seed = cfg.seed, .faults = cfg.faults, .churn = cfg.churn,
            .run_termination = cfg.run_termination,
            .termination_maturity = cfg.termination_maturity,
            .max_rounds = cfg.max_rounds, .dimension = p.dimension(),
            .node_streams = false, .place_copies = true};
  }

  HighLoadEngine(RoundDriver<HighLoadEngine>& d, const P& p,
                 const HighLoadConfig& cfg)
      : p_(p), c_copies_(cfg.push_copies ? cfg.push_copies : 1),
        basis_mail_(d.net_), elem_mail_(d.net_) {
    const std::size_t n = d.n_;
    stale_.assign(n, 1);
    occ_flag_.assign(n, 0);
    for (gossip::NodeId v = 0; v < n; ++v) {
      if (d.store_.size(v) != 0) on_receive(v);  // placed: occupied
    }
    merge_occupied();
    scratch_.resize(n);
    if (cfg.parallel_nodes > 1) pool_.emplace(cfg.parallel_nodes);
  }

  void round(RoundDriver<HighLoadEngine>& d);

  // Every element added marks its node stale and occupied.  (A leaver's
  // emptied store needs no flag: the solve skips empty stores.)
  void on_receive(gossip::NodeId v) {
    if (!occ_flag_[v]) {
      occ_flag_[v] = 1;
      newly_occupied_.push_back(v);
    }
    stale_[v] = 1;
  }

 private:
  using Msg = detail::BasisSlice<Element>;

  // Per-node round scratch, kept across rounds: no steady-state allocation.
  struct NodeRound {
    std::uint8_t has_sol = 0;        // proposes this round
    typename P::Solution sol;        // last local solve (see stale_)
    std::vector<Element> violators;  // across all received bases, in order
    std::size_t max_single_w = 0;    // largest per-basis W_j this round
  };

  template <typename Body>
  void for_each_occupied(Body&& body) {
    if (pool_) {
      util::parallel_for(*pool_, occupied_.size(),
                         [&](std::size_t k) { body(occupied_[k]); });
    } else {
      for (const gossip::NodeId v : occupied_) body(v);
    }
  }

  /// Merge the nodes that just became occupied into the sorted list.
  void merge_occupied() {
    if (newly_occupied_.empty()) return;
    std::sort(newly_occupied_.begin(), newly_occupied_.end());
    const std::size_t mid = occupied_.size();
    occupied_.insert(occupied_.end(), newly_occupied_.begin(),
                     newly_occupied_.end());
    std::inplace_merge(occupied_.begin(),
                       occupied_.begin() + static_cast<std::ptrdiff_t>(mid),
                       occupied_.end());
    newly_occupied_.clear();
  }

  const P& p_;
  const std::size_t c_copies_;
  gossip::Mailbox<Msg> basis_mail_;
  std::vector<Element> basis_pool_;  // this round's proposed bases
  gossip::Mailbox<Element> elem_mail_;
  // stale_[v]: v's store changed since its last solve; every node starts
  // stale.  (Sizes cannot stand in: a churned node can leave and refill to
  // the same size.)
  std::vector<std::uint8_t> stale_;
  // The sorted ids of nodes that have *ever* held an element (a leaver
  // stays listed, empty).  New ones gather in newly_occupied_, deduplicated
  // by occ_flag_, until merge_occupied().
  std::vector<gossip::NodeId> occupied_;
  std::vector<std::uint8_t> occ_flag_;
  std::vector<gossip::NodeId> newly_occupied_;
  std::vector<NodeRound> scratch_;
  std::optional<util::ThreadPool> pool_;  // last: after all its tasks touch
};

template <LpTypeProblem P>
void HighLoadEngine<P>::round(RoundDriver<HighLoadEngine>& d) {
  const gossip::Network& net = d.net_;
  const gossip::NodeStore<Element>& store = d.store_;
  const std::size_t t = d.t_;
  auto& extras = d.res_.extras;
  merge_occupied();  // this round's churn handoff targets

  // Lines 3-4: local basis computation (stage A, node-local) and C pushes
  // (stage B, ascending node order).  Nodes holding no element have
  // nothing to propose (f(∅) would mark *everything* a violator).
  {
    obs::TraceSpan span("high_load.solve", t);
    for_each_occupied([&](gossip::NodeId v) {
      NodeRound& sc = scratch_[v];
      sc.has_sol = 0;
      // A departed node's store is empty (cleared on leave): no proposal.
      if (net.asleep(v) || store.size(v) == 0) return;
      sc.has_sol = 1;
      if (!stale_[v]) return;
      stale_[v] = 0;
      if constexpr (requires { p_.solve_into(store.view(v), sc.sol); }) {
        p_.solve_into(store.view(v), sc.sol);  // reuses sc.sol's buffers
      } else {
        sc.sol = p_.solve(store.view(v));
      }
    });
  }
  {
    obs::TraceSpan span("high_load.deliver", t);
    basis_pool_.clear();
    for (const gossip::NodeId v : occupied_) {
      d.touch();
      NodeRound& sc = scratch_[v];
      if (!sc.has_sol) continue;
      if (!d.found() && p_.same_value(sc.sol, d.lp_.oracle)) {
        d.res_.solution = sc.sol;
        d.record_first();
      }
      d.inject(v, sc.sol);
      const Msg slice{static_cast<std::uint32_t>(basis_pool_.size()),
                      static_cast<std::uint32_t>(sc.sol.basis.size())};
      basis_pool_.insert(basis_pool_.end(), sc.sol.basis.begin(),
                         sc.sol.basis.end());
      for (std::size_t k = 0; k < c_copies_; ++k) basis_mail_.push(v, slice);
      extras.max_local_elements =
          std::max(extras.max_local_elements, store.size(v));
    }
    basis_mail_.deliver();
  }

  // Lines 5-7: violator scans for every received basis (stage A; an empty
  // store has none) and their pushes (stage B, ascending node order).
  {
    obs::TraceSpan span("high_load.scan", t);
    const std::span<const Element> pool_view(basis_pool_);
    for_each_occupied([&](gossip::NodeId v) {
      NodeRound& sc = scratch_[v];
      sc.violators.clear();
      sc.max_single_w = 0;
      if (net.asleep(v) || store.size(v) == 0) return;
      for (const Msg& msg : basis_mail_.inbox(v)) {
        const auto sol_j =
            p_.from_basis(pool_view.subspan(msg.offset, msg.count));
        std::size_t w = 0;
        for (const auto& h : store.view(v)) {
          if (p_.violates(sol_j, h)) {
            sc.violators.push_back(h);
            ++w;
          }
        }
        sc.max_single_w = std::max(sc.max_single_w, w);
      }
    });
  }
  {
    obs::TraceSpan span("high_load.deliver", t);
    for (const gossip::NodeId v : occupied_) {
      d.touch();
      const NodeRound& sc = scratch_[v];
      for (const auto& h : sc.violators) elem_mail_.push(v, h);
      extras.max_single_w = std::max(extras.max_single_w, sc.max_single_w);
    }
    d.deliver(elem_mail_, /*as_originals=*/false);  // line 8
    merge_occupied();
  }
}

/// Run the High-Load Clarkson Algorithm to completion: a
/// RoundDriver<HighLoadEngine<P>> stepped until done().
template <LpTypeProblem P>
HighLoadResult<P> run_high_load(const P& p,
                                std::span<const typename P::Element> h_set,
                                std::size_t n_nodes,
                                const HighLoadConfig& cfg = {}) {
  return run_to_end<HighLoadEngine<P>>(p, h_set, n_nodes, cfg);
}

}  // namespace lpt::core
