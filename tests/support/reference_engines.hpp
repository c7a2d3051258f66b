// Reference copies of two engine loops as they ran before their simulator
// overhead was taken out, kept as bit-exactness references (the same
// arrangement as bench/reference_sampler.hpp for the pull sampler):
//
//   * legacy_broadcast / legacy_all_reduce / legacy_prefix_sum: the
//     per-node hypercube collective schedules — binomial-tree flood,
//     recursive doubling and the (prefix, subcube total) scan — replaying
//     every partner exchange, step by step, optionally on a pool.
//     gossip::Hypercube computes the same results directly;
//     tests/test_hypercube_csr.cpp holds the two to bit equality.
//   * reference_hypercube_clarkson: run_hypercube_clarkson with one pair
//     of heap vectors per node and the legacy collectives.
//   * reference_high_load: run_high_load with one heap-vector message per
//     basis push and a fresh local solve at every node in every round.
//
// tests/test_engine_reference.cpp requires every result field of the
// engines to equal these loops'.  Semantics must stay frozen; the obs
// counters and trace spans of the originals are left out (they are not
// results).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/churn.hpp"
#include "core/high_load.hpp"
#include "core/hypercube_clarkson.hpp"
#include "core/lp_type.hpp"
#include "core/result.hpp"
#include "core/termination.hpp"
#include "gossip/hypercube.hpp"
#include "gossip/mailbox.hpp"
#include "gossip/network.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace lpt::testsupport {

/// Run body(v) for every node of hc, on the pool when one is given.
template <typename F>
void legacy_for_each_node(const gossip::Hypercube& hc, util::ThreadPool* pool,
                          F&& body) {
  if (pool != nullptr && hc.size() > 1) {
    util::parallel_for(*pool, hc.size(), body);
  } else {
    for (std::size_t v = 0; v < hc.size(); ++v) body(v);
  }
}

/// Binomial-tree broadcast: at step k node v receives from its dimension-k
/// partner when k is the highest set bit of v ^ root.
template <typename T>
void legacy_broadcast(gossip::Hypercube& hc, util::ThreadPool* pool,
                      std::vector<T>& values, std::size_t root) {
  LPT_CHECK(values.size() == hc.size() && root < hc.size());
  for (std::size_t k = 0; k < hc.dimension(); ++k) {
    const std::size_t bit = std::size_t{1} << k;
    legacy_for_each_node(hc, pool, [&](std::size_t v) {
      if (((v ^ root) >> k) == 1) values[v] = values[v ^ bit];
    });
  }
  hc.charge_rounds(hc.dimension());
}

/// Recursive doubling: every node combines with its partner per step;
/// returns op(init, node 0's value).
template <typename T, typename Op>
T legacy_all_reduce(gossip::Hypercube& hc, util::ThreadPool* pool,
                    const std::vector<T>& values, T init, Op op) {
  LPT_CHECK(values.size() == hc.size());
  std::vector<T> acc(values);
  std::vector<T> partner(values.size());
  for (std::size_t k = 0; k < hc.dimension(); ++k) {
    const std::size_t bit = std::size_t{1} << k;
    legacy_for_each_node(hc, pool,
                         [&](std::size_t v) { partner[v] = acc[v ^ bit]; });
    legacy_for_each_node(
        hc, pool, [&](std::size_t v) { acc[v] = op(acc[v], partner[v]); });
  }
  hc.charge_rounds(hc.dimension());
  return op(std::move(init), acc[0]);
}

/// Hypercube scan: every node carries (prefix, subcube total) and folds its
/// partner's subcube total into both per step.  Exclusive prefix sums in
/// `values`; returns node 0's total.
template <typename T>
T legacy_prefix_sum(gossip::Hypercube& hc, util::ThreadPool* pool,
                    std::vector<T>& values) {
  LPT_CHECK(values.size() == hc.size());
  std::vector<T> sum(values);
  std::vector<T> partner(values.size());
  std::vector<T> pre(values.size(), T{});
  for (std::size_t k = 0; k < hc.dimension(); ++k) {
    const std::size_t bit = std::size_t{1} << k;
    legacy_for_each_node(hc, pool,
                         [&](std::size_t v) { partner[v] = sum[v ^ bit]; });
    legacy_for_each_node(hc, pool, [&](std::size_t v) {
      if (v & bit) pre[v] = pre[v] + partner[v];
      sum[v] = sum[v] + partner[v];
    });
  }
  hc.charge_rounds(hc.dimension());
  values = pre;
  return sum[0];
}

template <core::LpTypeProblem P>
core::HypercubeClarksonResult<P> reference_hypercube_clarkson(
    const P& p, std::span<const typename P::Element> h_set,
    std::size_t n_nodes, const core::HypercubeClarksonConfig& cfg = {}) {
  using Element = typename P::Element;
  core::HypercubeClarksonResult<P> res;
  LPT_CHECK_MSG(util::is_pow2(n_nodes), "hypercube baseline needs n = 2^k");
  const std::size_t d = p.dimension();
  const std::size_t r = 6 * d * d;
  const std::size_t n = h_set.size();
  std::size_t max_iterations = cfg.max_iterations;
  if (max_iterations == 0) {
    max_iterations = 64 * d * (util::ceil_log2(n ? n : 1) + 2);
  }

  util::Rng master(cfg.seed);
  util::Rng rng = master.child(0);
  util::Rng fault_rng = master.child(1);

  std::optional<util::ThreadPool> pool_storage;
  if (cfg.parallel_nodes > 1) pool_storage.emplace(cfg.parallel_nodes);
  util::ThreadPool* pool = pool_storage ? &*pool_storage : nullptr;
  gossip::Hypercube hc(n_nodes);
  gossip::HypercubeChannel<Element> sample_chan(hc);

  struct Local {
    std::vector<Element> elems;
    std::vector<double> weight;
  };
  std::vector<Local> node(n_nodes);
  for (const auto& h : h_set) {
    auto& loc = node[rng.below(n_nodes)];
    loc.elems.push_back(h);
    loc.weight.push_back(1.0);
  }
  std::vector<std::size_t> occupied;
  for (std::size_t v = 0; v < n_nodes; ++v) {
    if (!node[v].elems.empty()) occupied.push_back(v);
  }
  auto for_each_occupied = [&](auto&& body) {
    if (pool != nullptr) {
      util::parallel_for(*pool, occupied.size(),
                         [&](std::size_t k) { body(occupied[k]); });
    } else {
      for (const std::size_t v : occupied) body(v);
    }
  };

  if (n <= r) {
    res.solution = p.solve(h_set);
    hc.route_messages();
    std::vector<std::uint8_t> token(n_nodes, 0);
    token[0] = 1;
    legacy_broadcast(hc, pool, token, 0);
    res.rounds = hc.rounds_used();
    res.converged = true;
    return res;
  }

  double loss_p = cfg.faults.push_loss;
  gossip::LossStream loss;
  gossip::BurstChain burst;
  bool in_burst = false;
  gossip::StragglerSet stragglers;

  std::vector<std::uint8_t> asleep(n_nodes, 0);
  std::vector<gossip::NodeId> sleeping;

  struct Tally {
    double weight = 0.0;
    std::uint32_t any = 0;
  };
  auto tally_op = [](const Tally& a, const Tally& b) {
    return Tally{a.weight + b.weight, a.any | b.any};
  };

  std::vector<double> node_weight(n_nodes, 0.0);
  std::vector<double> prefix;
  std::vector<Tally> tallies(n_nodes);
  std::vector<Element> sample;
  std::vector<std::uint8_t> token(n_nodes, 0);
  for (std::size_t it = 0; it < max_iterations; ++it) {
    ++res.iterations;
    const bool iid_sleep = cfg.faults.sleep_probability > 0.0;
    const bool straggle = cfg.faults.straggler.enabled();
    if (straggle && !iid_sleep) {
      for (const gossip::NodeId v : sleeping) asleep[v] = 0;
      sleeping.clear();
    }
    if (iid_sleep) {
      gossip::draw_sleep_set(fault_rng, cfg.faults.sleep_probability, n_nodes,
                             asleep, sleeping);
    }
    if (straggle) {
      stragglers.step(fault_rng, cfg.faults.straggler, n_nodes, asleep,
                      sleeping);
    }
    if (cfg.faults.burst.enabled()) {
      const bool was_burst = in_burst;
      in_burst = burst.step(fault_rng, cfg.faults.burst);
      loss_p = in_burst ? cfg.faults.burst.push_loss : cfg.faults.push_loss;
      if (in_burst != was_burst) loss = gossip::LossStream{};
    }

    for_each_occupied([&](std::size_t v) {
      double s = 0.0;
      for (double w : node[v].weight) s += w;
      node_weight[v] = s;
    });
    prefix = node_weight;
    const double total = legacy_prefix_sum(hc, pool, prefix);

    for (std::size_t k = 0; k < r; ++k) {
      const double target = rng.uniform() * total;
      const auto owner_it =
          std::upper_bound(prefix.begin(), prefix.end(), target) - 1;
      const auto v = static_cast<std::size_t>(owner_it - prefix.begin());
      double within = target - prefix[v];
      const auto& loc = node[v];
      std::size_t idx = 0;
      for (; idx + 1 < loc.weight.size(); ++idx) {
        if (within < loc.weight[idx]) break;
        within -= loc.weight[idx];
      }
      if (loc.elems.empty() || asleep[v]) continue;
      if (loss_p > 0.0 && loss.drop(fault_rng, loss_p)) continue;
      sample_chan.send(static_cast<gossip::NodeId>(v), 0, loc.elems[idx]);
    }
    sample_chan.route();
    const auto routed = sample_chan.inbox(0);
    sample.assign(routed.begin(), routed.end());

    const auto sol = p.solve(sample);
    std::fill(token.begin(), token.end(), std::uint8_t{0});
    token[0] = 1;
    legacy_broadcast(hc, pool, token, 0);

    for_each_occupied([&](std::size_t v) {
      Tally t;
      const auto& loc = node[v];
      for (std::size_t i = 0; i < loc.elems.size(); ++i) {
        if (p.violates(sol, loc.elems[i])) {
          t.weight += loc.weight[i];
          t.any = 1;
        }
      }
      tallies[v] = t;
    });
    const Tally reduced = legacy_all_reduce(hc, pool, tallies, Tally{},
                                            tally_op);

    if (reduced.any == 0) {
      res.solution = sol;
      res.converged = true;
      res.rounds = hc.rounds_used();
      return res;
    }
    if (reduced.weight <= total / (3.0 * static_cast<double>(d))) {
      for_each_occupied([&](std::size_t v) {
        auto& loc = node[v];
        for (std::size_t i = 0; i < loc.elems.size(); ++i) {
          if (p.violates(sol, loc.elems[i])) loc.weight[i] *= 2.0;
        }
      });
    }
  }
  res.solution = p.solve(h_set);
  res.converged = false;
  res.rounds = hc.rounds_used();
  return res;
}

/// The vector-backed basis message of the reference high-load loop.
template <typename Element>
struct ReferenceBasisMsg {
  std::vector<Element> basis;

  friend std::size_t wire_size(const ReferenceBasisMsg& m) noexcept {
    return m.basis.size() * sizeof(Element);
  }
};

template <core::LpTypeProblem P>
core::HighLoadResult<P> reference_high_load(
    const P& p, std::span<const typename P::Element> h_set,
    std::size_t n_nodes, const core::HighLoadConfig& cfg = {}) {
  using Element = typename P::Element;
  using Msg = ReferenceBasisMsg<Element>;

  core::HighLoadResult<P> res;
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

  std::vector<gossip::NodeId> occupied;
  std::vector<std::uint8_t> occ_flag(n, 0);
  for (gossip::NodeId v = 0; v < n; ++v) {
    if (store.size(v) != 0) {
      occupied.push_back(v);
      occ_flag[v] = 1;
    }
  }
  std::vector<gossip::NodeId> newly_occupied;
  auto merge_newly_occupied = [&] {
    if (newly_occupied.empty()) return;
    std::sort(newly_occupied.begin(), newly_occupied.end());
    const std::size_t mid = occupied.size();
    occupied.insert(occupied.end(), newly_occupied.begin(),
                    newly_occupied.end());
    std::inplace_merge(occupied.begin(),
                       occupied.begin() + static_cast<std::ptrdiff_t>(mid),
                       occupied.end());
  };

  const bool churn_on = cfg.churn != nullptr && !cfg.churn->empty();
  LPT_CHECK_MSG(!(churn_on && cfg.run_termination),
                "run_high_load: churn is incompatible with run_termination");
  std::optional<core::ChurnState> members;
  if (churn_on) members.emplace(n);
  core::detail::ChurnCursor churn_cursor(churn_on ? cfg.churn : nullptr);
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
  net.meter().reserve_rounds(max_rounds + 1);

  gossip::Mailbox<Msg> basis_mail(net);
  gossip::Mailbox<Element> elem_mail(net);
  core::TerminationProtocol<P> term(p, net, maturity);

  res.stats.initial_total_elements = store.total_elements();
  res.stats.max_total_elements = res.stats.initial_total_elements;

  struct NodeRound {
    std::uint8_t has_sol = 0;
    typename P::Solution sol;
    std::vector<Element> violators;
    std::size_t max_single_w = 0;
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
    std::size_t bookkeeping = 0;

    for (const core::ChurnEvent& ev : churn_cursor.events_due(t)) {
      const gossip::NodeId v = ev.node;
      if (ev.join) {
        members->join(v);
        continue;
      }
      members->leave(v);
      const std::span<const Element> view = store.view(v);
      if (view.empty()) continue;
      handoff_scratch.assign(view.begin(), view.end());
      store.clear_node(v);
      newly_occupied.clear();
      for (const Element& h : handoff_scratch) {
        const gossip::NodeId target = members->draw_present(net.rng());
        if (!occ_flag[target]) {
          occ_flag[target] = 1;
          newly_occupied.push_back(target);
        }
        store.add_copy(target, h);
      }
      merge_newly_occupied();
    }

    for_each_occupied([&](gossip::NodeId v) {
      NodeRound& sc = scratch[v];
      sc.has_sol = 0;
      if (net.asleep(v) || store.size(v) == 0) return;
      sc.has_sol = 1;
      sc.sol = p.solve(store.view(v));
    });
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
      for (std::size_t k = 0; k < c_copies; ++k) {
        basis_mail.push(v, Msg{sc.sol.basis});
      }
      if (store.size(v) > res.extras.max_local_elements) {
        res.extras.max_local_elements = store.size(v);
      }
    }
    basis_mail.deliver();

    for_each_occupied([&](gossip::NodeId v) {
      NodeRound& sc = scratch[v];
      sc.violators.clear();
      sc.max_single_w = 0;
      if (net.asleep(v) || store.size(v) == 0) return;
      for (const auto& msg : basis_mail.inbox(v)) {
        const auto sol_j = p.from_basis(msg.basis);
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
    for (const gossip::NodeId v : occupied) {
      ++bookkeeping;
      const NodeRound& sc = scratch[v];
      for (const auto& h : sc.violators) elem_mail.push(v, h);
      if (sc.max_single_w > res.extras.max_single_w) {
        res.extras.max_single_w = sc.max_single_w;
      }
    }
    elem_mail.deliver();

    newly_occupied.clear();
    for (const gossip::NodeId v : elem_mail.receivers()) {
      ++bookkeeping;
      if (absent(v)) continue;
      if (!occ_flag[v]) {
        occ_flag[v] = 1;
        newly_occupied.push_back(v);
      }
      for (const auto& h : elem_mail.inbox(v)) store.add_copy(v, h);
    }
    merge_newly_occupied();

    if (cfg.run_termination) {
      term.round(static_cast<std::uint32_t>(t),
                 [&](gossip::NodeId v) { return store.view(v); });
    }

    const std::size_t m = store.total_elements();
    if (m > res.stats.max_total_elements) res.stats.max_total_elements = m;
    res.stats.bookkeeping_touches_total += bookkeeping;
    res.stats.last_round_bookkeeping_touches = bookkeeping;

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

  net.meter().finish();
  res.stats.max_work_per_round = net.meter().max_work_per_round();
  res.stats.total_push_ops = net.meter().total_push_ops();
  res.stats.total_pull_ops = net.meter().total_pull_ops();
  res.stats.total_bytes = net.meter().total_bytes();
  res.stats.final_total_elements = store.total_elements();
  return res;
}

}  // namespace lpt::testsupport
