// Distributed Clarkson on a hypercube — the classic baseline of paper
// Section 1.1: "Clarkson's algorithm can easily be transformed into a
// distributed algorithm with expected runtime O(d log^2 n) if n nodes are
// interconnected by a hypercube, because every round of the algorithm can
// be executed in O(log n) communication rounds w.h.p."
//
// Each Clarkson iteration costs a constant number of hypercube collectives
// (weighted-sample prefix sums, sample routing, basis broadcast, violation
// reduce), each ceil(log2 n) rounds, so the total is Theta(d log^2 n) —
// the baseline bench/baselines compares against the gossip engines'
// Theta(d log n).
//
// Execution is split the same way as low_load/high_load: a per-node
// compute stage (weight totals, violation scans, multiplicity doubling)
// that touches only node-local state and fans out over a util::ThreadPool
// when HypercubeClarksonConfig::parallel_nodes asks for it, plus a serial
// shared-RNG stage (element placement, the leader's weighted draws, fault
// draws) replayed in a fixed order.  Results — solution, iteration count,
// hypercube round count — are bit-identical for every thread count.
//
// Layout: elements never move, so they and their multiplicities live in
// one flat CSR array in placement order (node v's slice holds its
// elements in h_set order), and every sweep walks slices of that array.
// Each iteration records hypercube.sweep (the stage-A sweeps),
// hypercube.collective (prefix sum, broadcast, all-reduce) and
// hypercube.leader (weighted draws, sample routing, the leader's solve)
// trace spans: one per phase, never one per node.
//
// Fault model (cfg.faults): sleeping nodes do not answer the leader's
// sample resolution (their elements yield no reply that iteration), and
// push_loss drops routed sample elements in transit with geometric gap
// draws.  The collective tree itself (prefix sums, broadcast, violation
// reduce) is synchronous and reliable — the baseline's termination
// detection is exact, so faults slow convergence but never corrupt it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/lp_type.hpp"
#include "gossip/hypercube.hpp"
#include "gossip/network.hpp"  // FaultModel
#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace lpt::core {

struct HypercubeClarksonConfig {
  std::uint64_t seed = 1;
  std::size_t max_iterations = 0;  // 0: auto cap (64 d (log2 n + 2))
  std::size_t parallel_nodes = 0;  // >1: the per-node compute stage (weight
                                   // totals, violation scans, doubling) runs
                                   // on this many threads.  Bit-identical to
                                   // the serial run: the stage touches only
                                   // node-local state, and every shared-RNG
                                   // draw happens in the serial leader
                                   // stage in a fixed order.
  gossip::FaultModel faults;       // sample-answer sleep + routed-element
                                   // loss (see header comment); the
                                   // collective tree stays reliable.
};

template <LpTypeProblem P>
struct HypercubeClarksonResult {
  typename P::Solution solution;
  std::size_t iterations = 0;        // Clarkson repeat-loop iterations
  std::size_t rounds = 0;            // hypercube communication rounds
  bool converged = false;
};

template <LpTypeProblem P>
HypercubeClarksonResult<P> run_hypercube_clarkson(
    const P& p, std::span<const typename P::Element> h_set,
    std::size_t n_nodes, const HypercubeClarksonConfig& cfg = {}) {
  using Element = typename P::Element;
  HypercubeClarksonResult<P> res;
  // This engine has no WorkMeter (the hypercube collectives count their
  // own rounds), so the registry fold happens here, covering every
  // return path.
  struct ObsGuard {
    const HypercubeClarksonResult<P>* res;
    ~ObsGuard() {
      obs::counter("engine.hypercube.runs").add(1);
      obs::counter("engine.hypercube.rounds").add(res->rounds);
      obs::counter("engine.hypercube.iterations").add(res->iterations);
    }
  } obs_guard{&res};
  LPT_CHECK_MSG(util::is_pow2(n_nodes), "hypercube baseline needs n = 2^k");
  const std::size_t d = p.dimension();
  const std::size_t r = 6 * d * d;
  const std::size_t n = h_set.size();
  std::size_t max_iterations = cfg.max_iterations;
  if (max_iterations == 0) {
    max_iterations = 64 * d * (util::ceil_log2(n ? n : 1) + 2);
  }

  util::Rng master(cfg.seed);
  util::Rng rng = master.child(0);        // placement + leader draws
  util::Rng fault_rng = master.child(1);  // sleep sets + loss gaps

  std::optional<util::ThreadPool> pool;
  if (cfg.parallel_nodes > 1) pool.emplace(cfg.parallel_nodes);
  gossip::Hypercube hc(n_nodes);
  gossip::HypercubeChannel<Element> sample_chan(hc);
  // The basis broadcast's payload.  Nothing reads it back: the broadcast's
  // observable effect is its round charge.
  std::vector<std::uint8_t> token(n_nodes, 0);
  token[0] = 1;

  if (n <= r) {
    // Small input: one gather + local solve + broadcast.
    res.solution = p.solve(h_set);
    hc.route_messages();
    hc.broadcast(token, 0);
    res.rounds = hc.rounds_used();
    res.converged = true;
    return res;
  }

  // Elements randomly distributed over the hypercube nodes, with local
  // Clarkson multiplicities (doubling keeps them exact powers of two).
  // Elements never move between nodes, so one CSR layout in placement
  // order holds them: node v's elements are elems[begin[v] .. begin[v+1])
  // in h_set order, each with its weight at the same index.
  std::vector<std::size_t> owner(n);
  std::vector<std::size_t> begin(n_nodes + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    owner[i] = rng.below(n_nodes);
    ++begin[owner[i] + 1];
  }
  for (std::size_t v = 0; v < n_nodes; ++v) begin[v + 1] += begin[v];
  std::vector<Element> elems(n);
  std::vector<double> weight(n, 1.0);
  {
    std::vector<std::size_t> cursor(begin.begin(), begin.end() - 1);
    for (std::size_t i = 0; i < n; ++i) elems[cursor[owner[i]]++] = h_set[i];
  }

  // Occupancy is fixed at placement, so the per-iteration stage-A sweeps
  // (weight totals, violation scans, doubling) visit only the occupied
  // nodes, each over its own slice.  Empty nodes keep their
  // zero-initialized node_weight/tallies entries forever, so the
  // collectives see exactly the same inputs as a full scan.
  std::vector<std::size_t> occupied;
  for (std::size_t v = 0; v < n_nodes; ++v) {
    if (begin[v + 1] != begin[v]) occupied.push_back(v);
  }
  auto for_each_occupied = [&](auto&& body) {
    if (pool) {
      util::parallel_for(*pool, occupied.size(), [&](std::size_t k) {
        const std::size_t v = occupied[k];
        body(v, begin[v], begin[v + 1]);
      });
    } else {
      for (const std::size_t v : occupied) body(v, begin[v], begin[v + 1]);
    }
  };

  // Geometric-gap loss sampling over the routed sample stream (one draw
  // per lost element, same scheme as the gossip substrate).  Under burst
  // faults the effective rate switches per iteration; the armed gap is
  // invalid across a rate change (a gap drawn at a tiny calm rate is
  // astronomically long), so the stream re-arms on every epoch transition.
  double loss_p = cfg.faults.push_loss;
  gossip::LossStream loss;
  gossip::BurstChain burst;
  bool in_burst = false;
  gossip::StragglerSet stragglers;

  std::vector<std::uint8_t> asleep(n_nodes, 0);
  std::vector<gossip::NodeId> sleeping;

  // The violation reduce carries (violated weight, any-violator flag) in
  // one collective; the combine is commutative, as all_reduce requires.
  struct Tally {
    double weight = 0.0;
    std::uint32_t any = 0;
  };
  auto tally_op = [](const Tally& a, const Tally& b) {
    return Tally{a.weight + b.weight, a.any | b.any};
  };

  std::vector<double> node_weight(n_nodes, 0.0);
  std::vector<double> prefix;  // reused: assignment keeps the capacity
  std::vector<Tally> tallies(n_nodes);
  std::vector<Element> sample;
  for (std::size_t it = 0; it < max_iterations; ++it) {
    ++res.iterations;
    obs::trace_tick();  // Clarkson iterations are the sampling unit here
    obs::TraceSpan iter_span("hypercube.iteration", it);

    // Serial fault stage: which nodes sleep through this iteration's
    // sample resolution (geometric gaps: O(sleepers) draws), straggler
    // retire/start draws, and the burst chain's per-iteration step — all
    // gated on their knobs, so fault-free (and i.i.d.-only) configs keep
    // byte-identical RNG streams.
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

    // (1) Per-node weight totals (stage A, occupied nodes only), then
    //     exclusive prefix sums across the cube: log n rounds.
    {
      obs::TraceSpan span("hypercube.sweep", it);
      for_each_occupied([&](std::size_t v, std::size_t b, std::size_t e) {
        double s = 0.0;
        for (std::size_t i = b; i < e; ++i) s += weight[i];
        node_weight[v] = s;
      });
    }
    double total = 0.0;
    {
      obs::TraceSpan span("hypercube.collective", it);
      prefix = node_weight;
      total = hc.prefix_sum(prefix);
    }

    // (2) Serial leader stage: draw r weighted positions; owning nodes
    //     resolve them locally and route the elements to the leader over
    //     the CSR channel: log n rounds.  Sleeping owners give no answer;
    //     push loss drops routed elements with geometric gaps.
    // (3) The leader solves the sample.  (An all-lost sample yields the
    //     empty solution, which everything violates — the iteration is
    //     simply wasted, never wrong.)
    const auto sol = [&] {
      obs::TraceSpan span("hypercube.leader", it);
      for (std::size_t k = 0; k < r; ++k) {
        const double target = rng.uniform() * total;
        // Owning node: the largest v with prefix[v] <= target (prefix is
        // nondecreasing; upper_bound returns the first entry > target).
        const auto owner_it =
            std::upper_bound(prefix.begin(), prefix.end(), target) - 1;
        const auto v = static_cast<std::size_t>(owner_it - prefix.begin());
        double within = target - prefix[v];
        std::size_t idx = begin[v];
        for (; idx + 1 < begin[v + 1]; ++idx) {
          if (within < weight[idx]) break;
          within -= weight[idx];
        }
        if (begin[v] == begin[v + 1] || asleep[v]) continue;
        if (loss_p > 0.0 && loss.drop(fault_rng, loss_p)) continue;  // lost
        sample_chan.send(static_cast<gossip::NodeId>(v), 0, elems[idx]);
      }
      sample_chan.route();
      const auto routed = sample_chan.inbox(0);
      sample.assign(routed.begin(), routed.end());
      return p.solve(sample);
    }();

    // (3') The leader broadcasts the basis: log n rounds.
    // (4) Per-node violation tests (stage A, occupied nodes only), then
    //     one commutative all-reduce of (violated weight, any flag): log n
    //     rounds.
    {
      obs::TraceSpan span("hypercube.collective", it);
      hc.broadcast(token, 0);
    }
    {
      obs::TraceSpan span("hypercube.sweep", it);
      for_each_occupied([&](std::size_t v, std::size_t b, std::size_t e) {
        Tally t;
        for (std::size_t i = b; i < e; ++i) {
          if (p.violates(sol, elems[i])) {
            t.weight += weight[i];
            t.any = 1;
          }
        }
        tallies[v] = t;
      });
    }
    Tally reduced;
    {
      obs::TraceSpan span("hypercube.collective", it);
      reduced = hc.all_reduce(tallies, Tally{}, tally_op);
    }

    if (reduced.any == 0) {
      res.solution = sol;
      res.converged = true;
      res.rounds = hc.rounds_used();
      return res;
    }
    // (5) Successful iteration: local doubling (stage A, no communication).
    if (reduced.weight <= total / (3.0 * static_cast<double>(d))) {
      obs::TraceSpan span("hypercube.sweep", it);
      for_each_occupied([&](std::size_t, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          if (p.violates(sol, elems[i])) weight[i] *= 2.0;
        }
      });
    }
  }
  res.solution = p.solve(h_set);
  res.converged = false;
  res.rounds = hc.rounds_used();
  return res;
}

}  // namespace lpt::core
