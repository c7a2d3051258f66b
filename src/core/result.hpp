// Shared measurement record for the distributed engines.
//
// Fields mirror what the paper reports: rounds (Figures 2-3 measure rounds
// until at least one node holds the optimum; Lemma 12 adds O(log n) rounds
// until every node outputs), per-node per-round communication work
// (Theorems 3-5), and total load |H(V)| (Lemmas 9 and 20).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "gossip/metrics.hpp"

namespace lpt::core {

struct DistributedRunStats {
  // Rounds until at least one node's sample/local set attains f(H)
  // (the quantity plotted in Figures 2 and 3).
  std::size_t rounds_to_first = 0;
  // Rounds until every node has produced an output via the Algorithm 3
  // termination protocol (0 when the protocol is disabled).
  std::size_t rounds_to_all_output = 0;

  bool reached_optimum = false;    // some node found f(H) within the cap
  bool all_outputs_correct = true; // every Algorithm 3 output equals f(H)

  // Communication accounting (from gossip::WorkMeter).
  std::uint32_t max_work_per_round = 0;
  std::uint64_t total_push_ops = 0;
  std::uint64_t total_pull_ops = 0;
  std::uint64_t total_bytes = 0;

  // Load accounting: |H(V)| over time (Lemma 9 / Lemma 20 territory).
  std::size_t initial_total_elements = 0;
  std::size_t max_total_elements = 0;
  std::size_t final_total_elements = 0;

  // Section 2.1 sampler diagnostics.
  std::uint64_t sampling_attempts = 0;
  std::uint64_t sampling_failures = 0;

  // Sparse-bookkeeping diagnostics (the large-n engine contract): node
  // touches by the non-sampling bookkeeping loops — stage-B replay walk,
  // filter pass, delivery inbox walks, pull-phase / occupied lists.  The
  // per-node sampling/compute work is inherent to the algorithms and
  // excluded.  `..._total` sums over all rounds: it is O(sum of per-round
  // active sets), where the pre-slab engines paid a fixed >= 4n per round
  // (stage-B scan, two delivery walks, filter walk, store-header walk)
  // regardless of activity — the tests pin the new totals against that
  // floor.  `last_round_...` is the final round alone (what the large-n
  // bench reports for its steady state).
  std::uint64_t bookkeeping_touches_total = 0;
  std::size_t last_round_bookkeeping_touches = 0;

  /// A gossip engine's round end: the load |H(V)| and bookkeeping touches.
  void end_round(std::size_t total_elements, std::size_t bookkeeping) {
    max_total_elements = std::max(max_total_elements, total_elements);
    bookkeeping_touches_total += bookkeeping;
    last_round_bookkeeping_touches = bookkeeping;
  }

  /// A gossip engine's run end: close `meter` (which folds its totals into
  /// the obs registry), copy its totals, and record the final load.
  void finish(gossip::WorkMeter& meter, std::size_t total_elements) {
    meter.finish();
    max_work_per_round = meter.max_work_per_round();
    total_push_ops = meter.total_push_ops();
    total_pull_ops = meter.total_pull_ops();
    total_bytes = meter.total_bytes();
    final_total_elements = total_elements;
  }
};

}  // namespace lpt::core
