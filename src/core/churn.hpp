// Churn: nodes leaving and (re)joining mid-run (ROADMAP "scenario
// diversity").  A ChurnSchedule is a deterministic, pre-compiled list of
// leave/join events keyed by round number; core/round_driver.hpp applies
// the events due at the start of each round, *after* begin_round().
//
// Semantics (chosen so the paper's correctness invariants survive):
//   * leave — the node hands its whole store off to uniformly random
//     *present* nodes (originals stay originals, copies stay copies), then
//     its store is cleared.  No element is ever destroyed: the input
//     multiset H_0(V) is preserved across any schedule.  A departed node
//     answers no pulls (its store is empty) and deliveries addressed to it
//     are dropped — safe, because pushers always retain their own copies.
//   * join — the node is present again; a low-load node enters the
//     Section 2.3 pull phase, like a node whose placement left it empty.
//
// Handoff draws come from the network's shared RNG stream, replayed in
// stage B order, so churn runs stay deterministic for any thread or shard
// count — though (by design) they perturb the RNG stream relative to a
// churn-free run, which is why the stress harness pins invariants, not
// golden outputs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gossip/network.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace lpt::core {

/// One scheduled membership change, applied at the start of `round`
/// (1-based: round 1 is the first round the engines run).
struct ChurnEvent {
  std::size_t round = 0;
  gossip::NodeId node = 0;
  bool join = false;  // false: leave; true: (re)join
};

/// A deterministic churn script: events sorted by round.  Engines walk it
/// with a cursor, so applying a round's events is O(events due).
struct ChurnSchedule {
  std::vector<ChurnEvent> events;

  bool empty() const noexcept { return events.empty(); }

  void sort() {
    std::stable_sort(events.begin(), events.end(),
                     [](const ChurnEvent& a, const ChurnEvent& b) {
                       return a.round < b.round;
                     });
  }
};

/// Present-set bookkeeping: O(1) membership test, O(1) leave/join, and
/// O(1) uniform draw over the present nodes (swap-remove list + positions).
class ChurnState {
 public:
  explicit ChurnState(std::size_t n) : present_(n, 1), pos_(n), list_(n) {
    for (std::size_t v = 0; v < n; ++v) {
      list_[v] = static_cast<gossip::NodeId>(v);
      pos_[v] = static_cast<std::uint32_t>(v);
    }
  }

  bool present(gossip::NodeId v) const noexcept { return present_[v] != 0; }

  void leave(gossip::NodeId v) {
    LPT_CHECK_MSG(present_[v], "churn: leave of a node that is not present");
    LPT_CHECK_MSG(list_.size() > 1, "churn: cannot remove the last node");
    present_[v] = 0;
    const std::uint32_t p = pos_[v];
    const gossip::NodeId last = list_.back();
    list_[p] = last;
    pos_[last] = p;
    list_.pop_back();
  }

  void join(gossip::NodeId v) {
    LPT_CHECK_MSG(!present_[v], "churn: join of a node that is present");
    present_[v] = 1;
    pos_[v] = static_cast<std::uint32_t>(list_.size());
    list_.push_back(v);
  }

  /// Uniformly random present node (caller's RNG stream).
  gossip::NodeId draw_present(util::Rng& rng) const {
    return list_[rng.below(list_.size())];
  }

 private:
  std::vector<std::uint8_t> present_;
  std::vector<std::uint32_t> pos_;  // index of v in list_ (present only)
  std::vector<gossip::NodeId> list_;
};

namespace detail {

/// Cursor over a sorted ChurnSchedule: events_due(t) returns the (possibly
/// empty) span of events whose round == t, advancing past them.
class ChurnCursor {
 public:
  explicit ChurnCursor(const ChurnSchedule* schedule)
      : schedule_(schedule) {}

  std::span<const ChurnEvent> events_due(std::size_t round) {
    if (schedule_ == nullptr) return {};
    const auto& ev = schedule_->events;
    const std::size_t begin = next_;
    while (next_ < ev.size() && ev[next_].round <= round) ++next_;
    return {ev.data() + begin, next_ - begin};
  }

 private:
  const ChurnSchedule* schedule_;
  std::size_t next_ = 0;
};

/// Hand node v's store off to uniformly random present nodes and clear it,
/// calling on_target(t) before each element is added at t.  The elements
/// are staged in `scratch`: an add can grow a target's slab slot, which
/// may reallocate the arena the leaver's view points into.
template <typename Element, typename OnTarget>
void hand_off_store(gossip::NodeStore<Element>& store, gossip::NodeId v,
                    const ChurnState& churn, util::Rng& rng,
                    std::vector<Element>& scratch, OnTarget&& on_target) {
  const std::span<const Element> view = store.view(v);
  if (view.empty()) return;
  const std::size_t h0 = store.h0_count(v);
  scratch.assign(view.begin(), view.end());
  store.clear_node(v);
  for (std::size_t i = 0; i < scratch.size(); ++i) {
    const gossip::NodeId target = churn.draw_present(rng);
    on_target(target);
    if (i < h0) {
      store.add_original(target, scratch[i]);
    } else {
      store.add_copy(target, scratch[i]);
    }
  }
}

}  // namespace detail
}  // namespace lpt::core
