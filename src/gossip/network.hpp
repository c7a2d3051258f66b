// The uniform gossip network simulator (the paper's model, Section 1.2).
//
// A fixed anonymous node set v_1..v_n operates in synchronous rounds.  Per
// round a node may execute any number of *push* operations (send a message
// to a node chosen uniformly at random) and *pull* operations (ask a node
// chosen uniformly at random for a message).  The number of such operations
// is the node's communication work for the round.
//
// The simulator's job is to (1) choose peers uniformly at random from a
// seeded stream, (2) enforce round-buffered delivery for pushes, and
// (3) meter per-node work and bytes.  Algorithm code must do all cross-node
// communication through Mailbox / PullChannel, or through the Section 2.1
// pull sampler (core/sampling.hpp draw_pulls), which answers a node's pulls
// against the other nodes' stores as they stood at the start of the round;
// node logic never touches another node's state directly, preserving the
// model's information flow.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "gossip/metrics.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/slab.hpp"

namespace lpt::gossip {

/// Markov-modulated ("bursty") loss: a two-state calm/burst chain advanced
/// once per round.  During calm epochs the base FaultModel loss rates
/// apply; during burst epochs they are *replaced* by the rates below.
/// Epoch durations are geometric — `enter` is the per-round calm -> burst
/// transition probability, `exit` the burst -> calm one — sampled as
/// batched geometric gaps (one draw per epoch, not per round).  The
/// stationary burst fraction is enter / (enter + exit), so the marginal
/// loss rate is (1 - pi) * base + pi * burst with pi that fraction.
struct BurstFaults {
  double push_loss = 0.0;      // loss rates while the chain is in burst
  double response_loss = 0.0;
  double enter = 0.0;          // P(calm -> burst) per round
  double exit = 0.0;           // P(burst -> calm) per round

  bool enabled() const noexcept {
    return enter > 0.0 && (push_loss > 0.0 || response_loss > 0.0);
  }
};

/// Heavy-tailed stragglers: an awake node starts a "straggle" with
/// probability `rate` per round and then sleeps for a Pareto-distributed
/// number of consecutive rounds — duration = min(cap_rounds,
/// ceil(scale * u^(-1/alpha))) — instead of the i.i.d. one-round sleeps of
/// FaultModel::sleep_probability.  Start draws are batched geometric gaps
/// over the node ids (O(starters) draws per round, not O(n)).
struct StragglerFaults {
  double rate = 0.0;        // per-node per-round straggle-start probability
  double alpha = 1.5;       // Pareto tail index (smaller = heavier tail)
  double scale = 1.0;       // Pareto scale x_m (minimum sleep, in rounds)
  std::uint32_t cap_rounds = 64;  // hard cap on one straggle's length

  bool enabled() const noexcept { return rate > 0.0 && cap_rounds > 0; }
};

/// Fault-injection knobs for the "stability under stress and disruptions"
/// claim of Section 1.2.  All faults preserve the algorithms' correctness
/// invariants (no element is ever destroyed at its home node):
///   * push_loss: each pushed message is independently lost in transit,
///   * response_loss: each pull response is independently lost,
///   * sleep_probability: each node independently skips a whole round
///     (neither initiates operations nor answers pulls),
///   * burst: Markov-modulated loss epochs replacing the i.i.d. loss rates
///     during burst rounds (Network::faults() reports the effective rates),
///   * straggler: Pareto-length multi-round sleeps layered onto the
///     i.i.d. sleep set.
struct FaultModel {
  double push_loss = 0.0;
  double response_loss = 0.0;
  double sleep_probability = 0.0;
  BurstFaults burst;
  StragglerFaults straggler;

  bool any() const noexcept {
    return push_loss > 0.0 || response_loss > 0.0 ||
           sleep_probability > 0.0 || burst.enabled() || straggler.enabled();
  }
};

/// Batched fault draw: number of events that *survive* before the next
/// loss, when each event is independently lost with probability p.  One
/// RNG draw replaces a run of Bernoulli trials, so a loss sweep over k
/// events costs O(lost) draws instead of O(k).
inline std::uint64_t geometric_gap(util::Rng& rng, double p) noexcept {
  constexpr std::uint64_t kCap = std::uint64_t{9} * 1000 * 1000 * 1000 *
                                 1000 * 1000 * 1000;  // 9e18
  if (p <= 0.0) return kCap;  // no losses: effectively infinite gap
  if (p >= 1.0) return 0;
  // u in (0, 1]: P(gap >= k) = (1-p)^k, the geometric survivor function.
  const double u = 1.0 - rng.uniform();
  const double g = std::log(u) / std::log1p(-p);
  // The cap keeps the cast defined for tiny p.
  return g >= static_cast<double>(kCap) ? kCap
                                        : static_cast<std::uint64_t>(g);
}

/// Stateful geometric-gap loss stream: drop(rng, p) answers "is this event
/// lost?" consuming one RNG draw per *lost* event.  The first call arms the
/// stream lazily, so a fault-free sweep (p checked by the caller) draws
/// nothing.  Shared by the pull channel, the Section 2.1 sampler (one stream
/// per puller) and the hypercube baseline.
struct LossStream {
  std::uint64_t gap = 0;
  bool armed = false;

  bool drop(util::Rng& rng, double p) noexcept {
    if (!armed) {
      gap = geometric_gap(rng, p);
      armed = true;
    }
    if (gap == 0) {
      gap = geometric_gap(rng, p);
      return true;
    }
    --gap;
    return false;
  }
};

/// Draw the sleeping-node set for one round: each node independently
/// sleeps with probability p, sampled with geometric gaps so the cost is
/// O(sleepers), not O(n).  Clears the previous set via the sparse list.
inline void draw_sleep_set(util::Rng& rng, double p, std::size_t n,
                           std::vector<std::uint8_t>& asleep,
                           std::vector<NodeId>& sleeping) {
  for (const NodeId v : sleeping) asleep[v] = 0;
  sleeping.clear();
  for (std::uint64_t v = geometric_gap(rng, p); v < n;
       v += 1 + geometric_gap(rng, p)) {
    asleep[v] = 1;
    sleeping.push_back(static_cast<NodeId>(v));
  }
}

/// One Pareto-distributed straggle length in rounds:
/// min(cap_rounds, ceil(scale * u^(-1/alpha))) with u uniform in (0, 1].
/// P(len >= t) = min(1, (scale / (t-1))^alpha) for integer t >= 2.
inline std::uint32_t pareto_sleep_rounds(util::Rng& rng,
                                         const StragglerFaults& spec) {
  const double u = 1.0 - rng.uniform();  // in (0, 1]
  const double x = spec.scale * std::pow(u, -1.0 / spec.alpha);
  const double cap = static_cast<double>(spec.cap_rounds);
  if (!(x < cap)) return spec.cap_rounds;  // also catches inf/NaN
  const double c = std::ceil(x);
  return c < 1.0 ? 1u : static_cast<std::uint32_t>(c);
}

/// The two-state calm/burst Markov chain behind BurstFaults, advanced once
/// per round via step().  Epoch lengths are sampled as one geometric draw
/// per epoch (duration = 1 + geometric_gap(rng, leave_p)), so a k-round
/// epoch costs one RNG draw, not k.
struct BurstChain {
  // Starts "in burst" with zero rounds left so the first step() flips to
  // calm and draws a full calm epoch — runs open calm, not mid-burst.
  bool in_burst = true;
  std::uint64_t rounds_left = 0;  // rounds remaining in the current epoch

  /// Advance one round; returns whether the *new* round is a burst round.
  bool step(util::Rng& rng, const BurstFaults& spec) {
    if (rounds_left == 0) {
      in_burst = !in_burst;
      const double leave_p = in_burst ? spec.exit : spec.enter;
      rounds_left = 1 + geometric_gap(rng, leave_p);
    }
    --rounds_left;
    return in_burst;
  }
};

/// Per-node straggle bookkeeping for StragglerFaults.  step() first retires
/// finished straggles, then draws this round's starters with geometric gaps
/// over the node ids — a draw that lands on an already-sleeping node is
/// ignored (no duration draw), so only awake nodes start straggles and the
/// steady-state sleeping fraction is rate*E[D] / (1 + rate*E[D]).
struct StragglerSet {
  std::vector<std::uint32_t> left;  // rounds left per straggling node
  std::vector<NodeId> nodes;       // straggling nodes (compact)

  void step(util::Rng& rng, const StragglerFaults& spec, std::size_t n,
            std::vector<std::uint8_t>& asleep,
            std::vector<NodeId>& sleeping) {
    if (left.empty()) left.assign(n, 0);
    // Retire straggles that have run their course.
    std::size_t w = 0;
    for (const NodeId v : nodes) {
      if (--left[v] == 0) continue;
      nodes[w++] = v;
    }
    nodes.resize(w);
    // New starters this round (only awake nodes may start).
    for (std::uint64_t v = geometric_gap(rng, spec.rate); v < n;
         v += 1 + geometric_gap(rng, spec.rate)) {
      const NodeId id = static_cast<NodeId>(v);
      if (left[id] > 0) continue;
      left[id] = pareto_sleep_rounds(rng, spec);
      nodes.push_back(id);
    }
    // Publish into the round's sleep set (the i.i.d. draw, if any, ran
    // first and already cleared the previous round's flags).
    for (const NodeId v : nodes) {
      if (!asleep[v]) {
        asleep[v] = 1;
        sleeping.push_back(v);
      }
    }
  }
};

class Network {
 public:
  Network(std::size_t n, util::Rng rng, FaultModel faults = {})
      : n_(n), rng_(rng), meter_(n), faults_(faults), effective_(faults),
        asleep_(n, 0) {
    LPT_CHECK_MSG(n >= 1, "Network needs at least one node");
  }

  std::size_t size() const noexcept { return n_; }

  /// Uniformly random node id (a node may draw itself: the uniform gossip
  /// model samples from the full node set).
  NodeId random_peer() noexcept {
    return static_cast<NodeId>(rng_.below(n_));
  }

  util::Rng& rng() noexcept { return rng_; }
  WorkMeter& meter() noexcept { return meter_; }
  const WorkMeter& meter() const noexcept { return meter_; }

  /// The *effective* fault model for the current round: identical to the
  /// configured model except that during burst epochs the loss rates are
  /// replaced by the burst rates.  Channels re-query this per round /
  /// per deliver, so Markov-modulated loss needs no channel changes.
  const FaultModel& faults() const noexcept { return effective_; }

  /// True while the burst chain is in a burst epoch (diagnostics).
  bool burst_active() const noexcept { return in_burst_; }

  /// Advance the synchronous round counter (and the work meter with it);
  /// re-draws which nodes sleep through the new round and advances the
  /// burst chain.  Sleepers are drawn with geometric gaps, so the cost is
  /// O(sleepers), not O(n).  Every new draw below is gated on its fault
  /// knob being enabled, so configurations without burst/straggler faults
  /// consume byte-identical RNG streams to the pre-scenario simulator.
  void begin_round() {
    meter_.begin_round();
    ++round_;
    const bool iid_sleep = faults_.sleep_probability > 0.0;
    const bool straggle = faults_.straggler.enabled();
    if (straggle && !iid_sleep) {
      // draw_sleep_set won't run to clear last round's flags; do it here.
      for (const NodeId v : sleeping_) asleep_[v] = 0;
      sleeping_.clear();
    }
    if (iid_sleep) {
      draw_sleep_set(rng_, faults_.sleep_probability, n_, asleep_, sleeping_);
    }
    if (straggle) {
      stragglers_.step(rng_, faults_.straggler, n_, asleep_, sleeping_);
    }
    if (faults_.burst.enabled()) {
      in_burst_ = burst_.step(rng_, faults_.burst);
      effective_.push_loss =
          in_burst_ ? faults_.burst.push_loss : faults_.push_loss;
      effective_.response_loss =
          in_burst_ ? faults_.burst.response_loss : faults_.response_loss;
    }
  }

  /// True if node v sleeps through the current round (fault injection).
  bool asleep(NodeId v) const noexcept { return asleep_[v] != 0; }

  /// All n sleep flags of the current round, indexed by node id (what the
  /// pull sampler reads: an asleep target answers nothing).
  std::span<const std::uint8_t> asleep_flags() const noexcept {
    return asleep_;
  }

  /// The nodes asleep this round, in draw order (not sorted).
  std::span<const NodeId> sleeping() const noexcept { return sleeping_; }

  /// Number of nodes asleep this round (the sparse sleep set's size) — lets
  /// engines compute "how many nodes acted" arithmetically instead of
  /// scanning all n asleep flags.
  std::size_t asleep_count() const noexcept { return sleeping_.size(); }

  /// Batched fault draw on the network's shared stream (see geometric_gap).
  std::uint64_t loss_gap(double p) noexcept { return geometric_gap(rng_, p); }

  /// Fault draw: should this pushed message be dropped in transit?
  /// (Single-event form; the channels use loss_gap() batching instead.)
  bool drop_push() noexcept {
    return effective_.push_loss > 0.0 && rng_.bernoulli(effective_.push_loss);
  }

  /// Fault draw: should this pull response be dropped?
  bool drop_response() noexcept {
    return effective_.response_loss > 0.0 &&
           rng_.bernoulli(effective_.response_loss);
  }

  /// Rounds started so far.
  std::size_t round() const noexcept { return round_; }

 private:
  std::size_t n_;
  util::Rng rng_;
  WorkMeter meter_;
  FaultModel faults_;     // as configured
  FaultModel effective_;  // per-round view (loss rates swap during bursts)
  BurstChain burst_;
  StragglerSet stragglers_;
  bool in_burst_ = false;
  std::vector<std::uint8_t> asleep_;
  std::vector<NodeId> sleeping_;  // nodes asleep this round (sparse reset)
  std::size_t round_ = 0;
};

/// Slab-backed per-node element storage for all n simulated nodes.
///
/// The Clarkson-style engines keep a multiset H(v_i) at every node:
/// elems[0..h0_count) is H_0(v_i) — the node's *original* elements, which
/// the algorithms never delete — and the tail holds *copies* created by
/// W_i pushes, which the per-round filter pass may drop.  The old design
/// (one std::vector per node) meant ~n separate heap blocks; at n = 2^20
/// the store-header walks and the filter pass were cache-miss bound and
/// the per-round cost was O(n) even in quiescent late rounds.
///
/// This store owns every node's elements in a util::SlabPool: per-node
/// headers are four flat u32 arrays (slab ref, size, h0, copy-holder flag)
/// and each node's elements live contiguously in a size-class arena slot,
/// so random indexing is O(1) and the filter pass streams memory.  On top
/// of that it maintains, incrementally:
///
///   * total_elements() — the global |H(V)| in O(1) (no store-header walk);
///   * copy_holders() — the compact list of nodes currently holding at
///     least one non-original copy, so the filter pass costs O(holders)
///     instead of O(n).  A node enters the list when a copy arrives and
///     leaves it lazily when filter_copies() empties its tail.
///
/// Determinism contract: the logical per-node element sequences (and hence
/// every RNG draw an engine makes against them) are bit-identical to the
/// per-node-vector design — add_copy appends, add_original grows the H_0
/// prefix by displacing the first copy to the back (O(1), order of copies
/// otherwise preserved), and filtering compacts in the same element order
/// with one Bernoulli draw per copy.  Nodes with no copies consume no
/// filter draws, so skipping them is exact, not approximate.
///
/// Not thread-safe for writes; concurrent *reads* (view/elem/size) from a
/// stage-A parallel compute phase are safe while no adds/filters run.
template <typename Element>
class NodeStore {
 public:
  explicit NodeStore(std::size_t n)
      : ref_(n, kNullRef), size_(n, 0), h0_(n, 0) {}

  std::size_t nodes() const noexcept { return ref_.size(); }
  std::size_t size(NodeId v) const noexcept { return size_[v]; }
  std::size_t h0_count(NodeId v) const noexcept { return h0_[v]; }
  std::size_t copy_count(NodeId v) const noexcept {
    return size_[v] - h0_[v];
  }

  /// Global element count across all nodes, maintained incrementally: O(1)
  /// where the per-node-vector design walked n store headers.
  std::size_t total_elements() const noexcept { return total_; }

  /// Node v's elements: originals first, then copies in arrival order.
  std::span<const Element> view(NodeId v) const noexcept {
    if (ref_[v] == kNullRef) return {};
    return {pool_.data(ref_[v]), size_[v]};
  }

  /// O(1) random access (the pull samplers' answer path).
  const Element& elem(NodeId v, std::size_t i) const noexcept {
    return pool_.data(ref_[v])[i];
  }

  /// Append an original element, growing the H_0 prefix by swapping the
  /// displaced copy (if any) to the back — O(1) amortized.
  void add_original(NodeId v, const Element& h) {
    Element* slot = push_slot(v);
    *slot = h;
    Element* base = pool_.data(ref_[v]);
    const std::size_t last = size_[v] - 1;
    if (last != h0_[v]) {
      using std::swap;
      swap(base[h0_[v]], base[last]);
    }
    ++h0_[v];
  }

  /// Append a copy (filter-droppable); registers v as a copy holder on the
  /// 0 -> 1 transition.
  void add_copy(NodeId v, const Element& h) {
    *push_slot(v) = h;
    if (size_[v] - h0_[v] == 1) holders_.push_back(v);
  }

  /// Nodes currently holding at least one copy (compact, deduplicated;
  /// order is first-arrival, irrelevant to results because filtering draws
  /// from per-node RNG streams only).
  std::span<const NodeId> copy_holders() const noexcept {
    return {holders_.data(), holders_.size()};
  }

  /// Algorithm 2 lines 8-9 for one node: keep each copy independently with
  /// probability keep_p (one draw per copy from `rng`), never touching the
  /// H_0 prefix.  Compacts in element order — the same draws and the same
  /// surviving sequence as the per-node-vector filter.
  template <typename Rng>
  void filter_node(NodeId v, Rng& rng, double keep_p) {
    if (size_[v] == h0_[v]) return;  // no copies: zero draws, zero work
    Element* base = pool_.data(ref_[v]);
    std::size_t w = h0_[v];
    for (std::size_t i = h0_[v]; i < size_[v]; ++i) {
      if (rng.bernoulli(keep_p)) base[w++] = base[i];
    }
    total_ -= size_[v] - w;
    size_[v] = static_cast<std::uint32_t>(w);
  }

  /// Run the filter pass over exactly the copy-holding nodes — O(holders),
  /// not O(n) — compacting the holder list as nodes go copy-free.
  /// `rng_at(v)` must return node v's own RNG stream (cross-node order is
  /// then irrelevant: each node's draws come from its private stream).
  /// Returns the number of nodes visited (the pass's bookkeeping cost).
  template <typename RngAt>
  std::size_t filter_copies(double keep_p, RngAt&& rng_at) {
    const std::size_t visited = holders_.size();
    std::size_t w = 0;
    for (const NodeId v : holders_) {
      filter_node(v, rng_at(v), keep_p);
      if (size_[v] > h0_[v]) holders_[w++] = v;
    }
    holders_.resize(w);
    return visited;
  }

  /// Drop node v's entire store (originals *and* copies) — the churn
  /// "leave" path, called after the elements have been handed off.  The
  /// holder entry is erased eagerly (not lazily as in filter_copies) so a
  /// later rejoin that re-receives copies registers exactly one entry.
  void clear_node(NodeId v) {
    if (ref_[v] == kNullRef) return;
    if (size_[v] > h0_[v]) {
      holders_.erase(std::find(holders_.begin(), holders_.end(), v));
    }
    total_ -= size_[v];
    pool_.release(ref_[v]);
    ref_[v] = kNullRef;
    size_[v] = 0;
    h0_[v] = 0;
  }

  /// Recycle every node's storage while keeping the slab arenas (O(n)
  /// header clear, O(1) arena recycling) — a fresh epoch over a warm pool.
  void reset() {
    std::fill(ref_.begin(), ref_.end(), kNullRef);
    std::fill(size_.begin(), size_.end(), std::uint32_t{0});
    std::fill(h0_.begin(), h0_.end(), std::uint32_t{0});
    holders_.clear();
    total_ = 0;
    pool_.reset();
  }

  /// Reserved slab memory (diagnostics).
  std::size_t arena_bytes() const noexcept { return pool_.arena_bytes(); }

 private:
  static constexpr std::uint32_t kNullRef = 0xffffffffu;

  /// Make room for one more element at node v and return its address.
  /// Grows by size class: allocate the next class's slot, copy, release
  /// the old slot to its free list (amortized O(1) per add, like vector
  /// growth but with both buffers recycled in-arena).
  Element* push_slot(NodeId v) {
    std::uint32_t r = ref_[v];
    if (r == kNullRef) {
      r = ref_[v] = pool_.allocate_for(1);
    } else if (size_[v] == util::SlabPool<Element>::capacity(r)) {
      const std::uint32_t grown = pool_.allocate_for(size_[v] + 1);
      std::copy_n(pool_.data(r), size_[v], pool_.data(grown));
      pool_.release(r);
      ref_[v] = r = grown;
    }
    ++total_;
    return pool_.data(r) + size_[v]++;
  }

  util::SlabPool<Element> pool_;
  std::vector<std::uint32_t> ref_;   // slab handle per node (kNullRef: none)
  std::vector<std::uint32_t> size_;  // elements per node
  std::vector<std::uint32_t> h0_;    // H_0 prefix length per node
  std::vector<NodeId> holders_;      // nodes with >= 1 copy (compact)
  std::size_t total_ = 0;            // sum of size_ (incremental)
};

}  // namespace lpt::gossip
