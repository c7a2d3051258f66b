// Hypercube collective-operation engine.
//
// Section 1.1 of the paper notes that Clarkson's algorithm yields an
// O(d log^2 n) distributed algorithm on a hypercube because every iteration
// can be executed in O(log n) communication rounds.  This module provides
// that baseline substrate: an n = 2^k node hypercube where each collective
// (broadcast, all-reduce, prefix-sum) costs exactly k rounds — the textbook
// dimension-by-dimension schedule.
//
// The collectives charge those k rounds but compute their results
// directly, in O(n) work instead of replaying the O(n log n) per-step
// partner exchanges.  Each computed form returns exactly what the exchange
// schedule would leave behind, bit for bit:
//
//   * broadcast: after the binomial-tree flood every node holds the
//     root's value — a fill.
//   * all_reduce: after recursive doubling, node 0 holds the left-first
//     pairwise tree fold (at step k it folds in node 2^k, which holds the
//     same fold of the next 2^k nodes), so the fold is computed once with
//     n - 1 combines.
//   * prefix_sum: after step k every node of an aligned 2^(k+1)-block
//     holds the block's total, the sum of the two half totals (the halves'
//     nodes add them in opposite order; + is commutative), and at step k a
//     node with bit k set adds the total of the block just below it to its
//     prefix.  So the block totals are built level by level, and each node
//     makes the same additions, lowest level first, starting from T{}.
//
// These are serial loops of O(n) work (prefix_sum: n/2 additions per
// level, in contiguous runs), so they take no thread pool.  The per-node
// schedules live on in tests/support/reference_engines.hpp, and
// tests/test_hypercube_csr.cpp requires bit equality with them on
// non-integer doubles, running the references with and without a pool.
//
// Point-to-point traffic goes through HypercubeChannel: dimension-ordered
// (e-cube) routing over the same flat CSR buffers the gossip Mailbox uses —
// epoch-stamped per-node slices, std::span inboxes, zero steady-state
// allocation.  The pre-CSR per-dimension vector-of-vectors engine lives on
// as LegacyHypercubeChannel inside tests/test_hypercube_csr.cpp (the same
// arrangement as the legacy Mailbox/PullChannel references): both engines
// share the exact hop schedule, so their inboxes must match element for
// element, and that harness holds them to it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "gossip/mailbox.hpp"  // detail::CsrIndex + NodeId
#include "util/assert.hpp"
#include "util/math.hpp"

namespace lpt::gossip {

class Hypercube {
 public:
  explicit Hypercube(std::size_t n) : n_(n), dim_(util::ceil_log2(n)) {
    LPT_CHECK_MSG(util::is_pow2(n), "Hypercube size must be a power of two");
  }

  std::size_t size() const noexcept { return n_; }
  std::size_t dimension() const noexcept { return dim_; }
  std::size_t rounds_used() const noexcept { return rounds_; }

  /// Account `r` extra communication rounds (used by the channels).
  void charge_rounds(std::size_t r) noexcept { rounds_ += r; }

  /// Broadcast root's value to everyone: binomial-tree flood, one dimension
  /// per round, costs dimension() rounds.  The flood leaves every node
  /// holding the root's value.
  template <typename T>
  void broadcast(std::vector<T>& values, std::size_t root) {
    LPT_CHECK(values.size() == n_ && root < n_);
    const T value = values[root];
    std::fill(values.begin(), values.end(), value);
    rounds_ += dim_;
  }

  /// All-reduce with a binary op: recursive doubling, costs dimension()
  /// rounds.  Op must be commutative (each step's partners apply it with
  /// opposite operand order, so every node ends with node 0's value);
  /// associativity is NOT required — the combine tree is fixed, so the
  /// returned value is deterministic: op(init, <left-first pairwise tree
  /// fold of values>).
  template <typename T, typename Op>
  T all_reduce(const std::vector<T>& values, T init, Op op) {
    LPT_CHECK(values.size() == n_);
    const auto acc = scratch<T>(n_);
    std::copy(values.begin(), values.end(), acc.begin());
    for (std::size_t bit = 1; bit < n_; bit <<= 1) {
      for (std::size_t b = 0; b < n_; b += 2 * bit) {
        acc[b] = op(acc[b], acc[b + bit]);
      }
    }
    rounds_ += dim_;
    return op(std::move(init), acc[0]);
  }

  /// Exclusive prefix sum; returns the total.  Hypercube scan: every node
  /// carries (prefix, subcube total) and folds its partner's subcube total
  /// into both per step.  Costs dimension() rounds.  T's + must be
  /// commutative, as it is for the arithmetic types.
  template <typename T>
  T prefix_sum(std::vector<T>& values) {
    LPT_CHECK(values.size() == n_);
    // Entering level k, sum[b] holds the total of the aligned 2^k-block
    // starting at b.  Every node of the upper block of each pair adds the
    // lower block's total to its prefix, then the pair's total, (low) +
    // (high), replaces the lower one.
    const auto sum = scratch<T>(n_);
    std::copy(values.begin(), values.end(), sum.begin());
    std::fill(values.begin(), values.end(), T{});
    for (std::size_t bit = 1; bit < n_; bit <<= 1) {
      for (std::size_t b = bit; b < n_; b += 2 * bit) {
        const T low = sum[b - bit];
        for (std::size_t v = b; v < b + bit; ++v) values[v] = values[v] + low;
        sum[b - bit] = low + sum[b];
      }
    }
    rounds_ += dim_;
    return sum[0];
  }

  /// Route k point-to-point messages (any h-relation with h = O(1) routes
  /// in O(log n) rounds on a hypercube via Ranade/Valiant-style routing).
  /// Cost-only form; HypercubeChannel moves the actual payload.
  void route_messages() { rounds_ += dim_; }

 private:
  /// Collective scratch, reused across calls so the steady state allocates
  /// nothing.  Collectives carry fixed-width wire words, hence the
  /// trivially-copyable constraint; the byte arena is reinterpreted per
  /// element type (implicit-lifetime types, default-new alignment).
  template <typename T>
  std::span<T> scratch(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "hypercube collectives carry fixed-width wire words");
    static_assert(alignof(T) <= alignof(std::max_align_t));
    if (scratch_.size() < count * sizeof(T)) scratch_.resize(count * sizeof(T));
    return {reinterpret_cast<T*>(scratch_.data()), count};
  }

  std::size_t n_;
  std::size_t dim_;
  std::size_t rounds_ = 0;
  std::vector<std::byte> scratch_;
};

/// Point-to-point message routing over the hypercube: dimension-ordered
/// (e-cube) hops on flat CSR buffers.  At step k every in-flight message
/// whose current node and destination differ in bit k crosses to the
/// dimension-k partner; the in-flight set is kept in CSR order (a stable
/// counting sort by current node per step, reusing the Mailbox's
/// epoch-stamped index), so per-step traversal is "node order, arrival
/// order within node" — the exact schedule of the legacy per-dimension
/// vector engine (see tests/test_hypercube_csr.cpp), at O(messages) per
/// step with zero steady-state allocation.  route() charges dimension()
/// rounds; inboxes are epoch-stamped std::span slices valid until the
/// next route().
template <typename M>
class HypercubeChannel {
 public:
  explicit HypercubeChannel(Hypercube& hc)
      : hc_(&hc), index_(hc.size()), dim_traffic_(hc.dimension(), 0) {}

  /// Stage one message; delivered (and charged) by the next route().
  void send(NodeId from, NodeId to, M msg) {
    LPT_CHECK(from < hc_->size() && to < hc_->size());
    payload_.push_back(std::move(msg));
    cur_.push_back(from);
    dst_.push_back(to);
  }

  std::size_t pending() const noexcept { return payload_.size(); }

  /// Deliver all staged messages along dimension-ordered routes.
  void route() {
    const std::size_t dim = hc_->dimension();
    dim_traffic_.assign(dim, 0);
    for (std::size_t k = 0; k <= dim; ++k) {
      // Stable counting sort of the in-flight set by current node.  The
      // final pass (k == dim) runs after every message has arrived, so it
      // groups by destination and *is* the inbox CSR layout.
      index_.new_epoch();
      for (const NodeId c : cur_) index_.count(c);
      const std::size_t total = index_.finish_counts_sorted();
      sorted_payload_.resize(total);
      sorted_cur_.resize(total);
      sorted_dst_.resize(total);
      for (std::size_t i = 0; i < total; ++i) {
        const std::size_t slot = index_.place(cur_[i]);
        sorted_payload_[slot] = std::move(payload_[i]);
        sorted_cur_[slot] = cur_[i];
        sorted_dst_[slot] = dst_[i];
      }
      payload_.swap(sorted_payload_);
      cur_.swap(sorted_cur_);
      dst_.swap(sorted_dst_);
      if (k == dim) break;
      const NodeId bit = NodeId{1} << k;
      for (std::size_t i = 0; i < total; ++i) {
        if ((cur_[i] ^ dst_[i]) & bit) {
          cur_[i] ^= bit;
          ++dim_traffic_[k];
        }
      }
    }
    hc_->charge_rounds(dim);
    // payload_ now holds the delivered inboxes (indexed by index_); the
    // staging arrays restart empty for the next round.
    delivered_.swap(payload_);
    payload_.clear();
    cur_.clear();
    dst_.clear();
  }

  /// Messages delivered to node v by the last route(), in the hop
  /// schedule's arrival order.  Valid until the next route().
  std::span<const M> inbox(NodeId v) const noexcept {
    if (!index_.live(v)) return {};
    return {delivered_.data() + index_.begin(v), index_.count_of(v)};
  }

  /// Messages that crossed dimension k during the last route().
  std::size_t dim_traffic(std::size_t k) const {
    LPT_CHECK(k < dim_traffic_.size());
    return dim_traffic_[k];
  }

 private:
  Hypercube* hc_;
  std::vector<M> payload_;  // staging, then in-flight, in CSR order
  std::vector<NodeId> cur_;
  std::vector<NodeId> dst_;
  std::vector<M> sorted_payload_;  // counting-sort double buffers
  std::vector<NodeId> sorted_cur_;
  std::vector<NodeId> sorted_dst_;
  std::vector<M> delivered_;  // all inboxes, concatenated (CSR values)
  detail::CsrIndex index_;
  std::vector<std::size_t> dim_traffic_;
};

}  // namespace lpt::gossip
