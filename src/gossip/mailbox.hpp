// Round-buffered push delivery and pull request/response channels, backed
// by flat CSR (compressed-sparse-row) buffers.
//
// Mailbox<M>:    push(from, msg) buffers msg for a uniformly random node;
//                deliver() routes all buffered messages into per-node
//                inboxes (the paper: "messages sent in round i are received
//                at the beginning of round i+1").
//
// PullChannel<A>: request(from) records a pull aimed at a uniformly random
//                node; resolve(responder) invokes the protocol's answer
//                function on each target and hands responses back to the
//                requesters.  The Section 2.3 pull phase and the gossip
//                protocols are built on this channel; the Section 2.1
//                sampler of the low-load and hitting-set engines draws each
//                node's pulls from the puller's own stream instead
//                (core/sampling.hpp draw_pulls), so it runs in stage A.
//
// Layout: instead of one std::vector per node, each channel keeps a single
// contiguous payload buffer plus per-node [begin, count) slices built by a
// stable counting sort on the destination.  Per-node bookkeeping arrays are
// *epoch-stamped*: a slice is only valid if its stamp matches the current
// delivery epoch, so deliver()/resolve() never touch the n - k nodes that
// received nothing.  All buffers persist across rounds; after warm-up a
// round performs zero allocations, and the cost of a delivery is
// O(messages) — independent of n.
//
// Message ordering within an inbox is the order the messages were pushed
// (the counting sort is stable), matching the previous per-vector
// semantics.  M and A must be default-constructible and movable.
//
// Fault injection: message loss is sampled with geometric gap draws (one
// RNG draw per *lost* message, not per message), and the fault-free path is
// dispatched once per delivery so the hot loops carry no fault branches.
//
// Complexity per round: deliver()/resolve() are O(messages) time, O(1)
// amortized allocation (buffers persist); inbox()/responses()/receivers()
// are O(1) lookups into the epoch's CSR index.  Determinism: the channels
// draw peers/losses from the Network's shared RNG stream in call order, so
// any engine that issues its channel calls in a fixed node order gets a
// bit-identical traffic pattern — the serial stage-B half of the engines'
// stage-A/stage-B contract (docs/ARCHITECTURE.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "gossip/network.hpp"
#include "util/assert.hpp"

namespace lpt::gossip {

/// Wire-size customization point: number of payload bytes a message of type
/// M occupies.  Specialize or overload for message types carrying dynamic
/// payloads; the default is the trivially-copyable size.
template <typename M>
std::size_t wire_size(const M&) noexcept {
  return sizeof(M);
}

namespace detail {

/// The epoch-stamped CSR index shared by Mailbox and PullChannel: per-node
/// slice starts/lengths that are implicitly reset by bumping the epoch
/// instead of clearing n entries.  All fields are 32-bit — the per-node
/// arrays are the substrate's cache footprint at n = 2^20, and slices are
/// bounded by the per-round message volume anyway.
class CsrIndex {
 public:
  explicit CsrIndex(std::size_t n)
      : begin_(n, 0), count_(n, 0), cursor_(n, 0), stamp_(n, 0) {}

  /// Start a new epoch; all slices become empty in O(1).
  void new_epoch() noexcept {
    ++epoch_;
    if (epoch_ == 0) {  // wrap: stamps from 4G epochs ago could collide
      std::fill(stamp_.begin(), stamp_.end(), std::uint32_t{0});
      epoch_ = 1;
    }
    touched_.clear();
  }

  /// Count one entry destined for `key` (first counting pass).
  void count(NodeId key) {
    if (stamp_[key] != epoch_) {
      stamp_[key] = epoch_;
      count_[key] = 0;
      touched_.push_back(key);
    }
    ++count_[key];
  }

  /// Turn counts into slice offsets; returns the total payload length.
  /// After this call begin_[k] is the slice start and count_[k] its length.
  std::size_t finish_counts() noexcept {
    std::uint32_t off = 0;
    for (const NodeId k : touched_) {
      begin_[k] = off;
      cursor_[k] = off;  // placement cursor for the fill pass
      off += count_[k];
    }
    return off;
  }

  /// finish_counts() with the slices laid out in ascending key order
  /// instead of first-touch order.  Delivery-by-key callers never notice
  /// the difference, but the hypercube channel's hop schedule traverses
  /// the in-flight set "node order, arrival order within node" and needs
  /// the payload physically in that order.
  std::size_t finish_counts_sorted() noexcept {
    std::sort(touched_.begin(), touched_.end());
    return finish_counts();
  }

  /// Next placement slot for `key` (second, filling pass).
  std::size_t place(NodeId key) noexcept { return cursor_[key]++; }

  /// Append mode (single-pass building when entries arrive already grouped
  /// by key): open `key`'s slice at payload position `pos`.  Keys must not
  /// repeat within an epoch.
  void open(NodeId key, std::size_t pos) {
    stamp_[key] = epoch_;
    begin_[key] = static_cast<std::uint32_t>(pos);
    count_[key] = 0;
    touched_.push_back(key);
  }

  /// Count one appended entry for an open()ed key.
  void append(NodeId key) noexcept { ++count_[key]; }

  /// Set an open()ed key's final slice length in one write.
  void close(NodeId key, std::size_t count) noexcept {
    count_[key] = static_cast<std::uint32_t>(count);
  }

  bool live(NodeId key) const noexcept { return stamp_[key] == epoch_; }
  std::size_t begin(NodeId key) const noexcept { return begin_[key]; }
  std::size_t count_of(NodeId key) const noexcept { return count_[key]; }

  /// Distinct keys that received entries in the current epoch.
  std::size_t touched() const noexcept { return touched_.size(); }

  /// The touched keys themselves, in first-touch order (valid until the
  /// next new_epoch()).  Lets delivery consumers walk exactly the inboxes
  /// that received something — O(receivers), not O(n).
  std::span<const NodeId> keys() const noexcept {
    return {touched_.data(), touched_.size()};
  }

 private:
  std::vector<std::uint32_t> begin_;
  std::vector<std::uint32_t> count_;
  std::vector<std::uint32_t> cursor_;
  std::vector<std::uint32_t> stamp_;
  std::vector<NodeId> touched_;
  std::uint32_t epoch_ = 1;
};

}  // namespace detail

template <typename M>
class Mailbox {
 public:
  explicit Mailbox(Network& net) : net_(&net), index_(net.size()) {}

  /// Push `msg` from node `from` to a uniformly random node (delivered at
  /// the next deliver() call).  Meters one push op on `from`.
  void push(NodeId from, M msg) {
    const NodeId to = net_->random_peer();
    net_->meter().add_push(from, wire_size(msg));
    outbox_.emplace_back(to, std::move(msg));
  }

  /// Push to an explicitly chosen node (used by protocols that answer a
  /// previous message; still metered as one push op).
  void push_to(NodeId from, NodeId to, M msg) {
    net_->meter().add_push(from, wire_size(msg));
    outbox_.emplace_back(to, std::move(msg));
  }

  /// Route all buffered messages into inboxes (start of the next round).
  /// Under fault injection each message is independently lost in transit
  /// with the network's push_loss probability (sampled with geometric gaps:
  /// one RNG draw per lost message).
  void deliver() {
    if (net_->faults().push_loss > 0.0) {
      deliver_impl<true>();
    } else {
      deliver_impl<false>();
    }
  }

  /// Messages delivered in the last deliver() to node v, in push order.
  /// The span is valid until the next deliver().
  std::span<const M> inbox(NodeId v) const noexcept {
    if (!index_.live(v)) return {};
    return {payload_.data() + index_.begin(v), index_.count_of(v)};
  }

  /// Total messages currently buffered for delivery.
  std::size_t pending() const noexcept { return outbox_.size(); }

  /// Nodes whose inbox received at least one message in the last deliver(),
  /// in first-touch (= earliest-message) order; valid until the next
  /// deliver().  Walking this instead of all n node ids makes the engines'
  /// "add received elements" pass O(receivers) — receiver order is
  /// irrelevant to them because each node's adds come from its own inbox
  /// only and consume no shared RNG.
  std::span<const NodeId> receivers() const noexcept { return index_.keys(); }

  /// Diagnostics for the "deliver cost scales with messages, not n"
  /// contract: inboxes written / messages routed by the last deliver().
  std::size_t last_delivered_inboxes() const noexcept {
    return index_.touched();
  }
  std::size_t last_delivered_messages() const noexcept {
    return payload_.size();
  }

 private:
  template <bool kFaults>
  void deliver_impl() {
    if constexpr (kFaults) {
      // Compact the outbox down to the surviving messages.  Geometric gap
      // draws replace per-message Bernoulli trials: `gap` counts survivors
      // until the next loss.
      const double p = net_->faults().push_loss;
      std::size_t w = 0;
      std::uint64_t gap = net_->loss_gap(p);
      for (std::size_t i = 0; i < outbox_.size(); ++i) {
        if (gap == 0) {
          gap = net_->loss_gap(p);
          continue;  // lost in transit
        }
        --gap;
        if (w != i) outbox_[w] = std::move(outbox_[i]);
        ++w;
      }
      outbox_.resize(w);
    }
    index_.new_epoch();
    for (const auto& [to, msg] : outbox_) index_.count(to);
    payload_.resize(index_.finish_counts());
    for (auto& [to, msg] : outbox_) {
      payload_[index_.place(to)] = std::move(msg);
    }
    outbox_.clear();
  }

  Network* net_;
  std::vector<std::pair<NodeId, M>> outbox_;
  std::vector<M> payload_;  // all inboxes, concatenated (CSR values)
  detail::CsrIndex index_;
};

template <typename A>
class PullChannel {
 public:
  explicit PullChannel(Network& net)
      : net_(&net), index_(net.size()), ans_index_(net.size()) {}

  /// Node `from` pulls from a uniformly random node.  Meters one pull op.
  void request(NodeId from) {
    net_->meter().add_pull(from, 0);
    if (from < last_from_) requests_sorted_ = false;
    last_from_ = from;
    requests_.emplace_back(from, net_->random_peer());
  }

  /// Answer all outstanding requests.  `responder(target) -> std::optional<A>`
  /// is the protocol-defined answer of node `target`; nullopt models "no
  /// reply" (e.g. an empty node in the Section 2.1 sampler).  Response
  /// payload bytes are metered on the responder's outgoing link.
  ///
  /// The responder is invoked in request order (so responder-side RNG
  /// consumption is independent of the CSR layout), and each requester's
  /// responses() keep that order.
  template <typename F>
  void resolve(F&& responder) {
    const auto& f = net_->faults();
    if (f.response_loss > 0.0 || net_->asleep_count() > 0) {
      resolve_impl<true>(responder);
    } else {
      resolve_impl<false>(responder);
    }
  }

  /// Responses received by node v from the last resolve(), in request
  /// order.  The span is valid until the next resolve().
  std::span<const A> responses(NodeId v) const noexcept {
    if (!index_.live(v)) return {};
    return {payload_.data() + index_.begin(v), index_.count_of(v)};
  }

  /// How many requests node v answered in the last resolve() (for load
  /// diagnostics; the paper's work measure counts initiated ops).  Built
  /// lazily from the answer log on first query, so the resolve hot loop
  /// carries no per-answer random-access bookkeeping.
  std::uint32_t answered(NodeId v) const {
    if (!ans_built_) {
      ans_index_.new_epoch();
      for (const NodeId t : ans_log_) ans_index_.count(t);
      ans_built_ = true;
    }
    return ans_index_.live(v)
               ? static_cast<std::uint32_t>(ans_index_.count_of(v))
               : 0;
  }

 private:
  template <bool kFaults, typename F>
  void resolve_impl(F&& responder) {
    // The responder is invoked in request order in both paths.  Engines
    // request in node order, so the common case is a sorted requester
    // sequence, which builds the CSR in a single append pass; the general
    // case stages (from, answer) pairs and counting-sorts them.
    index_.new_epoch();
    ans_log_.clear();
    ans_built_ = false;
    [[maybe_unused]] LossStream loss;
    const double p = net_->faults().response_loss;
    const bool sorted = requests_sorted_;
    if (sorted) payload_.clear();
    else scratch_.clear();
    NodeId open_from = 0;
    bool any_open = false;
    std::uint64_t bytes = 0;
    for (const auto& [from, target] : requests_) {
      if constexpr (kFaults) {
        if (net_->asleep(target)) continue;
        if (p > 0.0 && loss.drop(net_->rng(), p)) continue;  // response lost
      }
      std::optional<A> ans = responder(target);
      if (ans) {
        bytes += wire_size(*ans);
        ans_log_.push_back(target);
        if (sorted) {
          if (!any_open || from != open_from) {
            index_.open(from, payload_.size());
            open_from = from;
            any_open = true;
          }
          index_.append(from);
          payload_.push_back(std::move(*ans));
        } else {
          index_.count(from);
          scratch_.emplace_back(from, std::move(*ans));
        }
      }
    }
    if (!sorted) {
      // Stable counting-sort fill by requester.
      payload_.resize(index_.finish_counts());
      for (auto& [from, ans] : scratch_) {
        payload_[index_.place(from)] = std::move(ans);
      }
    }
    if (bytes != 0) net_->meter().add_response_bytes(bytes);
    requests_.clear();
    requests_sorted_ = true;
    last_from_ = 0;
  }

  Network* net_;
  std::vector<std::pair<NodeId, NodeId>> requests_;
  std::vector<std::pair<NodeId, A>> scratch_;  // staged (requester, answer)
  std::vector<A> payload_;                     // all responses, concatenated
  detail::CsrIndex index_;               // responses, keyed by requester
  mutable detail::CsrIndex ans_index_;   // answered counts (lazy)
  mutable bool ans_built_ = false;
  std::vector<NodeId> ans_log_;   // responders of the last resolve, in order
  bool requests_sorted_ = true;   // requesters arrived in nondecreasing order
  NodeId last_from_ = 0;
};

}  // namespace lpt::gossip
