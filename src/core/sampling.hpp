// The pull-based uniform multiset sampler of Section 2.1.
//
// A node asks s = c*(6d^2 + log2 n) uniformly random nodes (pull
// operations) for a uniformly random element of their current multiset and
// keeps `target` *distinct* returned elements, chosen at random; the
// sampling fails if fewer than `target` distinct elements arrive (Lemma 11:
// with c large enough this happens with polynomially small probability).
//
// A pull is the puller's own action: draw_pulls draws node v's targets,
// answer indices and response-loss gaps from v's private stream, against
// the stores as they stood at the start of the round (read-only until
// delivery).  So the whole sampler runs in the engines' stage A, on any
// thread or shard worker, and one definition serves the live
// gossip::NodeStore and a shard worker's decoded shard::StoreSnapshot.
//
// `strict` toggles the theory-faithful failure rule.  With strict = false
// (the default used to reproduce the paper's experiments) a short sample is
// returned as-is: on instances with |H| < target the returned R is simply
// all elements seen, which reproduces the Figure 2 observation that
// instances below 2^8 points finish in one round.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gossip/codec.hpp"
#include "gossip/mailbox.hpp"
#include "gossip/network.hpp"
#include "shard/wire.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace lpt::core {

/// distinct_key(e) -> uint64 is the ADL customization point that unlocks
/// the hash-based dedupe fast path in select_distinct_into (it must be
/// consistent with operator==: equal elements, equal keys).  Elements
/// without one fall back to sort + unique.  The built-in overloads are
/// exact-type constrained so no element reaches them through a lossy
/// implicit conversion.
template <std::same_as<std::uint32_t> T>
std::uint64_t distinct_key(T v) noexcept {
  std::uint64_t h =
      (static_cast<std::uint64_t>(v) + 1) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 31);
}

template <std::same_as<double> T>
std::uint64_t distinct_key(T d) noexcept {
  // Normalize -0.0 so the key stays consistent with operator==.
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(d == 0.0 ? 0.0 : d);
  std::uint64_t h = (bits + 1) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 31);
}

namespace detail {

template <typename Element>
concept HasDistinctKey = requires(const Element& e) {
  { distinct_key(e) } -> std::convertible_to<std::uint64_t>;
};

/// Compact `responses` to its distinct elements (arrival order preserved)
/// via open addressing; returns the distinct count.  O(k) expected versus
/// the O(k log k) sort with its branchy element comparisons — the dedupe
/// sat at ~20% of whole-simulation profiles before this path existed.
template <typename Element>
std::size_t dedupe_hashed(std::span<Element> responses) {
  // Epoch-stamped slots: a slot is live only if its upper bits match the
  // current call's epoch, so the table never needs clearing.  Each slot
  // packs (epoch << 32) | (compacted index + 1).
  static thread_local std::vector<std::uint64_t> slots;
  static thread_local std::uint64_t epoch = 0;
  const std::size_t cap =
      std::bit_ceil(std::max<std::size_t>(16, responses.size() * 2));
  if (slots.size() < cap) {
    slots.assign(cap, 0);
    epoch = 0;
  }
  ++epoch;
  if (epoch >> 32 != 0) {  // epoch space exhausted: hard reset
    slots.assign(slots.size(), 0);
    epoch = 1;
  }
  const std::uint64_t tag = epoch << 32;
  const std::uint64_t mask = slots.size() - 1;
  // Pass 1: hash everything in a dependency-free loop (the superscalar
  // core pipelines these); pass 2 probes with the precomputed keys.
  static thread_local std::vector<std::uint64_t> keys;
  keys.resize(responses.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    keys[i] = distinct_key(responses[i]);
  }
  std::size_t w = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    std::uint64_t pos = keys[i] & mask;
    for (;;) {
      const std::uint64_t s = slots[pos];
      if ((s >> 32) != epoch) {
        slots[pos] = tag | (w + 1);
        responses[w++] = responses[i];
        break;
      }
      if (responses[(s & 0xffffffffULL) - 1] == responses[i]) break;  // dup
      pos = (pos + 1) & mask;
    }
  }
  return w;
}

}  // namespace detail

struct SamplerConfig {
  std::size_t target = 0;   // 6d^2 for Clarkson engines; r for Algorithm 6
  double c = 2.0;           // the "sufficiently large constant" c
  std::size_t log_n = 1;    // the nodes' (constant-factor) estimate of log n
  bool strict = false;      // fail on short samples (theory mode)

  std::size_t pulls_per_node() const noexcept {
    const double s = c * (static_cast<double>(target) +
                          static_cast<double>(log_n));
    return static_cast<std::size_t>(s) + 1;
  }
};

/// What every Section 2.1 pull of one round sees besides the puller's own
/// stream: targets are uniform over [0, nodes); a target whose `asleep`
/// flag is set answers nothing (an empty span: nobody sleeps), and an awake
/// target's answer is lost with probability `response_loss`.
struct PullRound {
  std::size_t nodes = 0;
  std::span<const std::uint8_t> asleep;
  double response_loss = 0.0;
};

/// The current round of `net`, as its pulls see it.
inline PullRound pull_round(const gossip::Network& net) noexcept {
  PullRound r;
  r.nodes = net.size();
  if (net.asleep_count() > 0) r.asleep = net.asleep_flags();
  r.response_loss = net.faults().response_loss;
  return r;
}

/// A read-only view of every node's multiset that can answer pulls:
/// gossip::NodeStore and shard::StoreSnapshot.
template <typename S, typename Element>
concept PullStore = requires(const S& s, gossip::NodeId v, std::size_t i) {
  { s.size(v) } -> std::convertible_to<std::size_t>;
  { s.elem(v, i) } -> std::convertible_to<const Element&>;
  { s.view(v) } -> std::convertible_to<std::span<const Element>>;
};

/// Per-thread scratch of draw_pulls.  Both buffers keep their capacity, so
/// the steady state allocates nothing.
template <typename Element>
struct PullBuffer {
  std::vector<gossip::NodeId> targets;
  std::vector<Element> responses;
};

/// One node's `pulls` pulls, drawn from the puller's own stream `rng`: all
/// targets first, then per target in order the response-loss gap (only
/// under loss, as geometric gaps) and the answer index below(size).  Asleep
/// targets and empty stores answer nothing and draw nothing.  Returns the
/// answers in pull order — a view into buf.responses, valid until the next
/// call, which the caller may reorder in place (selection does).
template <typename Element, PullStore<Element> Store>
std::span<Element> draw_pulls(const Store& store, const PullRound& round,
                              std::size_t pulls, util::Rng& rng,
                              PullBuffer<Element>& buf) {
  util::Rng r = rng;  // a local copy keeps the stream state in registers
  buf.targets.resize(pulls);
  for (gossip::NodeId& t : buf.targets) {
    t = static_cast<gossip::NodeId>(r.below(round.nodes));
  }
  buf.responses.clear();
  auto answer = [&](gossip::NodeId t) {
    const std::size_t sz = store.size(t);
    if (sz != 0) buf.responses.push_back(store.elem(t, r.below(sz)));
  };
  const double p = round.response_loss;
  if (round.asleep.empty() && !(p > 0.0)) {
    for (const gossip::NodeId t : buf.targets) answer(t);
  } else {
    gossip::LossStream loss;
    for (const gossip::NodeId t : buf.targets) {
      if (!round.asleep.empty() && round.asleep[t]) continue;
      if (p > 0.0 && loss.drop(r, p)) continue;  // answer lost
      answer(t);
    }
  }
  rng = r;
  return buf.responses;
}

/// Wire bytes of a batch of pull answers (the responders' traffic, which
/// the engines meter on the coordinator).
template <typename Element>
std::uint64_t pull_response_bytes(std::span<const Element> responses) {
  using gossip::wire_size;
  std::uint64_t bytes = 0;
  for (const Element& x : responses) bytes += wire_size(x);
  return bytes;
}

/// The shared part of a shard task frame: one round's pull inputs, encoded
/// once per frame.  Schema: f64 response_loss · the sleeping nodes as a
/// sorted u32 seq · shard::put_store_snapshot(store).  `sleeping` is
/// scratch for the sort.  Kept out of line: inlined into a caller that has
/// just written a fixed-size header, GCC 12 reports a false
/// -Wstringop-overflow inside the encoder's vector growth.
template <typename Store>
[[gnu::noinline]] void put_pull_inputs(gossip::Encoder& e,
                                       const gossip::Network& net,
                                       const Store& store,
                                       std::vector<gossip::NodeId>& sleeping) {
  e.put_f64(net.faults().response_loss);
  sleeping.assign(net.sleeping().begin(), net.sleeping().end());
  std::sort(sleeping.begin(), sleeping.end());
  shard::put_seq(e, std::span<const gossip::NodeId>(sleeping));
  shard::put_store_snapshot(e, store);
}

/// A shard worker's decoded put_pull_inputs: the snapshot that answers the
/// shard's pulls and the round they see.  Buffers keep their capacity.
template <typename Element>
class RemotePullInputs {
 public:
  void decode(gossip::Decoder& d) {
    round_.response_loss = d.get_f64();
    shard::get_seq(d, sleeping_);
    store_.decode(d);
    const std::size_t n = store_.nodes();
    asleep_.assign(n, 0);
    for (const gossip::NodeId v : sleeping_) {
      LPT_CHECK_MSG(v < n, "shard wire: sleeping node out of range");
      asleep_[v] = 1;
    }
    round_.nodes = n;
    round_.asleep = sleeping_.empty() ? std::span<const std::uint8_t>{}
                                      : std::span<const std::uint8_t>(asleep_);
  }

  const shard::StoreSnapshot<Element>& store() const noexcept {
    return store_;
  }
  const PullRound& round() const noexcept { return round_; }

 private:
  shard::StoreSnapshot<Element> store_;
  std::vector<gossip::NodeId> sleeping_;
  std::vector<std::uint8_t> asleep_;
  PullRound round_;
};

/// Outcome of one node's sampling attempt.
template <typename Element>
struct SampleOutcome {
  std::vector<Element> sample;  // R_i (empty on failure)
  bool success = false;
};

/// Select `target` distinct elements at random from the pull responses,
/// clobbering `responses` and writing into `out` (both buffers keep their
/// capacity, so the per-round steady state allocates nothing).  Dedupe is
/// hash-based when the element provides distinct_key() (O(k)), else
/// sort + unique; a partial Fisher–Yates pass then randomizes the
/// selection as the paper prescribes ("selects 6d^2 distinct elements at
/// random") with O(target) RNG draws instead of a full shuffle.
template <typename Element>
void select_distinct_into(std::span<Element> responses, std::size_t target,
                          util::Rng& rng, bool strict,
                          SampleOutcome<Element>& out);  // defined below

/// Vector overload (clobbers `responses`' order, keeps its capacity).
template <typename Element>
void select_distinct_into(std::vector<Element>& responses, std::size_t target,
                          util::Rng& rng, bool strict,
                          SampleOutcome<Element>& out) {
  select_distinct_into(std::span<Element>(responses), target, rng, strict,
                       out);
}

/// Zero-copy view of one sampling attempt: `sample` aliases a prefix of the
/// (reordered) `responses` buffer and is valid only until that buffer is
/// next written.  `randomized` reports whether the sample's order went
/// through the Fisher–Yates pass (lenient short samples keep their dedupe
/// order and are NOT uniformly ordered — callers relying on random input
/// order, e.g. shuffle-free Welzl, must check it).
template <typename Element>
struct SampleView {
  std::span<const Element> sample;
  bool success = false;
  bool randomized = false;
};

/// Like select_distinct_into but without materializing the sample: the
/// returned view points into `responses`.  Used by the engines' hot path,
/// where the sample is consumed by one local solve and discarded.
template <typename Element>
SampleView<Element> select_distinct_view(std::span<Element> responses,
                                         std::size_t target, util::Rng& rng,
                                         bool strict) {
  SampleView<Element> out;
  std::size_t m;
  if constexpr (detail::HasDistinctKey<Element>) {
    m = detail::dedupe_hashed(responses);
  } else {
    std::sort(responses.begin(), responses.end());
    m = static_cast<std::size_t>(
        std::unique(responses.begin(), responses.end()) - responses.begin());
  }
  if (m >= target) {
    for (std::size_t i = 0; i < target; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(rng.below(m - i));
      using std::swap;
      swap(responses[i], responses[j]);
    }
    out.sample = responses.first(target);
    out.success = true;
    out.randomized = true;
    return out;
  }
  if (strict) return out;
  // Lenient mode: everything seen (small-instance behaviour of Figure 2).
  out.sample = responses.first(m);
  out.success = m > 0;
  return out;
}

template <typename Element>
void select_distinct_into(std::span<Element> responses, std::size_t target,
                          util::Rng& rng, bool strict,
                          SampleOutcome<Element>& out) {
  const SampleView<Element> view =
      select_distinct_view(responses, target, rng, strict);
  out.success = view.success;
  out.sample.assign(view.sample.begin(), view.sample.end());
}

/// Value-returning convenience wrapper.
template <typename Element>
SampleOutcome<Element> select_distinct(std::vector<Element> responses,
                                       std::size_t target, util::Rng& rng,
                                       bool strict) {
  SampleOutcome<Element> out;
  select_distinct_into(responses, target, rng, strict, out);
  return out;
}

}  // namespace lpt::core
