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
// thread or shard worker.  It reads one store type, the flat round-start
// shard::StoreSnapshot: in-process runs build it from the live
// gossip::NodeStore once per round, shard workers decode it from the task
// frame.  An answer is a snapshot slot, and selection deduplicates by the
// snapshot's dense per-value ids (select_distinct_answers), so a round
// hashes each stored element once instead of every pull answer.
//
// `strict` toggles the theory-faithful failure rule.  With strict = false
// (the default used to reproduce the paper's experiments) a short sample is
// returned as-is: on instances with |H| < target the returned R is simply
// all elements seen, which reproduces the Figure 2 observation that
// instances below 2^8 points finish in one round.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "gossip/codec.hpp"
#include "gossip/mailbox.hpp"
#include "gossip/network.hpp"
#include "shard/wire.hpp"
#include "util/assert.hpp"
#include "util/distinct_key.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace lpt::core {

namespace detail {

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
  using util::distinct_key;
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

/// Per-thread scratch of draw_pulls and select_distinct_answers.  Every
/// buffer keeps its capacity, so the steady state allocates nothing.
template <typename Element>
struct PullBuffer {
  std::vector<gossip::NodeId> targets;  // the fault paths' targets
  std::vector<std::uint32_t> answers;   // answer slots
  std::vector<std::uint32_t> draw_at;   // fault-free deferred draws: the
  std::vector<std::uint32_t> draw_size; // answer they complete, its size
  std::vector<Element> sample;          // the gathered sample
  std::vector<std::uint32_t> stamps;    // epoch-stamped, indexed by id
  std::uint32_t epoch = 0;
};

/// One node's `pulls` pulls, drawn from the puller's own stream `rng`: all
/// targets first, then per target in order the response-loss gap (only
/// under loss, as geometric gaps) and the answer index below(size).  Asleep
/// targets and empty stores answer nothing and draw nothing.  Returns the
/// answers in pull order as slots of `store` — a view into buf.answers,
/// valid until the next call, which selection reorders in place.
template <typename Element>
std::span<std::uint32_t> draw_pulls(const shard::StoreSnapshot<Element>& store,
                                    const PullRound& round, std::size_t pulls,
                                    util::Rng& rng, PullBuffer<Element>& buf) {
  util::Rng r = rng;  // a local copy keeps the stream state in registers
  for (auto* v : {&buf.targets, &buf.answers, &buf.draw_at, &buf.draw_size}) {
    if (v->size() < pulls) v->resize(pulls);
  }
  const std::uint32_t* off = store.offsets().data();
  std::uint32_t* out = buf.answers.data();
  std::size_t w = 0;
  const double p = round.response_loss;
  if (round.asleep.empty() && !(p > 0.0)) {
    // Every target answers, and store sizes of 0, 1 and 2 defeat a branch
    // predictor, so the target loop takes no branch on the size: it writes
    // the store's first slot, advances the write index only when the size
    // is non-zero, and queues the answer's below(size) only when the size
    // exceeds 1 (below draws nothing otherwise).  The queued draws then run
    // in target order after the last target draw: the stream the loop
    // below draws when nothing sleeps or is lost.  An empty store's slot is
    // written past the kept answers and never read.
    std::uint32_t* at = buf.draw_at.data();
    std::uint32_t* size_at = buf.draw_size.data();
    std::size_t k = 0;
    for (std::size_t i = 0; i < pulls; ++i) {
      const auto t = static_cast<gossip::NodeId>(r.below(round.nodes));
      const std::uint32_t base = off[t];
      const std::uint32_t size = off[t + 1] - base;
      out[w] = base;
      at[k] = static_cast<std::uint32_t>(w);
      size_at[k] = size;
      k += size > 1;
      w += size != 0;
    }
    for (std::size_t j = 0; j < k; ++j) {
      out[at[j]] += static_cast<std::uint32_t>(r.below(size_at[j]));
    }
  } else {
    const std::span<gossip::NodeId> targets(buf.targets.data(), pulls);
    for (gossip::NodeId& t : targets) {
      t = static_cast<gossip::NodeId>(r.below(round.nodes));
    }
    gossip::LossStream loss;
    for (const gossip::NodeId t : targets) {
      if (!round.asleep.empty() && round.asleep[t]) continue;
      if (p > 0.0 && loss.drop(r, p)) continue;  // answer lost
      const std::uint32_t size = off[t + 1] - off[t];
      if (size != 0) {
        out[w++] = off[t] + static_cast<std::uint32_t>(r.below(size));
      }
    }
  }
  rng = r;
  return {out, w};
}

/// Wire bytes of a node's pull answers, given as slots of `store` (the
/// responders' traffic, which the engines meter on the coordinator).
template <typename Element>
std::uint64_t pull_response_bytes(const shard::StoreSnapshot<Element>& store,
                                  std::span<const std::uint32_t> answers) {
  using gossip::wire_size;
  std::uint64_t bytes = 0;
  for (const std::uint32_t slot : answers) bytes += wire_size(store.at(slot));
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
/// returned view points into `responses`.  The engines select by id
/// (select_distinct_answers), which falls back to this for element types
/// without a distinct_key; the hashed path is the id path's reference.
template <typename Element>
SampleView<Element> select_distinct_view(std::span<Element> responses,
                                         std::size_t target, util::Rng& rng,
                                         bool strict) {
  SampleView<Element> out;
  std::size_t m;
  if constexpr (util::HasDistinctKey<Element>) {
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

/// select_distinct_view over a node's pull answers given as slots of
/// `store` (reordered in place), deduplicating by the snapshot's dense ids
/// instead of hashing values: the first answer of each id is kept, in
/// arrival order, with the per-thread epoch-stamped array in `buf` (id 0
/// is never a duplicate); the same Fisher–Yates draws then run on the
/// slots, and the chosen elements are gathered into buf.sample.  So the
/// sample, its order, its exact bits (0.0 and -0.0 share an id, and the
/// first answer's bits are kept) and the RNG draws are those of
/// select_distinct_view on the answers' values.  Element types without a
/// distinct_key gather every answer and take select_distinct_view's
/// sort + unique path.  The view points into buf.sample.
template <typename Element>
SampleView<Element> select_distinct_answers(
    const shard::StoreSnapshot<Element>& store,
    std::span<std::uint32_t> answers, std::size_t target, util::Rng& rng,
    bool strict, PullBuffer<Element>& buf) {
  auto gather = [&](std::size_t k) {
    if (buf.sample.size() < k) buf.sample.resize(k);
    for (std::size_t i = 0; i < k; ++i) buf.sample[i] = store.at(answers[i]);
    return std::span<const Element>(buf.sample.data(), k);
  };
  if constexpr (!util::HasDistinctKey<Element>) {
    gather(answers.size());
    return select_distinct_view(
        std::span<Element>(buf.sample.data(), answers.size()), target, rng,
        strict);
  } else {
    if (buf.stamps.size() < store.id_count()) {
      buf.stamps.assign(store.id_count(), 0);
      buf.epoch = 0;
    }
    if (++buf.epoch == 0) {  // epoch space exhausted: hard reset
      std::fill(buf.stamps.begin(), buf.stamps.end(), 0u);
      buf.epoch = 1;
    }
    const std::uint32_t* id_of = store.ids().data();
    std::uint32_t* stamp = buf.stamps.data();
    const std::uint32_t epoch = buf.epoch;
    std::size_t m = 0;
    for (const std::uint32_t slot : answers) {
      const std::uint32_t id = id_of[slot];
      const bool fresh = (stamp[id] != epoch) | (id == 0);
      stamp[id] = epoch;
      answers[m] = slot;
      m += fresh;
    }
    SampleView<Element> out;
    if (m >= target) {
      for (std::size_t i = 0; i < target; ++i) {
        const std::size_t j = i + static_cast<std::size_t>(rng.below(m - i));
        std::swap(answers[i], answers[j]);
      }
      out.sample = gather(target);
      out.success = true;
      out.randomized = true;
      return out;
    }
    if (strict) return out;
    out.sample = gather(m);
    out.success = m > 0;
    return out;
  }
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
