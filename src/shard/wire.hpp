// Wire messages for the shard runtime, framed with the gossip codec.
//
// The coordinator/worker protocol is a strict request/response lockstep per
// simulated round.  Every worker first receives a *bootstrap* frame: the
// run-static problem description (the problem instance, the engine's
// constants), re-sent to every respawned replacement, so no worker relies
// on state inherited at fork time.  Then per round the coordinator sends
// each worker one stage-A *task* frame carrying the round's read-only pull
// inputs (a snapshot of every node's store, the sleeping nodes, the
// response-loss rate) once, then per node of the worker's shard only its
// flags and private RNG state — the worker draws each node's pulls from
// that stream against the snapshot (core/sampling.hpp) — and the worker
// answers with one stage-A *result* frame carrying per node its flags, its
// advanced RNG state (the coordinator's filter pass and the next round's
// stage A continue those streams, so they must round-trip exactly) and the
// engine's payload, then the shard's response bytes.  A shutdown frame
// ends the worker loop.  core/stage_a.hpp owns the task and result layout
// for every engine.
//
// Framing: every frame is a u32 little-endian payload length followed by
// the payload; the payload's first byte is the MsgType.  Length prefixes
// past kMaxFrameBytes are rejected (a garbage or truncated stream otherwise
// turns into an attempted multi-gigabyte allocation).
//
// Element and solution payloads go through the `wire_put` / `wire_get`
// customization point (ADL): overloads for the built-in gossiped element
// types live here; problem-specific solution overloads live next to the
// problem type (e.g. MinDiskSolution in problems/min_disk.hpp), as do the
// problem instances' bootstrap codecs (WirableInstance below).  Sequences
// are u32-length-prefixed directly rather than via Encoder::put_sequence —
// a node's local multiset is bounded by the simulation, not by the gossip
// model's O(log n)-bit message limit, so the codec's 2^16 sequence guard
// does not apply to shard frames.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "geometry/vec2.hpp"
#include "gossip/codec.hpp"
#include "gossip/metrics.hpp"
#include "lp/halfplane.hpp"
#include "util/assert.hpp"
#include "util/distinct_key.hpp"
#include "util/rng.hpp"

namespace lpt::shard {

/// First payload byte of every frame.
enum class MsgType : std::uint8_t {
  kStageATask = 1,
  kStageAResult = 2,
  kShutdown = 3,
  kBootstrap = 4,  // the run-static problem description, shipped to
                   // every worker before its first task, so no worker
                   // inherits anything via fork.  Sent once after spawn and
                   // again after every respawn; the payload schema is the
                   // engine's (see e.g. core/low_load.hpp bootstrap codec),
                   // opaque to the runtime.
};

/// Upper bound on a frame payload; recv rejects longer length prefixes.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 28;  // 256 MiB

inline void put_msg_type(gossip::Encoder& e, MsgType t) {
  e.put_u8(static_cast<std::uint8_t>(t));
}

inline MsgType get_msg_type(gossip::Decoder& d) {
  const std::uint8_t t = d.get_u8();
  LPT_CHECK_MSG(t >= 1 && t <= 4, "shard wire: unknown message type");
  return static_cast<MsgType>(t);
}

// --- wire_put / wire_get: the per-type payload customization point. ------
//
// Overloads must be exact round-trips (encode then decode reproduces the
// value bit-for-bit): the shard runtime's bit-identity guarantee rides on
// RNG states, elements, and solutions surviving the wire unchanged.

inline void wire_put(gossip::Encoder& e, std::uint32_t v) { e.put_u32(v); }
inline void wire_get(gossip::Decoder& d, std::uint32_t& v) { v = d.get_u32(); }

inline void wire_put(gossip::Encoder& e, const geom::Vec2& p) { e.put(p); }
inline void wire_get(gossip::Decoder& d, geom::Vec2& p) { p = d.get_vec2(); }

inline void wire_put(gossip::Encoder& e, const lp::Halfplane& h) { e.put(h); }
inline void wire_get(gossip::Decoder& d, lp::Halfplane& h) {
  h = d.get_halfplane();
}

// A node's private xoshiro256** stream is consumed on both sides of the
// process boundary (stage A on the worker, the filter pass and later
// rounds on the coordinator), so each round ships the state out with the
// task and back with the result.  util::RngState is the engine's complete
// serializable state; the round-trip is exact by construction (fixed-width
// words through the little-endian codec).

inline void wire_put(gossip::Encoder& e, const util::RngState& s) {
  for (const std::uint64_t w : s.words) e.put_u64(w);
  e.put_f64(s.normal_spare);
  e.put_u8(s.has_normal_spare ? 1 : 0);
}

inline void wire_get(gossip::Decoder& d, util::RngState& s) {
  for (std::uint64_t& w : s.words) w = d.get_u64();
  s.normal_spare = d.get_f64();
  s.has_normal_spare = d.get_u8() != 0;
}

/// A type is Wirable when wire_put/wire_get overloads are visible (here or
/// via ADL next to the type).  The engines use this to gate the sharded
/// code path at compile time: problems without wire codecs still compile
/// and simply run the in-process paths.
template <typename T>
concept Wirable = requires(gossip::Encoder& e, gossip::Decoder& d, const T& cv,
                           T& v) {
  wire_put(e, cv);
  wire_get(d, v);
};

/// A problem instance travels in a shard worker's bootstrap frame when an
/// instance codec is visible (via ADL, next to the type): wire_put(e, p)
/// writes it and wire_make(d, std::type_identity<P>{}) builds an equal one
/// (problems need not be default-constructible).  Like Wirable, it gates
/// the sharded path at compile time.
template <typename P>
concept WirableInstance = requires(gossip::Encoder& e, gossip::Decoder& d,
                                   const P& p) {
  wire_put(e, p);
  { wire_make(d, std::type_identity<P>{}) } -> std::same_as<P>;
};

/// Encoded bytes of one wire element.  Exact for the fixed-size built-in
/// types; 1 — a conservative lower bound — for variable-size types (their
/// sequences are additionally bounded by the post-encode byte check in
/// put_seq).  The sequence guards below are sized in *bytes*, not element
/// counts: a count-based cap would let a sequence of multi-byte elements
/// blow past the frame limit while passing the check.
template <typename T>
inline constexpr std::size_t kWireElemBytes = 1;
template <>
inline constexpr std::size_t kWireElemBytes<std::uint32_t> =
    gossip::kWireBytesElementId;
template <>
inline constexpr std::size_t kWireElemBytes<geom::Vec2> =
    gossip::kWireBytesVec2;
template <>
inline constexpr std::size_t kWireElemBytes<lp::Halfplane> =
    gossip::kWireBytesHalfplane;
template <>
inline constexpr std::size_t kWireElemBytes<util::RngState> =
    4 * sizeof(std::uint64_t) + sizeof(double) + 1;

/// u32-length-prefixed sequence of Wirable values (no 2^16 cap; see above).
/// Bounded by *encoded bytes* against `max_bytes` (default: the frame cap;
/// parameterized so tests can exercise the guard without 256 MiB inputs):
/// a pre-encode element-size-aware check fails before a doomed sequence is
/// encoded, and a post-encode check catches variable-size element types
/// whose lower bound was optimistic.
template <Wirable T>
void put_seq(gossip::Encoder& e, std::span<const T> xs,
             std::size_t max_bytes = kMaxFrameBytes) {
  LPT_CHECK_MSG(
      xs.size() <= (max_bytes - sizeof(std::uint32_t)) / kWireElemBytes<T>,
      "shard wire: sequence exceeds the frame byte budget");
  const std::size_t start = e.size();
  e.put_u32(static_cast<std::uint32_t>(xs.size()));
  for (const T& x : xs) wire_put(e, x);
  LPT_CHECK_MSG(e.size() - start <= max_bytes,
                "shard wire: sequence exceeds the frame byte budget");
}

template <Wirable T>
void get_seq(gossip::Decoder& d, std::vector<T>& out) {
  const std::uint32_t len = d.get_u32();
  // Every element occupies at least kWireElemBytes<T> payload bytes, so a
  // length prefix beyond the remaining bytes is corrupt — reject it before
  // reserve() turns it into a giant allocation.
  LPT_CHECK_MSG(len <= d.remaining() / kWireElemBytes<T>,
                "shard wire: sequence too long");
  out.clear();
  out.reserve(len);
  for (std::uint32_t i = 0; i < len; ++i) {
    T x;
    wire_get(d, x);
    out.push_back(x);
  }
}

// --- Store snapshots: every node's multiset, read-only in stage A. -------

/// Encode a read-only snapshot of every node's multiset.  `store` is any
/// store with nodes() and view(v) (gossip::NodeStore).  Schema: u32 n ·
/// n x u32 per-node size · all elements, node-major, each via wire_put.
template <typename Store>
void put_store_snapshot(gossip::Encoder& e, const Store& store) {
  const std::size_t n = store.nodes();
  e.put_u32(static_cast<std::uint32_t>(n));
  for (std::size_t v = 0; v < n; ++v) {
    e.put_u32(static_cast<std::uint32_t>(
        store.view(static_cast<gossip::NodeId>(v)).size()));
  }
  for (std::size_t v = 0; v < n; ++v) {
    for (const auto& x : store.view(static_cast<gossip::NodeId>(v))) {
      wire_put(e, x);
    }
  }
}

/// Every node's multiset as it stood at the start of a round, in flat
/// buffers that keep their capacity: the one store type stage A reads.
/// In-process runs assign() it from the live gossip::NodeStore once per
/// round; shard workers decode() a put_store_snapshot.
///
/// Node v's elements sit in the slots [offsets()[v], offsets()[v + 1]),
/// in the live store's order.  For element types with a util::distinct_key,
/// building also gives every slot a dense id, one hash per stored element:
/// slots holding equal elements (operator==) share an id in
/// [1, id_count()), and an element that does not equal itself (a NaN
/// coordinate) gets id 0, which the sampler never deduplicates.
template <typename T>
class StoreSnapshot {
 public:
  std::size_t nodes() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::size_t size(gossip::NodeId v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }
  std::span<const T> view(gossip::NodeId v) const noexcept {
    return {elems_.data() + offsets_[v], size(v)};
  }
  /// n + 1 slot offsets: node v owns [offsets()[v], offsets()[v + 1]).
  std::span<const std::uint32_t> offsets() const noexcept { return offsets_; }
  const T& at(std::uint32_t slot) const noexcept { return elems_[slot]; }
  /// Per-slot dense ids (empty for element types without distinct_key).
  std::span<const std::uint32_t> ids() const noexcept { return ids_; }
  /// Every id is below id_count().
  std::size_t id_count() const noexcept { return id_count_; }

  /// Replace the contents with `store`'s current multisets.
  template <typename Store>
  void assign(const Store& store) {
    const std::size_t n = store.nodes();
    offsets_.resize(n + 1);
    elems_.clear();
    for (std::size_t v = 0; v < n; ++v) {
      offsets_[v] = static_cast<std::uint32_t>(elems_.size());
      const auto xs = store.view(static_cast<gossip::NodeId>(v));
      elems_.insert(elems_.end(), xs.begin(), xs.end());
    }
    LPT_CHECK_MSG(elems_.size() <= 0xffffffffu,
                  "StoreSnapshot: more elements than 32-bit slots");
    offsets_[n] = static_cast<std::uint32_t>(elems_.size());
    assign_ids();
  }

  /// Replace the contents with one encoded snapshot.  Length fields are
  /// checked against the bytes remaining before anything is reserved.
  void decode(gossip::Decoder& d)
    requires Wirable<T>
  {
    const std::uint32_t n = d.get_u32();
    LPT_CHECK_MSG(n <= d.remaining() / sizeof(std::uint32_t),
                  "shard wire: store snapshot too long");
    offsets_.resize(std::size_t{n} + 1);
    offsets_[0] = 0;
    std::uint64_t total = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
      total += d.get_u32();
      LPT_CHECK_MSG(total <= d.remaining() / kWireElemBytes<T>,
                    "shard wire: store snapshot too long");
      offsets_[v + 1] = static_cast<std::uint32_t>(total);
    }
    elems_.resize(static_cast<std::size_t>(total));
    for (T& x : elems_) wire_get(d, x);
    assign_ids();
  }

 private:
  /// Open addressing over the slots: table_ holds a representative slot + 1
  /// per distinct value (0: empty), at load factor <= 1/2.
  void assign_ids() {
    if constexpr (util::HasDistinctKey<T>) {
      const std::size_t total = elems_.size();
      ids_.resize(total);
      const std::size_t cap =
          std::bit_ceil(std::max<std::size_t>(16, 2 * total));
      table_.assign(cap, 0);
      const std::size_t mask = cap - 1;
      std::uint32_t next = 1;
      for (std::size_t s = 0; s < total; ++s) {
        const T& x = elems_[s];
        if (!(x == x)) {
          ids_[s] = 0;
          continue;
        }
        using util::distinct_key;
        for (std::size_t pos = distinct_key(x) & mask;;
             pos = (pos + 1) & mask) {
          const std::uint32_t rep = table_[pos];
          if (rep == 0) {
            table_[pos] = static_cast<std::uint32_t>(s + 1);
            ids_[s] = next++;
            break;
          }
          if (elems_[rep - 1] == x) {
            ids_[s] = ids_[rep - 1];
            break;
          }
        }
      }
      id_count_ = next;
    }
  }

  std::vector<std::uint32_t> offsets_;  // node v's slots: [off[v], off[v+1])
  std::vector<T> elems_;
  std::vector<std::uint32_t> ids_;    // per slot
  std::vector<std::uint32_t> table_;  // assign_ids' scratch
  std::size_t id_count_ = 1;
};

// --- RNG stream state convenience wrappers. ------------------------------

inline void put_rng(gossip::Encoder& e, const util::Rng& rng) {
  wire_put(e, rng.state());
}

inline void get_rng(gossip::Decoder& d, util::Rng& rng) {
  util::RngState s;
  wire_get(d, s);
  rng.set_state(s);
}

// --- Per-node stage-A flags shared by the engines. ------------------------
//
// Task frames and result frames both walk the shard's node range in
// ascending order with one flag byte per node (core/stage_a.hpp); the flag
// bits say what the node did and which optional fields follow.

namespace nodeflag {
inline constexpr std::uint8_t kActive = 1u << 0;   // node runs stage A
inline constexpr std::uint8_t kReplay = 1u << 1;   // node needs stage-B replay
inline constexpr std::uint8_t kSolution = 1u << 2; // a solution payload follows
inline constexpr std::uint8_t kWinner = 1u << 3;   // hitting set: R_i wins
inline constexpr std::uint8_t kFailed = 1u << 4;   // the node's sample failed
inline constexpr std::uint8_t kFirst = 1u << 5;    // low load: first optimum
}  // namespace nodeflag

}  // namespace lpt::shard
