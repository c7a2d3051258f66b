// Wire messages for the shard runtime, framed with the gossip codec.
//
// The coordinator/worker protocol is a strict request/response lockstep per
// simulated round: the coordinator sends each worker one stage-A *task*
// frame carrying the round's read-only pull inputs (a snapshot of every
// node's store, the sleeping nodes, the response-loss rate) once, then per
// node of the worker's shard only its flags and private RNG state — the
// worker draws each node's pulls from that stream against the snapshot
// (core/sampling.hpp) — and the worker answers with one stage-A *result*
// frame carrying the shard's ascending-node-order stage-B candidate list,
// sampler counters and response bytes, per-node violator/push payloads,
// solutions where stage B will need them, and the advanced per-node RNG
// states (the coordinator's filter pass and the next round's stage A
// continue those streams, so they must round-trip exactly).  A shutdown
// frame ends the worker loop.  Workers that inherit nothing via fork (the
// socket transport's, or any remotely launched worker) are sent a
// *bootstrap* frame before their first task: the run-static problem
// description (problem elements, oracle solution, sampler constants),
// re-sent to every respawned replacement.
//
// Framing: every frame is a u32 little-endian payload length followed by
// the payload; the payload's first byte is the MsgType.  Length prefixes
// past kMaxFrameBytes are rejected (a garbage or truncated stream otherwise
// turns into an attempted multi-gigabyte allocation).
//
// Element and solution payloads go through the `wire_put` / `wire_get`
// customization point (ADL): overloads for the built-in gossiped element
// types live here; problem-specific solution overloads live next to the
// problem type (e.g. MinDiskSolution in problems/min_disk.hpp).  Sequences
// are u32-length-prefixed directly rather than via Encoder::put_sequence —
// a node's local multiset is bounded by the simulation, not by the gossip
// model's O(log n)-bit message limit, so the codec's 2^16 sequence guard
// does not apply to shard frames.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/vec2.hpp"
#include "gossip/codec.hpp"
#include "lp/halfplane.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace lpt::shard {

/// First payload byte of every frame.
enum class MsgType : std::uint8_t {
  kStageATask = 1,
  kStageAResult = 2,
  kShutdown = 3,
  kBootstrap = 4,  // the run-static problem description, shipped to a
                   // worker before its first task so a worker need not
                   // inherit anything via fork (socket workers; any
                   // remotely launched worker).  Sent once after spawn and
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

// --- Store snapshots: every node's multiset, read-only on a worker. ------

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

/// A decoded put_store_snapshot: the read API of gossip::NodeStore (size,
/// elem, view) over flat buffers that keep their capacity across decodes.
template <Wirable T>
class StoreSnapshot {
 public:
  std::size_t nodes() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::size_t size(gossip::NodeId v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }
  const T& elem(gossip::NodeId v, std::size_t i) const noexcept {
    return elems_[offsets_[v] + i];
  }
  std::span<const T> view(gossip::NodeId v) const noexcept {
    return {elems_.data() + offsets_[v], size(v)};
  }

  /// Replace the contents with one encoded snapshot.  Length fields are
  /// checked against the bytes remaining before anything is reserved.
  void decode(gossip::Decoder& d) {
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
  }

 private:
  std::vector<std::uint32_t> offsets_;  // node v's slice: [off[v], off[v+1])
  std::vector<T> elems_;
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

// --- Per-node stage-A framing shared by the engines. ---------------------
//
// Task frames and result frames both walk the shard's node range in
// ascending order with one flag byte per node; the flag bits say which
// optional fields follow.  Keeping the schema in one place (rather than
// per-engine ad hoc framing) is what the codec round-trip tests pin.

namespace nodeflag {
inline constexpr std::uint8_t kActive = 1u << 0;   // node runs stage A
inline constexpr std::uint8_t kReplay = 1u << 1;   // node needs stage-B replay
inline constexpr std::uint8_t kSolution = 1u << 2; // a solution payload follows
inline constexpr std::uint8_t kWinner = 1u << 3;   // hitting set: R_i wins
}  // namespace nodeflag

}  // namespace lpt::shard
