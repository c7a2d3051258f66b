// Stage A of the sampling engines (low load, hitting set) on either side
// of the shard boundary.  A round is stage A — each active node's pulls,
// sample selection and local work on its private RNG stream against the
// round-start store — then stage B, the shared-state effects replayed
// serially in ascending node order.  This header owns all of stage A that
// does not depend on the engine: the one node loop (stage_a_range, called
// by the in-process chunk loop and by the shard worker), the frame layout
// below, and StageA, which runs the loop inline, on a util::ThreadPool or
// on shard workers started from the kernel's bootstrap frame, then meters
// the pulls on the coordinator.  Chunks and frames are contiguous
// ascending ranges that stage B walks in index order, so the candidate
// stream is a serial scan's node order for any thread count, shard count
// and transport.
//
// An engine supplies a kernel K, built per round: types Element, Node (a
// node's output for stage B) and Scratch (per thread); constants
// kShardable and kChunkSpan (the chunk's trace span); `pulls`, the pulls
// every active node issues; and
//   std::uint8_t run(store, round, v, rng, scratch, first_open,
//                    response_bytes, node) const;  // one node's stage A
//   void put_round(Encoder&) const;                // the task header
//   void put_node(Encoder&, flags, const Node&) const;  // the node payload
//   void get_node(Decoder&, flags, Node&) const;
//   struct Boot {                    // a worker's run-static state
//     void put(Encoder&) const;  static Boot get(Decoder&);
//     K kernel(Decoder& task) const;  // from a task's header
//   };
// run() returns shard::nodeflag bits: kFailed, kReplay (a stage-B
// candidate), kFirst (only while first_open: the range has none yet) and
// the bits saying which payload put_node writes.
//
// Frames, after the MsgType byte (shard/wire.hpp): bootstrap = K::Boot;
// task = K's header · u32 begin · u32 end · pull inputs (put_pull_inputs)
// · per node: u8 flags (kActive or 0) · if active: the RNG state; result =
// per node: u8 flags · if active: the advanced RNG state, then put_node's
// payload — then u64 response bytes.  Attempts, failures and the kFirst
// node are read off the flags.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "core/result.hpp"
#include "core/sampling.hpp"
#include "gossip/codec.hpp"
#include "gossip/network.hpp"
#include "obs/obs.hpp"
#include "shard/plan.hpp"
#include "shard/runtime.hpp"
#include "shard/wire.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace lpt::core {

namespace detail {
inline constexpr gossip::NodeId kNoNodeId = 0xffffffffu;  // "no node"
}  // namespace detail

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

/// What stage A of one contiguous node range (a chunk in-process, a frame
/// on the shards) hands stage B.  Buffers keep their capacity.
struct ChunkAcc {
  std::vector<gossip::NodeId> replay;  // kReplay nodes, ascending
  std::uint32_t attempts = 0;          // active nodes
  std::uint32_t failures = 0;          // kFailed nodes
  gossip::NodeId first = detail::kNoNodeId;  // the kFirst node, if any
  std::uint64_t response_bytes = 0;    // the pull answers' wire bytes

  void clear() {
    replay.clear();
    attempts = failures = 0;
    first = detail::kNoNodeId;
    response_bytes = 0;
  }

  /// Account node v's result flags (0 for an inactive node).
  void add(gossip::NodeId v, std::uint8_t flags) {
    if (!(flags & shard::nodeflag::kActive)) return;
    ++attempts;
    if (flags & shard::nodeflag::kFailed) ++failures;
    if (flags & shard::nodeflag::kReplay) replay.push_back(v);
    if (flags & shard::nodeflag::kFirst) first = std::min(first, v);
  }
};

namespace detail {

/// stage_a_range's nodes in-process: `active(v)` says which run, their
/// streams are the run's own, and each node's output stays in `nodes[v]`.
template <typename Node, typename Active>
struct LocalNodes {
  Active& active;
  std::span<util::Rng> rng;
  std::span<Node> nodes;

  util::Rng* begin(gossip::NodeId v) { return active(v) ? &rng[v] : nullptr; }
  Node& node(gossip::NodeId v) { return nodes[v]; }
  void end(gossip::NodeId, std::uint8_t) {}
};

/// stage_a_range's nodes on a shard worker: each node's active flag and
/// RNG state are read off the task frame, and its result is written to the
/// result frame as soon as the kernel is done with it.
template <typename K>
struct FrameNodes {
  const K& k;
  gossip::Decoder& task;
  gossip::Encoder& result;
  util::Rng& rng;
  typename K::Node& out;

  util::Rng* begin(gossip::NodeId) {
    if (!(task.get_u8() & shard::nodeflag::kActive)) return nullptr;
    shard::get_rng(task, rng);
    return &rng;
  }
  typename K::Node& node(gossip::NodeId) { return out; }
  void end(gossip::NodeId, std::uint8_t flags) {
    result.put_u8(flags);
    if (!(flags & shard::nodeflag::kActive)) return;
    shard::put_rng(result, rng);
    k.put_node(result, flags, out);
  }
};

/// The node loop of stage A over the range `r`, for every engine and both
/// sides of the shard boundary: runs kernel `k` on each active node against
/// the round-start snapshot `store` and accounts its result flags in `acc`
/// (cleared first).  `nodes` is a LocalNodes or a FrameNodes.
template <typename K, typename Nodes>
void stage_a_range(const K& k,
                   const shard::StoreSnapshot<typename K::Element>& store,
                   const PullRound& round, shard::ShardRange r, Nodes& nodes,
                   typename K::Scratch& scratch, ChunkAcc& acc) {
  acc.clear();
  for (gossip::NodeId v = r.begin; v < r.end; ++v) {
    std::uint8_t flags = 0;
    if (util::Rng* rng = nodes.begin(v)) {
      flags = shard::nodeflag::kActive |
              k.run(store, round, v, *rng, scratch, acc.first == kNoNodeId,
                    acc.response_bytes, nodes.node(v));
      acc.add(v, flags);
    }
    nodes.end(v, flags);
  }
}

/// The stage-A serve handler of a shard worker, rebuilt from the bootstrap
/// payload `boot`: it owns the worker's run-static state and scratch, and
/// answers each task frame (layout above) with stage_a_range.
template <typename K>
auto make_worker_serve(gossip::Decoder& boot) {
  return [b = K::Boot::get(boot),
          inputs = RemotePullInputs<typename K::Element>{},
          scratch = typename K::Scratch{}, acc = ChunkAcc{}, rng = util::Rng{},
          node = typename K::Node{}](gossip::Decoder& d,
                                     gossip::Encoder& e) mutable {
    const K k = b.kernel(d);
    shard::ShardRange r;
    r.begin = d.get_u32();
    r.end = d.get_u32();
    inputs.decode(d);
    LPT_CHECK_MSG(r.begin <= r.end && r.end <= inputs.store().nodes(),
                  "shard wire: task range outside the snapshot");
    shard::put_msg_type(e, shard::MsgType::kStageAResult);
    FrameNodes<K> frame{k, d, e, rng, node};
    stage_a_range(k, inputs.store(), inputs.round(), r, frame, scratch, acc);
    e.put_u64(acc.response_bytes);
  };
}

}  // namespace detail

/// Where one run's stage A runs, chosen once: on cfg.shards shard workers
/// when sharding is enabled and K is shardable, else on a thread pool when
/// parallel_nodes > 1, else inline.  Results are bit-identical either way.
template <typename K>
class StageA {
 public:
  using Element = typename K::Element;
  using Node = typename K::Node;

  /// `boot()` returns the workers' K::Boot; it is called only when the run
  /// shards.  Workers spawn here, before any thread pool exists.
  template <typename MakeBoot>
  StageA(std::size_t n, std::size_t parallel_nodes,
         const shard::ShardConfig& shard, MakeBoot&& boot)
      : n_(n), chunk_(n) {
    if constexpr (K::kShardable) {
      if (shard.enabled()) {
        gossip::Encoder payload;
        boot().put(payload);
        harness_.emplace(n, shard, payload.bytes(), [](gossip::Decoder& d) {
          return detail::make_worker_serve<K>(d);
        });
        chunks_.resize(harness_->frame_count());
        return;
      }
    }
    if (parallel_nodes > 1) {
      pool_.emplace(parallel_nodes);
      chunk_ = std::max<std::size_t>(64, n / (parallel_nodes * 8));
    }
    chunks_.resize(util::chunk_count(n, chunk_));
  }

  StageA(const StageA&) = delete;
  StageA& operator=(const StageA&) = delete;

  /// One round's stage A with kernel `k` over the round-start `store`:
  /// active(v) selects the nodes, whose streams `rng` advance in place and
  /// whose outputs land in `nodes`.  Then the coordinator meters k.pulls
  /// per active node and folds the counters into `stats` and the meter.
  template <typename Store, typename Active>
  void run(const K& k, gossip::Network& net, const Store& store,
           Active&& active, std::span<util::Rng> rng, std::span<Node> nodes,
           DistributedRunStats& stats) {
    bool on_shards = false;
    if constexpr (K::kShardable) {
      on_shards = harness_.has_value();
      if (on_shards) run_on_shards(k, net, store, active, rng, nodes);
    }
    if (!on_shards) {
      // The round-start store as one flat snapshot with dense ids: an
      // O(n + |H(V)|) pass (shard workers decode their own from the task).
      snapshot_.assign(store);
      const PullRound round = pull_round(net);
      util::parallel_chunks(
          pool_ ? &*pool_ : nullptr, n_, chunk_,
          [&](std::size_t c, std::size_t begin, std::size_t end) {
            obs::TraceSpan chunk_span(K::kChunkSpan, c);
            thread_local typename K::Scratch scratch;
            detail::LocalNodes<Node, std::remove_reference_t<Active>> local{
                active, rng, nodes};
            detail::stage_a_range(k, snapshot_, round,
                                  {static_cast<gossip::NodeId>(begin),
                                   static_cast<gossip::NodeId>(end)},
                                  local, scratch, chunks_[c]);
          });
    }
    for (gossip::NodeId v = 0; v < n_; ++v) {
      if (active(v)) net.meter().add_pulls(v, k.pulls);
    }
    for (const ChunkAcc& ch : chunks_) {
      stats.sampling_attempts += ch.attempts;
      stats.sampling_failures += ch.failures;
      net.meter().add_response_bytes(ch.response_bytes);
    }
  }

  /// The last round's accumulators (per chunk or frame), in node order.
  std::span<const ChunkAcc> chunks() const noexcept { return chunks_; }

  /// Copy a sharded run's recovery counters to `out` (when non-null).
  void copy_recovery_stats(shard::ShardRecoveryStats* out) const {
    if (out != nullptr && harness_) *out = harness_->recovery_stats();
  }

 private:
  template <typename Store, typename Active>
  void run_on_shards(const K& k, const gossip::Network& net,
                     const Store& store, Active& active,
                     std::span<util::Rng> rng, std::span<Node> nodes) {
    // Frame-indexed results; the workers draw the pulls themselves.
    harness_->round(
        [&](shard::ShardRange r, gossip::Encoder& e) {
          k.put_round(e);
          e.put_u32(r.begin);
          e.put_u32(r.end);
          put_pull_inputs(e, net, store, sleeping_);
          for (gossip::NodeId v = r.begin; v < r.end; ++v) {
            const bool on = active(v);
            e.put_u8(on ? shard::nodeflag::kActive : std::uint8_t{0});
            if (on) shard::put_rng(e, rng[v]);
          }
        },
        [&](std::size_t frame, shard::ShardRange r, gossip::Decoder& d) {
          ChunkAcc& acc = chunks_[frame];
          acc.clear();
          for (gossip::NodeId v = r.begin; v < r.end; ++v) {
            const std::uint8_t flags = d.get_u8();
            if (flags & shard::nodeflag::kActive) {
              shard::get_rng(d, rng[v]);
              k.get_node(d, flags, nodes[v]);
            }
            acc.add(v, flags);
          }
          acc.response_bytes = d.get_u64();
        });
  }

  std::size_t n_;
  std::size_t chunk_;
  std::vector<ChunkAcc> chunks_;
  shard::StoreSnapshot<Element> snapshot_;    // the round-start store
  std::vector<gossip::NodeId> sleeping_;      // task-frame encode scratch
  std::optional<shard::ShardHarness> harness_;
  std::optional<util::ThreadPool> pool_;  // after everything its tasks touch
};

}  // namespace lpt::core
