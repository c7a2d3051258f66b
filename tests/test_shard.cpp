// Shard runtime tests: partition plan, wire-message codec round-trips
// (including empty candidate lists and max-size frames), malformed-frame
// rejection, transport framing, and the headline guarantee — sharded
// low-load / hitting-set runs are bit-identical to the serial and
// parallel_nodes paths for shards in {1, 2, 4}, over all three transports
// (in-process queues, pipes, loopback TCP sockets — the socket runs
// bootstrap their workers over the wire), with and without loss/sleep
// faults, and so is a low-load run stepped with other work between its
// rounds.  Stage A draws the pulls from a round-start store snapshot; the
// PullSampler tests pin its answers, samples and streams to the live-store
// reference sampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/hitting_set.hpp"
#include "core/low_load.hpp"
#include "core/result.hpp"
#include "core/sampling.hpp"
#include "gossip/network.hpp"
#include "obs/obs.hpp"
#include "lp/halfplane.hpp"
#include "problems/min_disk.hpp"
#include "reference_sampler.hpp"
#include "shard/plan.hpp"
#include "shard/runtime.hpp"
#include "shard/transport.hpp"
#include "shard/wire.hpp"
#include "support/test_support.hpp"
#include "util/rng.hpp"
#include "workloads/disk_data.hpp"
#include "workloads/hs_data.hpp"

namespace lpt {
namespace {

using problems::MinDisk;
using workloads::DiskDataset;

// ---------------------------------------------------------------------
// ShardPlan: contiguous cover of [0, n), near-even sizes, exact ownership.
// ---------------------------------------------------------------------

TEST(ShardPlan, ContiguousCoverAndOwnership) {
  for (const std::size_t n : {1u, 2u, 7u, 64u, 1000u, 4096u}) {
    for (std::size_t k = 1; k <= std::min<std::size_t>(n, 9); ++k) {
      const shard::ShardPlan plan(n, k);
      ASSERT_EQ(plan.shard_count(), k);
      gossip::NodeId expect_begin = 0;
      for (std::size_t s = 0; s < k; ++s) {
        const auto r = plan.range(s);
        EXPECT_EQ(r.begin, expect_begin) << "n=" << n << " k=" << k;
        EXPECT_GE(r.size(), n / k);
        EXPECT_LE(r.size(), n / k + 1);
        for (gossip::NodeId v = r.begin; v < r.end; ++v) {
          ASSERT_EQ(plan.owner(v), s) << "n=" << n << " k=" << k << " v=" << v;
        }
        expect_begin = r.end;
      }
      EXPECT_EQ(expect_begin, n);
    }
  }
}

// ---------------------------------------------------------------------
// Wire codec round-trips.
// ---------------------------------------------------------------------

TEST(ShardWire, RngStateRoundTripContinuesStream) {
  util::Rng original(977);
  for (int i = 0; i < 37; ++i) (void)original();  // advance off the seed
  (void)original.normal();  // bank a Marsaglia spare (part of the state)

  gossip::Encoder e;
  shard::put_rng(e, original);
  gossip::Decoder d(e.bytes());
  util::Rng restored(1);  // different seed: must be fully overwritten
  shard::get_rng(d, restored);
  EXPECT_TRUE(d.exhausted());

  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(original(), restored()) << "draw " << i;
  }
  ASSERT_EQ(original.normal(), restored.normal());
}

TEST(ShardWire, ElementSequenceRoundTripsIncludingEmpty) {
  const std::vector<std::uint32_t> ids = {0, 1, 0xffffffffu, 42};
  const std::vector<geom::Vec2> pts = {{0.0, 0.0}, {-1.5, 3.25}, {1e300, -0.0}};
  const std::vector<std::uint32_t> empty_ids;
  const std::vector<geom::Vec2> empty_pts;

  gossip::Encoder e;
  shard::put_seq(e, std::span<const std::uint32_t>(ids));
  shard::put_seq(e, std::span<const geom::Vec2>(pts));
  shard::put_seq(e, std::span<const std::uint32_t>(empty_ids));
  shard::put_seq(e, std::span<const geom::Vec2>(empty_pts));

  gossip::Decoder d(e.bytes());
  std::vector<std::uint32_t> ids2;
  std::vector<geom::Vec2> pts2;
  std::vector<std::uint32_t> empty_ids2 = {7};  // must be cleared
  std::vector<geom::Vec2> empty_pts2 = {{1, 1}};
  shard::get_seq(d, ids2);
  shard::get_seq(d, pts2);
  shard::get_seq(d, empty_ids2);
  shard::get_seq(d, empty_pts2);
  EXPECT_TRUE(d.exhausted());

  EXPECT_EQ(ids, ids2);
  EXPECT_TRUE(empty_ids2.empty());
  EXPECT_TRUE(empty_pts2.empty());
  ASSERT_EQ(pts.size(), pts2.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].x, pts2[i].x);
    EXPECT_EQ(pts[i].y, pts2[i].y);
    // -0.0 must survive bit-exactly, not just compare-equal.
    EXPECT_EQ(std::signbit(pts[i].y), std::signbit(pts2[i].y)) << i;
  }
}

// The sequence guards are sized in encoded *bytes*, not element counts: a
// count-based check once let 8 Vec2s (132 encoded bytes) pass a 64-byte
// budget because 8 < 64.  The max_bytes parameter exists so this is
// testable without a 256 MiB input.
TEST(ShardWireDeathTest, PutSeqRejectsByteBudgetNotElementCount) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<geom::Vec2> pts(8, geom::Vec2{1.0, 2.0});
  gossip::Encoder e;
  EXPECT_DEATH(
      shard::put_seq(e, std::span<const geom::Vec2>(pts), 64),
      "frame byte budget");
}

TEST(ShardWire, PutSeqAcceptsSequencesWithinTheByteBudget) {
  // 3 Vec2s encode to 4 + 48 = 52 bytes: inside a 64-byte budget even
  // though the element count alone (3 < 64) says nothing.
  const std::vector<geom::Vec2> pts(3, geom::Vec2{1.0, 2.0});
  gossip::Encoder e;
  shard::put_seq(e, std::span<const geom::Vec2>(pts), 64);
  EXPECT_EQ(e.size(), 4u + 3u * gossip::kWireBytesVec2);
  gossip::Decoder d(e.bytes());
  std::vector<geom::Vec2> out;
  shard::get_seq(d, out);
  EXPECT_EQ(out.size(), 3u);
}

TEST(ShardWireDeathTest, GetSeqRejectsLengthPrefixByElementSize) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Length prefix claims 10 Vec2s but only one element's worth of payload
  // follows: 10 <= remaining bytes (16) would pass a byte-count check, but
  // 10 Vec2s need 160 bytes — the guard must divide by the element size.
  gossip::Encoder e;
  e.put_u32(10);
  e.put(geom::Vec2{0.0, 0.0});
  gossip::Decoder d(e.bytes());
  std::vector<geom::Vec2> out;
  EXPECT_DEATH(shard::get_seq(d, out), "sequence too long");
}

TEST(ShardWire, MinDiskSolutionRoundTripsBitIdentically) {
  MinDisk p;
  const auto pts = testsupport::golden_disk_points(DiskDataset::kHull, 64);
  const auto sol = p.solve(pts);
  ASSERT_FALSE(sol.basis.empty());

  const problems::MinDiskSolution empty{};  // f(∅): empty disk, no basis

  gossip::Encoder e;
  wire_put(e, sol);
  wire_put(e, empty);
  gossip::Decoder d(e.bytes());
  problems::MinDiskSolution sol2, empty2;
  wire_get(d, sol2);
  wire_get(d, empty2);
  EXPECT_TRUE(d.exhausted());

  EXPECT_EQ(sol, sol2);  // defaulted ==: disk and basis, exact doubles
  EXPECT_EQ(empty, empty2);
  EXPECT_TRUE(empty2.disk.empty());
}

// The engines' Wirable gate: the shipped problems the shard runtime serves.
static_assert(shard::Wirable<std::uint32_t>);
static_assert(shard::Wirable<geom::Vec2>);
static_assert(shard::Wirable<lp::Halfplane>);
static_assert(shard::Wirable<util::RngState>);
static_assert(shard::Wirable<problems::MinDiskSolution>);
static_assert(core::detail::ShardableLowLoad<problems::MinDisk>);

// ---------------------------------------------------------------------
// The Section 2.1 pull sampler: the id path (draw_pulls over a round-start
// StoreSnapshot, select_distinct_answers by dense id) against the
// reference (bench/reference_sampler.hpp: the live-store answer loop and
// select_distinct_view's value hashing), over a snapshot built in-process
// and over one decoded from a task frame.
// ---------------------------------------------------------------------

template <typename Element>
bool same_bits(const Element& a, const Element& b) {
  return std::memcmp(&a, &b, sizeof(Element)) == 0;
}

// The element a test store puts at node v, position i.
template <typename Element>
Element pull_elem(std::size_t v, std::size_t i);
template <>
geom::Vec2 pull_elem<geom::Vec2>(std::size_t v, std::size_t i) {
  return {static_cast<double>(v), static_cast<double>(i)};
}
template <>
std::uint32_t pull_elem<std::uint32_t>(std::size_t v, std::size_t i) {
  return static_cast<std::uint32_t>(16 * v + i);
}

// 0-2 originals and 0-3 copies per node; the copies repeat other nodes'
// originals, so equal values sit in different slots, as copies do in the
// engines.  Churned-out nodes' stores were handed off and cleared.
template <typename Element>
gossip::NodeStore<Element> make_pull_store(std::size_t n,
                                           std::uint64_t seed) {
  gossip::NodeStore<Element> store(n);
  util::Rng rng(seed);
  for (gossip::NodeId v = 0; v < n; ++v) {
    const std::size_t originals = rng.below(3);
    const std::size_t copies = rng.below(4);
    for (std::size_t i = 0; i < originals; ++i) {
      store.add_original(v, pull_elem<Element>(v, i));
    }
    for (std::size_t i = 0; i < copies; ++i) {
      store.add_copy(v, pull_elem<Element>(rng.below(n), rng.below(2)));
    }
  }
  for (gossip::NodeId v = 3; v < n; v += 7) store.clear_node(v);
  return store;
}

// The node whose slot range holds `slot`.
template <typename Element>
gossip::NodeId responder_of(const shard::StoreSnapshot<Element>& snap,
                            std::uint32_t slot) {
  const auto off = snap.offsets();
  return static_cast<gossip::NodeId>(
      std::upper_bound(off.begin(), off.end(), slot) - off.begin() - 1);
}

// Every node's pulls and sample, drawn from the same RNG state by the
// reference (against the live store, with `round`) and by the id path
// (against `snap`, with `snap_round`), must agree answer for answer and
// sample element for sample element, bit for bit, meter the same bytes
// and leave the stream in the same state.  Returns the answers drawn.
template <typename Element>
std::size_t expect_id_path_matches(const gossip::NodeStore<Element>& store,
                                   const core::PullRound& round,
                                   const shard::StoreSnapshot<Element>& snap,
                                   const core::PullRound& snap_round,
                                   std::size_t pulls, std::size_t target,
                                   bool strict, const std::string& what) {
  bench::ReferencePullBuffer<Element> ref_buf;
  core::PullBuffer<Element> buf;
  std::size_t answered = 0;
  for (gossip::NodeId v = 0; v < store.nodes(); ++v) {
    const std::string at = what + " node " + std::to_string(v);
    EXPECT_EQ(snap.size(v), store.size(v)) << at;
    util::Rng ref_rng = util::Rng(900).child(v);
    util::Rng rng = ref_rng;
    const auto ref =
        bench::reference_draw_pulls(store, round, pulls, ref_rng, ref_buf);
    const auto answers = core::draw_pulls(snap, snap_round, pulls, rng, buf);
    EXPECT_EQ(ref_rng.state(), rng.state()) << at << ": after the pulls";
    if (ref.size() != answers.size()) {
      ADD_FAILURE() << at << ": " << ref.size() << " reference answers, "
                    << answers.size() << " slots";
      return answered;
    }
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_TRUE(same_bits(ref[i], snap.at(answers[i])))
          << at << " pull " << i;
      // Only awake nodes with a non-empty store answer.
      const gossip::NodeId from = responder_of(snap, answers[i]);
      EXPECT_TRUE(round.asleep.empty() || !round.asleep[from]) << at;
      EXPECT_GT(store.size(from), 0u) << at;
    }
    EXPECT_EQ(bench::reference_response_bytes(
                  std::span<const Element>(ref.data(), ref.size())),
              core::pull_response_bytes(
                  snap, std::span<const std::uint32_t>(answers)))
        << at;
    answered += ref.size();

    const core::SampleView<Element> want =
        core::select_distinct_view(ref, target, ref_rng, strict);
    const core::SampleView<Element> got = core::select_distinct_answers(
        snap, answers, target, rng, strict, buf);
    EXPECT_EQ(want.success, got.success) << at;
    EXPECT_EQ(want.randomized, got.randomized) << at;
    EXPECT_EQ(ref_rng.state(), rng.state()) << at << ": after selection";
    if (want.sample.size() != got.sample.size()) {
      ADD_FAILURE() << at << ": sample of " << got.sample.size()
                    << ", reference " << want.sample.size();
      continue;
    }
    for (std::size_t i = 0; i < want.sample.size(); ++i) {
      EXPECT_TRUE(same_bits(want.sample[i], got.sample[i]))
          << at << " sample " << i;
    }
  }
  return answered;
}

// The id path against the reference, over a snapshot assign()ed from
// `store` and over one decoded from a task frame's pull inputs, lenient
// and strict.  Also checks what an answer count must look like.
template <typename Element>
void expect_snapshots_match_reference(const gossip::Network& net,
                                      const gossip::NodeStore<Element>& store,
                                      std::size_t pulls, std::size_t target,
                                      const std::string& what) {
  const core::PullRound round = core::pull_round(net);
  shard::StoreSnapshot<Element> built;
  built.assign(store);
  ASSERT_EQ(built.nodes(), store.nodes()) << what;

  std::vector<gossip::NodeId> sleeping;
  gossip::Encoder e;
  core::put_pull_inputs(e, net, store, sleeping);
  gossip::Decoder d(e.bytes());
  core::RemotePullInputs<Element> remote;
  remote.decode(d);
  ASSERT_TRUE(d.exhausted()) << what;
  ASSERT_EQ(remote.store().nodes(), store.nodes()) << what;
  EXPECT_EQ(remote.round().nodes, round.nodes) << what;
  EXPECT_EQ(remote.round().asleep.empty(), round.asleep.empty()) << what;
  EXPECT_EQ(remote.round().response_loss, round.response_loss) << what;
  EXPECT_TRUE(std::ranges::equal(built.ids(), remote.store().ids())) << what;
  EXPECT_EQ(built.id_count(), remote.store().id_count()) << what;

  std::size_t answered = 0;
  for (const bool strict : {false, true}) {
    const std::string mode = strict ? " (strict)" : "";
    answered = expect_id_path_matches(store, round, built, round, pulls,
                                      target, strict, what + " built" + mode);
    EXPECT_EQ(answered,
              expect_id_path_matches(store, round, remote.store(),
                                     remote.round(), pulls, target, strict,
                                     what + " decoded" + mode));
  }
  const std::size_t issued = pulls * store.nodes();
  bool any_empty = false;
  for (gossip::NodeId v = 0; v < store.nodes(); ++v) {
    any_empty = any_empty || store.size(v) == 0;
  }
  if (store.total_elements() == 0) {
    EXPECT_EQ(answered, 0u) << what;
  } else if (!net.faults().any()) {
    if (any_empty) {
      EXPECT_LT(answered, issued) << what << ": empty stores answer nothing";
    } else {
      EXPECT_EQ(answered, issued) << what;
    }
    EXPECT_GT(answered, issued / 2) << what;
  } else {
    EXPECT_GT(answered, 0u) << what;
    EXPECT_LT(answered, issued) << what;
  }
}

// Fault-free, sleeping targets, response loss, and sleep + loss +
// stragglers, over a store with churned-out (cleared) nodes.
template <typename Element>
void expect_fault_cases_match_reference() {
  const std::size_t n = 64;
  const auto store = make_pull_store<Element>(n, 5);
  ASSERT_GT(store.total_elements(), 0u);
  {
    gossip::Network net(n, util::Rng(1));
    net.begin_round();
    expect_snapshots_match_reference(net, store, 40, 20, "fault-free");
  }
  {
    gossip::FaultModel faults;
    faults.sleep_probability = 0.25;
    gossip::Network net(n, util::Rng(2), faults);
    net.begin_round();
    ASSERT_GT(net.asleep_count(), 0u);
    expect_snapshots_match_reference(net, store, 40, 20, "sleeping targets");
  }
  {
    gossip::FaultModel faults;
    faults.response_loss = 0.3;
    gossip::Network net(n, util::Rng(3), faults);
    net.begin_round();
    expect_snapshots_match_reference(net, store, 40, 20, "response loss");
  }
  {
    // Stragglers append to the sleep set out of node order: the frame
    // carries it sorted, and the decoded flags must still match.
    gossip::FaultModel faults;
    faults.sleep_probability = 0.1;
    faults.response_loss = 0.2;
    faults.straggler.rate = 0.2;
    gossip::Network net(n, util::Rng(4), faults);
    for (int r = 0; r < 3; ++r) net.begin_round();
    expect_snapshots_match_reference(net, store, 40, 20,
                                     "sleep + loss + stragglers");
  }
}

TEST(PullSampler, SnapshotPullsEqualLiveStorePulls) {
  expect_fault_cases_match_reference<geom::Vec2>();
}

TEST(PullSampler, ElementIdSnapshotPullsEqualLiveStorePulls) {
  expect_fault_cases_match_reference<std::uint32_t>();
}

TEST(PullSampler, AllEmptyStoreAnswersNothing) {
  const std::size_t n = 16;
  gossip::Network net(n, util::Rng(6));
  net.begin_round();
  expect_snapshots_match_reference(net, gossip::NodeStore<geom::Vec2>(n), 12,
                                   4, "all-empty Vec2 store");
  expect_snapshots_match_reference(net, gossip::NodeStore<std::uint32_t>(n),
                                   12, 4, "all-empty id store");
}

TEST(PullSampler, SignedZerosShareOneId) {
  // operator== holds between 0.0 and -0.0, so they are one element to the
  // dedupe: one id, and the sample keeps the first answer's exact bits.
  const std::size_t n = 4;
  gossip::NodeStore<geom::Vec2> points(n);
  points.add_original(0, {0.0, 1.0});
  points.add_original(1, {-0.0, 1.0});
  points.add_original(2, {0.0, -0.0});
  points.add_original(3, {-0.0, 0.0});
  shard::StoreSnapshot<geom::Vec2> snap;
  snap.assign(points);
  EXPECT_EQ(snap.ids()[0], snap.ids()[1]);
  EXPECT_EQ(snap.ids()[2], snap.ids()[3]);
  EXPECT_NE(snap.ids()[0], snap.ids()[2]);
  EXPECT_EQ(snap.id_count(), 3u);

  gossip::NodeStore<double> scalars(n);
  scalars.add_original(0, 0.0);
  scalars.add_original(1, -0.0);
  scalars.add_original(2, 2.0);
  shard::StoreSnapshot<double> scalar_snap;
  scalar_snap.assign(scalars);
  EXPECT_EQ(scalar_snap.ids()[0], scalar_snap.ids()[1]);
  EXPECT_EQ(scalar_snap.id_count(), 3u);

  gossip::Network net(n, util::Rng(8));
  net.begin_round();
  expect_snapshots_match_reference(net, points, 16, 1, "signed zeros");
  const core::PullRound round = core::pull_round(net);
  for (const bool strict : {false, true}) {
    expect_id_path_matches(scalars, round, scalar_snap, round, 16, 2, strict,
                           "signed zero scalars");
  }
}

TEST(PullSampler, NanElementsAreNeverDeduplicated) {
  // A NaN coordinate makes an element unequal even to itself, so the
  // value dedupe keeps every answer of it; the id path gives it id 0,
  // which the stamps never mark as seen.
  const std::size_t n = 3;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  gossip::NodeStore<geom::Vec2> store(n);
  store.add_original(0, {nan, 1.0});
  store.add_original(1, {nan, 1.0});
  store.add_original(2, {2.0, 2.0});
  store.add_copy(2, {2.0, 2.0});
  shard::StoreSnapshot<geom::Vec2> snap;
  snap.assign(store);
  EXPECT_EQ(snap.ids()[0], 0u);
  EXPECT_EQ(snap.ids()[1], 0u);
  EXPECT_NE(snap.ids()[2], 0u);
  EXPECT_EQ(snap.ids()[2], snap.ids()[3]);

  gossip::Network net(n, util::Rng(9));
  net.begin_round();
  const core::PullRound round = core::pull_round(net);
  core::PullBuffer<geom::Vec2> buf;
  util::Rng rng(10);
  const auto answers = core::draw_pulls(snap, round, 24, rng, buf);
  std::size_t nan_answers = 0;
  for (const std::uint32_t slot : answers) nan_answers += slot < 2 ? 1 : 0;
  ASSERT_GT(nan_answers, 1u);
  const auto view =
      core::select_distinct_answers(snap, answers, 1000, rng, false, buf);
  EXPECT_EQ(view.sample.size(), nan_answers + 1);
  expect_snapshots_match_reference(net, store, 24, 1000, "NaN coordinates");
}

TEST(PullSampler, HalfplaneSamplesKeepSortUniqueOrder) {
  // Halfplanes have no distinct_key: the id path gathers every answer and
  // sorts and uniques them, as the reference does.
  const std::size_t n = 32;
  gossip::NodeStore<lp::Halfplane> store(n);
  util::Rng rng(11);
  for (gossip::NodeId v = 0; v < n; ++v) {
    const std::size_t k = rng.below(3);
    for (std::size_t i = 0; i < k; ++i) {
      store.add_original(v, {{static_cast<double>(rng.below(5)), 1.0},
                             static_cast<double>(rng.below(4))});
    }
  }
  shard::StoreSnapshot<lp::Halfplane> snap;
  snap.assign(store);
  EXPECT_TRUE(snap.ids().empty());
  gossip::Network net(n, util::Rng(12));
  net.begin_round();
  const core::PullRound round = core::pull_round(net);
  for (const bool strict : {false, true}) {
    for (const std::size_t target : {4u, 12u, 40u}) {
      expect_id_path_matches(store, round, snap, round, 30, target, strict,
                             "halfplanes, target " + std::to_string(target));
    }
  }
}

TEST(PullSampler, TargetsAreUniformAndAnswersUniformPerTarget) {
  // The distribution Section 2.1 prescribes: each pull's target is uniform
  // over the n nodes, and an answering target returns a uniform element of
  // its store.
  const std::size_t n = 8;
  gossip::NodeStore<geom::Vec2> store(n);
  for (gossip::NodeId v = 0; v < n; ++v) {
    for (std::size_t i = 0; i <= v; ++i) {
      store.add_original(v, {static_cast<double>(v), static_cast<double>(i)});
    }
  }
  shard::StoreSnapshot<geom::Vec2> snap;
  snap.assign(store);
  gossip::Network net(n, util::Rng(7));
  net.begin_round();
  core::PullBuffer<geom::Vec2> buf;
  util::Rng rng(8);
  std::vector<std::vector<double>> hits(n);
  for (gossip::NodeId v = 0; v < n; ++v) hits[v].assign(v + 1, 0.0);
  const std::size_t draws = 80000;
  for (std::size_t k = 0; k < draws / 100; ++k) {
    for (const std::uint32_t slot :
         core::draw_pulls(snap, core::pull_round(net), 100, rng, buf)) {
      const geom::Vec2 a = snap.at(slot);
      hits[static_cast<std::size_t>(a.x)][static_cast<std::size_t>(a.y)] += 1;
    }
  }
  for (gossip::NodeId v = 0; v < n; ++v) {
    const double expect_node = static_cast<double>(draws) / n;
    double node_total = 0.0;
    for (const double h : hits[v]) {
      node_total += h;
      // Binomial(draws, 1/(n(v+1))): 5-sigma band.
      const double mean = expect_node / static_cast<double>(v + 1);
      EXPECT_NEAR(h, mean, 5.0 * std::sqrt(mean)) << "node " << v;
    }
    EXPECT_NEAR(node_total, expect_node, 5.0 * std::sqrt(expect_node));
  }
}

// ---------------------------------------------------------------------
// Transport framing: echo through both transports, max-size frames,
// malformed-frame rejection.
// ---------------------------------------------------------------------

// Serve handler that echoes the task payload back as the result payload.
void echo_serve(gossip::Decoder& d, gossip::Encoder& e) {
  shard::put_msg_type(e, shard::MsgType::kStageAResult);
  while (!d.exhausted()) e.put_u8(d.get_u8());
}

std::vector<std::uint8_t> round_trip_payload(shard::Transport& transport,
                                             std::size_t shards,
                                             const std::vector<std::uint8_t>&
                                                 body) {
  transport.spawn(shards, [](std::size_t, shard::Endpoint& ep) {
    shard::worker_loop(ep, echo_serve);
  });
  std::vector<std::uint8_t> echoed;
  for (std::size_t s = 0; s < shards; ++s) {
    gossip::Encoder task;
    shard::put_msg_type(task, shard::MsgType::kStageATask);
    for (const std::uint8_t b : body) task.put_u8(b);
    transport.endpoint(s).send(task.bytes());
  }
  for (std::size_t s = 0; s < shards; ++s) {
    const auto frame = transport.endpoint(s).recv();
    gossip::Decoder d(frame);
    EXPECT_EQ(shard::get_msg_type(d), shard::MsgType::kStageAResult);
    echoed.assign(frame.begin() + 1, frame.end());
  }
  gossip::Encoder bye;
  shard::put_msg_type(bye, shard::MsgType::kShutdown);
  for (std::size_t s = 0; s < shards; ++s) {
    transport.endpoint(s).send(bye.bytes());
  }
  transport.join();
  return echoed;
}

TEST(ShardTransport, InProcEchoesFrames) {
  std::vector<std::uint8_t> body(1 << 10);
  util::Rng rng(5);
  for (auto& b : body) b = static_cast<std::uint8_t>(rng.below(256));
  shard::InProcTransport t;
  EXPECT_EQ(round_trip_payload(t, 3, body), body);
}

TEST(ShardTransport, PipeEchoesFrames) {
  std::vector<std::uint8_t> body(1 << 10);
  util::Rng rng(6);
  for (auto& b : body) b = static_cast<std::uint8_t>(rng.below(256));
  shard::PipeTransport t;
  EXPECT_EQ(round_trip_payload(t, 3, body), body);
}

// A frame at several megabytes (far beyond one pipe buffer) must survive
// both directions intact: the frame I/O loops over short reads/writes.
TEST(ShardTransport, PipeCarriesMultiMegabyteFrames) {
  std::vector<std::uint8_t> body(8u << 20);
  util::Rng rng(7);
  for (auto& b : body) b = static_cast<std::uint8_t>(rng.below(256));
  shard::PipeTransport t;
  EXPECT_EQ(round_trip_payload(t, 1, body), body);
}

TEST(ShardTransport, SocketEchoesFrames) {
  std::vector<std::uint8_t> body(1 << 10);
  util::Rng rng(8);
  for (auto& b : body) b = static_cast<std::uint8_t>(rng.below(256));
  shard::SocketTransport t;
  EXPECT_EQ(round_trip_payload(t, 3, body), body);
}

// Multi-megabyte frames over loopback TCP: far beyond the socket buffers,
// so both directions must loop over short reads/writes exactly like pipes.
TEST(ShardTransport, SocketCarriesMultiMegabyteFrames) {
  std::vector<std::uint8_t> body(8u << 20);
  util::Rng rng(9);
  for (auto& b : body) b = static_cast<std::uint8_t>(rng.below(256));
  shard::SocketTransport t;
  EXPECT_EQ(round_trip_payload(t, 1, body), body);
}

TEST(ShardTransportDeathTest, RejectsOversizedLengthPrefix) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::uint32_t huge = shard::kMaxFrameBytes + 1;
  ASSERT_EQ(::write(fds[1], &huge, sizeof huge),
            static_cast<ssize_t>(sizeof huge));
  shard::PipeEndpoint ep(fds[0], fds[1]);
  EXPECT_DEATH((void)ep.recv(), "length prefix exceeds");
}

TEST(ShardTransportDeathTest, RejectsTruncatedFrame) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::uint32_t len = 100;
  ASSERT_EQ(::write(fds[1], &len, sizeof len),
            static_cast<ssize_t>(sizeof len));
  const std::uint8_t partial[10] = {};
  ASSERT_EQ(::write(fds[1], partial, sizeof partial),
            static_cast<ssize_t>(sizeof partial));
  ::close(fds[1]);  // EOF arrives mid-frame
  shard::PipeEndpoint ep(fds[0], -1);
  EXPECT_DEATH((void)ep.recv(), "truncated mid-frame");
}

TEST(ShardTransport, CleanEofReadsAsEmptyFrame) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[1]);
  shard::PipeEndpoint ep(fds[0], -1);
  EXPECT_TRUE(ep.recv().empty());  // worker_loop treats this as shutdown
}

TEST(ShardWireDeathTest, RejectsUnknownMessageType) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<std::uint8_t> garbage = {0x7f, 1, 2, 3};
  gossip::Decoder d(garbage);
  EXPECT_DEATH((void)shard::get_msg_type(d), "unknown message type");
}

// ---------------------------------------------------------------------
// Integration: sharded runs are bit-identical to serial / parallel_nodes.
// ---------------------------------------------------------------------

void expect_stats_equal(const core::DistributedRunStats& a,
                        const core::DistributedRunStats& b,
                        const std::string& what) {
  EXPECT_EQ(a.rounds_to_first, b.rounds_to_first) << what;
  EXPECT_EQ(a.rounds_to_all_output, b.rounds_to_all_output) << what;
  EXPECT_EQ(a.reached_optimum, b.reached_optimum) << what;
  EXPECT_EQ(a.all_outputs_correct, b.all_outputs_correct) << what;
  EXPECT_EQ(a.max_work_per_round, b.max_work_per_round) << what;
  EXPECT_EQ(a.total_push_ops, b.total_push_ops) << what;
  EXPECT_EQ(a.total_pull_ops, b.total_pull_ops) << what;
  EXPECT_EQ(a.total_bytes, b.total_bytes) << what;
  EXPECT_EQ(a.initial_total_elements, b.initial_total_elements) << what;
  EXPECT_EQ(a.max_total_elements, b.max_total_elements) << what;
  EXPECT_EQ(a.final_total_elements, b.final_total_elements) << what;
  EXPECT_EQ(a.sampling_attempts, b.sampling_attempts) << what;
  EXPECT_EQ(a.sampling_failures, b.sampling_failures) << what;
  EXPECT_EQ(a.bookkeeping_touches_total, b.bookkeeping_touches_total) << what;
  EXPECT_EQ(a.last_round_bookkeeping_touches,
            b.last_round_bookkeeping_touches)
      << what;
}

const std::size_t kShardCounts[] = {1, 2, 4};
const shard::TransportKind kTransports[] = {shard::TransportKind::kInProc,
                                            shard::TransportKind::kPipe,
                                            shard::TransportKind::kSocket};

std::string config_name(std::size_t shards, shard::TransportKind t) {
  const char* name = t == shard::TransportKind::kInProc ? "inproc"
                     : t == shard::TransportKind::kPipe ? "pipe"
                                                        : "socket";
  return std::to_string(shards) + " shard(s) over " + name;
}

void check_low_load_bit_identity(core::LowLoadConfig base_cfg,
                                 DiskDataset dataset, std::size_t n) {
  MinDisk p;
  const auto pts = testsupport::golden_disk_points(dataset, n);
  const auto serial = core::run_low_load(p, pts, n, base_cfg);

  core::LowLoadConfig par_cfg = base_cfg;
  par_cfg.parallel_nodes = 4;
  const auto par = core::run_low_load(p, pts, n, par_cfg);
  expect_stats_equal(serial.stats, par.stats, "parallel_nodes=4");
  EXPECT_EQ(serial.solution, par.solution) << "parallel_nodes=4";

  for (const std::size_t shards : kShardCounts) {
    for (const auto transport : kTransports) {
      core::LowLoadConfig cfg = base_cfg;
      cfg.shard.shards = shards;
      cfg.shard.transport = transport;
      const auto res = core::run_low_load(p, pts, n, cfg);
      const std::string what = config_name(shards, transport);
      EXPECT_EQ(serial.solution, res.solution) << what;
      expect_stats_equal(serial.stats, res.stats, what);
    }
  }

  // Resumable: a LowLoadRun stepped with other work between its rounds — a
  // second run (same config, its own seed and instance) stepped in turn,
  // and direct solves — still equals the uninterrupted serial run.  With
  // shards, both runs' workers stay up across the interleaved work.
  const auto other_pts = testsupport::golden_disk_points(
      dataset == DiskDataset::kHull ? DiskDataset::kTriangle
                                    : DiskDataset::kHull,
      n);
  const auto other_direct = p.solve(other_pts);
  core::LowLoadConfig other_base = base_cfg;
  other_base.seed = base_cfg.seed + 1;
  const auto other_serial = core::run_low_load(p, other_pts, n, other_base);
  core::LowLoadConfig par4 = base_cfg;
  par4.parallel_nodes = 4;
  core::LowLoadConfig inproc2 = base_cfg;
  inproc2.shard.shards = 2;
  inproc2.shard.transport = shard::TransportKind::kInProc;
  core::LowLoadConfig socket2 = inproc2;
  socket2.shard.transport = shard::TransportKind::kSocket;
  const std::pair<const char*, core::LowLoadConfig> stepped[] = {
      {"stepped serial", base_cfg},
      {"stepped parallel_nodes=4", par4},
      {"stepped 2-shard inproc", inproc2},
      {"stepped 2-shard socket", socket2}};
  for (const auto& [what, cfg] : stepped) {
    core::LowLoadConfig other_cfg = cfg;
    other_cfg.seed = other_base.seed;
    core::LowLoadRun<MinDisk> run(p, pts, n, cfg);
    core::LowLoadRun<MinDisk> other(p, other_pts, n, other_cfg);
    while (!run.done()) {
      run.step();
      EXPECT_EQ(p.solve(other_pts), other_direct) << what;
      if (!other.done()) other.step();
    }
    while (!other.done()) other.step();
    const auto res = run.finish();
    EXPECT_EQ(serial.solution, res.solution) << what;
    expect_stats_equal(serial.stats, res.stats, what);
    const auto other_res = other.finish();
    EXPECT_EQ(other_serial.solution, other_res.solution) << what;
    expect_stats_equal(other_serial.stats, other_res.stats,
                       std::string(what) + " (second run)");
  }
}

TEST(ShardedLowLoad, BitIdenticalToSerialAndParallelNodes) {
  core::LowLoadConfig cfg;
  cfg.seed = 33;
  check_low_load_bit_identity(cfg, DiskDataset::kHull, 256);
}

TEST(ShardedLowLoad, BitIdenticalUnderLossAndSleepFaults) {
  core::LowLoadConfig cfg;
  cfg.seed = 44;
  cfg.faults.push_loss = 0.2;
  cfg.faults.response_loss = 0.1;
  cfg.faults.sleep_probability = 0.15;
  check_low_load_bit_identity(cfg, DiskDataset::kTripleDisk, 256);
}

TEST(ShardedLowLoad, BitIdenticalWithTerminationProtocol) {
  core::LowLoadConfig cfg;
  cfg.seed = 55;
  cfg.run_termination = true;
  check_low_load_bit_identity(cfg, DiskDataset::kDuoDisk, 128);
}

TEST(ShardedLowLoad, TinySubFramesBitIdentical) {
  // max_frame_nodes far below the shard range forces many sub-frames per
  // shard per round (the large-n guard: frame bytes bounded by per-node
  // state, not n); the frame-indexed merge must stay exact.
  MinDisk p;
  const std::size_t n = 256;
  const auto pts = testsupport::golden_disk_points(DiskDataset::kHull, n);
  core::LowLoadConfig serial_cfg;
  serial_cfg.seed = 33;
  const auto serial = core::run_low_load(p, pts, n, serial_cfg);
  for (const auto transport : kTransports) {
    core::LowLoadConfig cfg = serial_cfg;
    cfg.shard.shards = 3;
    cfg.shard.transport = transport;
    cfg.shard.max_frame_nodes = 16;  // ~6 sub-frames per 85-node shard
    const auto res = core::run_low_load(p, pts, n, cfg);
    const std::string what = config_name(3, transport) + " frames=16";
    EXPECT_EQ(serial.solution, res.solution) << what;
    expect_stats_equal(serial.stats, res.stats, what);
  }
}

TEST(ShardedLowLoad, TaskBytesDoNotGrowWithThePullCount) {
  // A task frame carries the round's store snapshot once plus each node's
  // flags and RNG state — never its pull answers — so doubling the pull
  // count (sampler_c) leaves a round's task bytes unchanged, and every
  // round stays under shards x (24 |H(V)| + 64 n).
  MinDisk p;
  const std::size_t n = 1024;
  const auto pts =
      testsupport::golden_disk_points(DiskDataset::kTripleDisk, n);
  obs::Counter& task_bytes = obs::counter("shard.bytes.task");
  std::uint64_t first_round[2] = {};
  std::uint64_t pull_ops[2] = {};
  for (const int c : {0, 1}) {
    core::LowLoadConfig cfg;
    cfg.seed = 12;
    cfg.sampler_c = c == 0 ? 2.0 : 4.0;
    cfg.shard.shards = 2;
    const std::uint64_t before = task_bytes.get();
    core::LowLoadRun<MinDisk> run(p, pts, n, cfg);
    run.step();
    first_round[c] = task_bytes.get() - before;
    while (!run.done()) run.step();
    const auto res = run.finish();
    const std::uint64_t total = task_bytes.get() - before;
    const std::uint64_t rounds = res.stats.rounds_to_first;
    ASSERT_GT(rounds, 1u);
    const std::uint64_t bound =
        2 * (24 * res.stats.max_total_elements + 64 * n);
    EXPECT_LE(first_round[c], 2 * (24 * pts.size() + 64 * n));
    EXPECT_LE(total, rounds * bound) << "c = " << cfg.sampler_c;
    pull_ops[c] = res.stats.total_pull_ops / rounds;
  }
  EXPECT_GT(first_round[0], 0u);
  EXPECT_EQ(first_round[0], first_round[1]);
  EXPECT_GT(pull_ops[1], pull_ops[0] * 19 / 10) << "c = 4 pulls twice as often";
}

TEST(ShardedLowLoad, UnevenRangeShardCountIsExact) {
  // n = 250 over 4 shards: ranges of 62/63 — exercises the floor split.
  core::LowLoadConfig cfg;
  cfg.seed = 66;
  check_low_load_bit_identity(cfg, DiskDataset::kTriangle, 250);
}

void check_hitting_set_bit_identity(core::HittingSetConfig base_cfg,
                                    std::uint64_t data_seed, std::size_t n,
                                    std::size_t sets) {
  util::Rng data_rng(data_seed);
  const auto inst =
      workloads::generate_planted_hitting_set(n, sets, 2, 2, data_rng);
  problems::HittingSetProblem p(inst.system);

  const auto serial = core::run_hitting_set(p, n, base_cfg);
  ASSERT_TRUE(serial.valid);

  core::HittingSetConfig par_cfg = base_cfg;
  par_cfg.parallel_nodes = 4;
  const auto par = core::run_hitting_set(p, n, par_cfg);
  expect_stats_equal(serial.stats, par.stats, "parallel_nodes=4");
  EXPECT_EQ(serial.hitting_set, par.hitting_set) << "parallel_nodes=4";

  for (const std::size_t shards : kShardCounts) {
    for (const auto transport : kTransports) {
      core::HittingSetConfig cfg = base_cfg;
      cfg.shard.shards = shards;
      cfg.shard.transport = transport;
      const auto res = core::run_hitting_set(p, n, cfg);
      const std::string what = config_name(shards, transport);
      EXPECT_EQ(serial.hitting_set, res.hitting_set) << what;
      EXPECT_EQ(serial.valid, res.valid) << what;
      EXPECT_EQ(serial.d_used, res.d_used) << what;
      EXPECT_EQ(serial.sample_size, res.sample_size) << what;
      expect_stats_equal(serial.stats, res.stats, what);
    }
  }
}

TEST(ShardedHittingSet, BitIdenticalToSerialAndParallelNodes) {
  core::HittingSetConfig cfg;
  cfg.seed = 77;
  cfg.hitting_set_size = 2;
  check_hitting_set_bit_identity(cfg, 19, 256, 64);
}

TEST(ShardedHittingSet, BitIdenticalUnderLossAndSleepFaults) {
  core::HittingSetConfig cfg;
  cfg.seed = 88;
  cfg.hitting_set_size = 2;
  cfg.faults.push_loss = 0.2;
  cfg.faults.response_loss = 0.1;
  cfg.faults.sleep_probability = 0.1;
  check_hitting_set_bit_identity(cfg, 23, 128, 32);
}

TEST(ShardedHittingSet, DoublingSearchBitIdentical) {
  // Unknown d: the doubling search restarts stages; the shard workers must
  // follow the changing sample size r through the per-round task header.
  core::HittingSetConfig cfg;
  cfg.seed = 99;
  check_hitting_set_bit_identity(cfg, 29, 128, 32);
}

}  // namespace
}  // namespace lpt
