// Tests for the CSR gossip substrate: span semantics against a reference
// per-node-vector model on randomized traffic, epoch clearing, deliver
// cost observability, batched fault draws, and the NodeStore prefix
// invariants behind the O(1) add_original.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <vector>

#include "core/low_load.hpp"
#include "reference_store.hpp"
#include "core/sampling.hpp"
#include "gossip/mailbox.hpp"
#include "gossip/network.hpp"
#include "util/rng.hpp"

namespace lpt::gossip {
namespace {

Network make_net(std::size_t n, std::uint64_t seed = 1) {
  return Network(n, util::Rng(seed));
}

TEST(CsrMailbox, MatchesReferenceModelOnRandomTraffic) {
  // Route 5000 random messages and compare every inbox against a reference
  // routing model fed by the same destination stream.
  const std::size_t n = 64;
  Network net(n, util::Rng(11));
  Network ref_net(n, util::Rng(11));  // same peer stream
  Mailbox<int> mb(net);
  std::map<NodeId, std::vector<int>> reference;
  net.begin_round();
  ref_net.begin_round();
  for (int msg = 0; msg < 5000; ++msg) {
    mb.push(static_cast<NodeId>(msg % n), msg);
    reference[ref_net.random_peer()].push_back(msg);
  }
  mb.deliver();
  for (NodeId v = 0; v < n; ++v) {
    const auto got = mb.inbox(v);
    const auto& want = reference[v];
    ASSERT_EQ(got.size(), want.size()) << "inbox " << v;
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(got[k], want[k]) << "inbox " << v << " slot " << k;
    }
  }
}

TEST(CsrMailbox, RepeatedRoundsReuseCleanly) {
  const std::size_t n = 32;
  auto net = make_net(n, 3);
  Mailbox<int> mb(net);
  for (int round = 0; round < 50; ++round) {
    net.begin_round();
    const int k = 1 + round % 7;
    for (int i = 0; i < k; ++i) mb.push(0, round * 100 + i);
    mb.deliver();
    std::size_t received = 0;
    for (NodeId v = 0; v < n; ++v) received += mb.inbox(v).size();
    EXPECT_EQ(received, static_cast<std::size_t>(k)) << "round " << round;
    EXPECT_EQ(mb.last_delivered_messages(), static_cast<std::size_t>(k));
  }
}

TEST(CsrMailbox, DeliverTouchesOnlyDestinations) {
  // The deliver-cost contract: inbox bookkeeping is proportional to the
  // distinct destinations, not to n.
  const std::size_t n = 1 << 14;
  auto net = make_net(n, 5);
  Mailbox<int> mb(net);
  net.begin_round();
  for (int i = 0; i < 10; ++i) mb.push_to(0, static_cast<NodeId>(i % 3), i);
  mb.deliver();
  EXPECT_EQ(mb.last_delivered_messages(), 10u);
  EXPECT_EQ(mb.last_delivered_inboxes(), 3u);
  ASSERT_EQ(mb.inbox(0).size(), 4u);
  EXPECT_EQ(mb.inbox(1).size(), 3u);
  EXPECT_EQ(mb.inbox(2).size(), 3u);
  EXPECT_TRUE(mb.inbox(3).empty());
}

TEST(CsrMailbox, ReceiversListExactlyTheNonEmptyInboxes) {
  // receivers() is what makes the engines' delivery walk O(receivers):
  // it must name exactly the nodes with a non-empty inbox, once each,
  // and stay consistent across reused epochs.
  const std::size_t n = 1 << 12;
  auto net = make_net(n, 29);
  Mailbox<int> mb(net);
  for (int round = 0; round < 5; ++round) {
    net.begin_round();
    const int msgs = 20 + round;
    for (int i = 0; i < msgs; ++i) {
      mb.push_to(0, static_cast<NodeId>((i * 37 + round) % 50), i);
    }
    mb.deliver();
    const auto recv = mb.receivers();
    EXPECT_EQ(recv.size(), mb.last_delivered_inboxes());
    std::vector<NodeId> seen(recv.begin(), recv.end());
    std::sort(seen.begin(), seen.end());
    EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end())
        << "duplicate receiver";
    std::size_t received = 0;
    for (const NodeId v : recv) {
      EXPECT_FALSE(mb.inbox(v).empty());
      received += mb.inbox(v).size();
    }
    EXPECT_EQ(received, static_cast<std::size_t>(msgs));
  }
}

TEST(CsrMailbox, PushLossIsUnbiasedAndDeterministic) {
  const std::size_t n = 128;
  FaultModel faults;
  faults.push_loss = 0.4;
  auto run = [&](std::uint64_t seed) {
    Network net(n, util::Rng(seed), faults);
    Mailbox<int> mb(net);
    net.begin_round();
    for (int i = 0; i < 20000; ++i) mb.push(0, i);
    mb.deliver();
    std::size_t received = 0;
    for (NodeId v = 0; v < n; ++v) received += mb.inbox(v).size();
    return received;
  };
  const std::size_t a = run(7);
  EXPECT_EQ(a, run(7));  // seed-deterministic under geometric skipping
  // ~60% of 20000 survive; 5-sigma band.
  EXPECT_NEAR(static_cast<double>(a), 12000.0, 350.0);
}

TEST(CsrPullChannel, ResponsesArriveInRequestOrder) {
  // The responder is invoked in request order; each requester's slice must
  // list its responses in that order — for sorted (per-node loops) and
  // unsorted (interleaved) request sequences alike.
  for (const bool interleaved : {false, true}) {
    const std::size_t n = 16;
    auto net = make_net(n, 9);
    PullChannel<int> ch(net);
    net.begin_round();
    std::vector<NodeId> froms;
    if (interleaved) {
      for (int k = 0; k < 60; ++k) froms.push_back(k * 7 % n);
    } else {
      for (NodeId v = 0; v < n; ++v) {
        for (int k = 0; k < 4; ++k) froms.push_back(v);
      }
    }
    std::map<NodeId, std::vector<int>> expected;
    int counter = 0;
    for (const NodeId f : froms) {
      ch.request(f);
      expected[f].push_back(counter++);  // responder call #k returns k
    }
    int calls = 0;
    ch.resolve([&](NodeId) { return std::optional<int>(calls++); });
    for (const auto& [f, want] : expected) {
      const auto got = ch.responses(f);
      ASSERT_EQ(got.size(), want.size())
          << (interleaved ? "interleaved" : "sorted") << " from " << f;
      for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(got[k], want[k]);
      }
    }
  }
}

TEST(CsrPullChannel, AnsweredCountsAreLazilyExact) {
  const std::size_t n = 8;
  auto net = make_net(n, 13);
  PullChannel<int> ch(net);
  net.begin_round();
  for (int k = 0; k < 100; ++k) ch.request(static_cast<NodeId>(k % n));
  ch.resolve([](NodeId target) {
    if (target % 2 == 0) return std::optional<int>();  // evens never answer
    return std::optional<int>(1);
  });
  std::uint32_t total_answers = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (v % 2 == 0) {
      EXPECT_EQ(ch.answered(v), 0u);
    }
    total_answers += ch.answered(v);
  }
  std::size_t total_responses = 0;
  for (NodeId v = 0; v < n; ++v) total_responses += ch.responses(v).size();
  EXPECT_EQ(total_answers, total_responses);
  EXPECT_GT(total_responses, 0u);
}

TEST(Network, LossGapMatchesGeometricMean) {
  auto net = make_net(4, 21);
  const double p = 0.2;
  double sum = 0.0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    sum += static_cast<double>(net.loss_gap(p));
  }
  // E[gap] = (1-p)/p = 4; generous tolerance for 20k draws.
  EXPECT_NEAR(sum / draws, 4.0, 0.25);
  // Degenerate p: everything dropped.
  EXPECT_EQ(net.loss_gap(1.0), 0u);
}

TEST(Network, SparseSleepDrawsResetEachRound) {
  const std::size_t n = 4096;
  FaultModel faults;
  faults.sleep_probability = 0.1;
  Network net(n, util::Rng(23), faults);
  std::size_t total = 0;
  for (int round = 0; round < 20; ++round) {
    net.begin_round();
    std::size_t asleep = 0;
    for (NodeId v = 0; v < n; ++v) asleep += net.asleep(v) ? 1 : 0;
    total += asleep;
  }
  // 10% of 4096 over 20 rounds, 5-sigma band.
  EXPECT_NEAR(static_cast<double>(total), 8192.0, 430.0);
}

}  // namespace
}  // namespace lpt::gossip

namespace lpt::core {
namespace {


TEST(NodeStore, AddOriginalKeepsPrefixInvariant) {
  gossip::NodeStore<int> store(4);
  const gossip::NodeId v = 2;
  store.add_original(v, 1);
  store.add_copy(v, 100);
  store.add_copy(v, 101);
  store.add_original(v, 2);  // displaces a copy to the back in O(1)
  store.add_original(v, 3);
  ASSERT_EQ(store.h0_count(v), 3u);
  ASSERT_EQ(store.size(v), 5u);
  EXPECT_EQ(store.total_elements(), 5u);
  EXPECT_TRUE(store.view(0).empty());
  const auto view = store.view(v);
  // The H_0 prefix holds exactly the originals (order unspecified).
  std::vector<int> originals(view.begin(), view.begin() + 3);
  std::sort(originals.begin(), originals.end());
  EXPECT_EQ(originals, (std::vector<int>{1, 2, 3}));
  std::vector<int> copies(view.begin() + 3, view.end());
  std::sort(copies.begin(), copies.end());
  EXPECT_EQ(copies, (std::vector<int>{100, 101}));
}

TEST(NodeStore, FilterNeverDropsOriginals) {
  gossip::NodeStore<int> store(2);
  for (int i = 0; i < 10; ++i) store.add_original(0, i);
  for (int i = 100; i < 200; ++i) store.add_copy(0, i);
  EXPECT_EQ(store.total_elements(), 110u);
  util::Rng rng(5);
  store.filter_node(0, rng, 0.0);  // drop every copy
  EXPECT_EQ(store.size(0), 10u);
  EXPECT_EQ(store.h0_count(0), 10u);
  EXPECT_EQ(store.total_elements(), 10u);
  for (const int x : store.view(0)) EXPECT_LT(x, 10);
}

TEST(NodeStore, MatchesReferenceStoreOnRandomizedOps) {
  // Drive the slab store and the pre-slab per-node-vector store through an
  // identical randomized op sequence (adds, copies, filter passes) with
  // cloned RNG streams: every node's element sequence — not just its set —
  // must match, along with the incremental total.  This is the
  // old-path/new-path bit-identity contract at the store level.
  const std::size_t n = 64;
  gossip::NodeStore<std::uint32_t> slab(n);
  std::vector<bench::ReferenceNodeStore<std::uint32_t>> ref(n);
  util::Rng ops(123);
  std::vector<util::Rng> slab_rng, ref_rng;
  for (std::size_t v = 0; v < n; ++v) {
    slab_rng.emplace_back(1000 + v);
    ref_rng.emplace_back(1000 + v);
  }
  std::uint32_t next_val = 0;
  for (int round = 0; round < 40; ++round) {
    const int adds = static_cast<int>(ops.below(200));
    for (int a = 0; a < adds; ++a) {
      const auto v = static_cast<gossip::NodeId>(ops.below(n));
      const std::uint32_t val = next_val++;
      if (ops.bernoulli(0.3)) {
        slab.add_original(v, val);
        ref[v].add_original(val);
      } else {
        slab.add_copy(v, val);
        ref[v].add_copy(val);
      }
    }
    if (round % 3 == 0) {
      // Reference path filters every node; the slab path filters only the
      // copy-holders.  Nodes without copies draw nothing, so the streams
      // stay aligned — that equivalence is the point of the test.
      slab.filter_copies(0.7, [&](gossip::NodeId v) -> util::Rng& {
        return slab_rng[v];
      });
      for (std::size_t v = 0; v < n; ++v) ref[v].filter(ref_rng[v], 0.7);
    }
  }
  std::size_t ref_total = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const auto got = slab.view(static_cast<gossip::NodeId>(v));
    ASSERT_EQ(got.size(), ref[v].elems.size()) << "node " << v;
    ASSERT_EQ(slab.h0_count(static_cast<gossip::NodeId>(v)), ref[v].h0_count);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], ref[v].elems[i]) << "node " << v << " slot " << i;
    }
    ref_total += ref[v].elems.size();
  }
  EXPECT_EQ(slab.total_elements(), ref_total);
}

TEST(NodeStore, FilterPassVisitsOnlyCopyHolders) {
  // The O(active)-not-O(n) counter contract: with copies on k of n nodes,
  // the filter pass must visit exactly k nodes, and the holder list must
  // compact as nodes go copy-free.
  const std::size_t n = 1 << 16;
  const std::size_t k = 100;
  gossip::NodeStore<std::uint32_t> store(n);
  for (std::size_t v = 0; v < n; ++v) {
    store.add_original(static_cast<gossip::NodeId>(v), 1);
  }
  for (std::size_t j = 0; j < k; ++j) {
    const auto v = static_cast<gossip::NodeId>(j * 599);
    store.add_copy(v, 7);
    store.add_copy(v, 8);
  }
  ASSERT_EQ(store.copy_holders().size(), k);
  std::vector<util::Rng> rng;
  for (std::size_t v = 0; v < n; ++v) rng.emplace_back(v);
  // keep_p = 1: every copy survives, every holder stays.
  std::size_t visited = store.filter_copies(
      1.0, [&](gossip::NodeId v) -> util::Rng& { return rng[v]; });
  EXPECT_EQ(visited, k);
  EXPECT_EQ(store.copy_holders().size(), k);
  // keep_p = 0: all copies drop, the holder list empties, and the next
  // pass is free.
  visited = store.filter_copies(
      0.0, [&](gossip::NodeId v) -> util::Rng& { return rng[v]; });
  EXPECT_EQ(visited, k);
  EXPECT_EQ(store.copy_holders().size(), 0u);
  visited = store.filter_copies(
      0.0, [&](gossip::NodeId v) -> util::Rng& { return rng[v]; });
  EXPECT_EQ(visited, 0u);
  EXPECT_EQ(store.total_elements(), n);
}

TEST(SelectDistinct, ViewAndOwningVariantsAgree) {
  std::vector<std::uint32_t> a{5, 1, 5, 9, 1, 7, 3, 9, 2, 8, 4, 6};
  std::vector<std::uint32_t> b = a;
  util::Rng r1(42), r2(42);
  const auto view = select_distinct_view(std::span<std::uint32_t>(a), 4, r1,
                                         /*strict=*/false);
  SampleOutcome<std::uint32_t> owned;
  select_distinct_into(b, 4, r2, /*strict=*/false, owned);
  ASSERT_TRUE(view.success);
  ASSERT_TRUE(owned.success);
  ASSERT_EQ(view.sample.size(), owned.sample.size());
  for (std::size_t i = 0; i < owned.sample.size(); ++i) {
    EXPECT_EQ(view.sample[i], owned.sample[i]);
  }
}

TEST(SelectDistinct, HashDedupeFindsExactDistinctSet) {
  // 500 draws from 40 values: the selection must consist of distinct
  // values only, and lenient short samples must return every distinct.
  util::Rng rng(77);
  std::vector<std::uint32_t> responses;
  for (int i = 0; i < 500; ++i) {
    responses.push_back(static_cast<std::uint32_t>(rng.below(40)));
  }
  SampleOutcome<std::uint32_t> out;
  select_distinct_into(responses, 64, rng, /*strict=*/false, out);
  ASSERT_TRUE(out.success);
  std::vector<std::uint32_t> sorted = out.sample;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
  EXPECT_EQ(sorted.size(), 40u);  // every distinct value seen
}

}  // namespace
}  // namespace lpt::core
