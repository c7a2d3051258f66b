// Bit-exactness harness for the hypercube exchange: the CSR fast path
// (HypercubeChannel) and the legacy per-dimension vector engine
// (LegacyHypercubeChannel) share one dimension-ordered hop schedule, so
// their inboxes — contents AND per-inbox order — must match element for
// element, as must the per-dimension traffic counters.  Also covers epoch
// reuse across rounds (stale slices never leak), and holds the computed
// collectives to the per-node broadcast / recursive-doubling / scan
// schedules (tests/support/reference_engines.hpp) bit for bit, with the
// schedules run serially and on a thread pool.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "gossip/hypercube.hpp"
#include "support/reference_engines.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace lpt::gossip {
namespace {

/// The pre-CSR reference engine: dimension-ordered routing on per-dimension
/// vectors-of-vectors, double-buffered per step.  Same hop schedule as
/// HypercubeChannel — node-order traversal, per-node arrival order — so the
/// two engines' inboxes must match element for element.  It lives here (not
/// in src/) for the same reason the legacy Mailbox/PullChannel references
/// live in bench/micro_substrates.cpp: it exists only to pin the fast
/// path's behavior.
template <typename M>
class LegacyHypercubeChannel {
 public:
  explicit LegacyHypercubeChannel(Hypercube& hc)
      : hc_(&hc), at_(hc.size()), next_(hc.size()), inbox_(hc.size()),
        dim_traffic_(hc.dimension(), 0) {}

  void send(NodeId from, NodeId to, M msg) {
    at_[from].push_back(Pending{to, std::move(msg)});
  }

  void route() {
    const std::size_t dim = hc_->dimension();
    dim_traffic_.assign(dim, 0);
    for (std::size_t k = 0; k < dim; ++k) {
      const NodeId bit = NodeId{1} << k;
      for (NodeId v = 0; v < at_.size(); ++v) {
        for (auto& p : at_[v]) {
          const NodeId target = ((v ^ p.to) & bit) ? (v ^ bit) : v;
          if (target != v) ++dim_traffic_[k];
          next_[target].push_back(std::move(p));
        }
        at_[v].clear();
      }
      at_.swap(next_);
    }
    for (NodeId v = 0; v < at_.size(); ++v) {
      inbox_[v].clear();
      for (auto& p : at_[v]) inbox_[v].push_back(std::move(p.msg));
      at_[v].clear();
    }
    hc_->charge_rounds(dim);
  }

  std::span<const M> inbox(NodeId v) const noexcept {
    return {inbox_[v].data(), inbox_[v].size()};
  }

  std::size_t dim_traffic(std::size_t k) const { return dim_traffic_[k]; }

 private:
  struct Pending {
    NodeId to;
    M msg;
  };

  Hypercube* hc_;
  std::vector<std::vector<Pending>> at_;
  std::vector<std::vector<Pending>> next_;
  std::vector<std::vector<M>> inbox_;
  std::vector<std::size_t> dim_traffic_;
};

// Payload carrying provenance so order mismatches are visible in failures.
struct TaggedMsg {
  std::uint32_t from = 0;
  std::uint32_t seq = 0;

  bool operator==(const TaggedMsg&) const = default;
};

TEST(HypercubeCsr, MatchesLegacyOnRandomTraffic) {
  for (const std::size_t n : {std::size_t{2}, std::size_t{8}, std::size_t{32},
                              std::size_t{64}}) {
    Hypercube hc_csr(n);
    Hypercube hc_leg(n);
    HypercubeChannel<TaggedMsg> csr(hc_csr);
    LegacyHypercubeChannel<TaggedMsg> leg(hc_leg);
    util::Rng rng(91 * n + 5);
    for (int round = 0; round < 6; ++round) {
      const std::size_t m = rng.below(4 * n);
      for (std::uint32_t seq = 0; seq < m; ++seq) {
        const auto from = static_cast<NodeId>(rng.below(n));
        const auto to = static_cast<NodeId>(rng.below(n));
        csr.send(from, to, TaggedMsg{from, seq});
        leg.send(from, to, TaggedMsg{from, seq});
      }
      csr.route();
      leg.route();
      for (NodeId v = 0; v < n; ++v) {
        const auto a = csr.inbox(v);
        const auto b = leg.inbox(v);
        ASSERT_EQ(a.size(), b.size()) << "n=" << n << " round=" << round
                                      << " node=" << v;
        for (std::size_t k = 0; k < a.size(); ++k) {
          EXPECT_EQ(a[k], b[k]) << "n=" << n << " round=" << round
                                << " node=" << v << " slot=" << k;
        }
      }
      for (std::size_t k = 0; k < hc_csr.dimension(); ++k) {
        EXPECT_EQ(csr.dim_traffic(k), leg.dim_traffic(k))
            << "n=" << n << " round=" << round << " dim=" << k;
      }
      EXPECT_EQ(hc_csr.rounds_used(), hc_leg.rounds_used());
    }
  }
}

TEST(HypercubeCsr, SameSourcePreservesSendOrderPerDestination) {
  Hypercube hc(16);
  HypercubeChannel<TaggedMsg> chan(hc);
  // Several messages from one source to each of two destinations, crossing
  // all four dimensions; within a destination the send order must survive.
  for (std::uint32_t seq = 0; seq < 8; ++seq) {
    chan.send(5, 10, TaggedMsg{5, seq});
    chan.send(5, 3, TaggedMsg{5, 100 + seq});
  }
  chan.route();
  const auto at10 = chan.inbox(10);
  const auto at3 = chan.inbox(3);
  ASSERT_EQ(at10.size(), 8u);
  ASSERT_EQ(at3.size(), 8u);
  for (std::uint32_t seq = 0; seq < 8; ++seq) {
    EXPECT_EQ(at10[seq].seq, seq);
    EXPECT_EQ(at3[seq].seq, 100 + seq);
  }
}

TEST(HypercubeCsr, RouteChargesDimensionRoundsAndCountsHops) {
  Hypercube hc(8);
  HypercubeChannel<int> chan(hc);
  // 0 -> 7 crosses every dimension once; 6 -> 7 only dimension 0.
  chan.send(0, 7, 1);
  chan.send(6, 7, 2);
  chan.route();
  EXPECT_EQ(hc.rounds_used(), 3u);
  EXPECT_EQ(chan.dim_traffic(0), 2u);
  EXPECT_EQ(chan.dim_traffic(1), 1u);
  EXPECT_EQ(chan.dim_traffic(2), 1u);
  const auto got = chan.inbox(7);
  ASSERT_EQ(got.size(), 2u);
  // Node-order traversal: the message starting at node 0 stays ahead of
  // the one starting at node 6 through every step.
  EXPECT_EQ(got[0], 1);
  EXPECT_EQ(got[1], 2);
}

TEST(HypercubeCsr, EpochReuseAcrossRoundsLeavesNoStaleSlices) {
  Hypercube hc(16);
  HypercubeChannel<int> chan(hc);
  chan.send(1, 9, 42);
  chan.send(2, 9, 43);
  chan.route();
  ASSERT_EQ(chan.inbox(9).size(), 2u);

  // Next round: traffic only to node 4.  Node 9's old slice must not leak
  // through the epoch stamp, and the channel must deliver fresh data.
  chan.send(7, 4, 77);
  chan.route();
  EXPECT_TRUE(chan.inbox(9).empty());
  ASSERT_EQ(chan.inbox(4).size(), 1u);
  EXPECT_EQ(chan.inbox(4)[0], 77);

  // An empty round clears everything.
  chan.route();
  EXPECT_TRUE(chan.inbox(4).empty());
  EXPECT_TRUE(chan.inbox(9).empty());
  EXPECT_EQ(chan.pending(), 0u);
}

TEST(HypercubeCsr, SelfDeliveryAndSingleNodeCube) {
  Hypercube hc1(1);
  HypercubeChannel<int> chan1(hc1);
  chan1.send(0, 0, 5);
  chan1.route();
  ASSERT_EQ(chan1.inbox(0).size(), 1u);
  EXPECT_EQ(chan1.inbox(0)[0], 5);
  EXPECT_EQ(hc1.rounds_used(), 0u);  // dimension 0: no hops needed

  Hypercube hc(8);
  HypercubeChannel<int> chan(hc);
  chan.send(3, 3, 9);  // message already at its destination
  chan.route();
  ASSERT_EQ(chan.inbox(3).size(), 1u);
  for (std::size_t k = 0; k < hc.dimension(); ++k) {
    EXPECT_EQ(chan.dim_traffic(k), 0u);
  }
}

TEST(HypercubeCollectives, RealDataMovementMatchesSpec) {
  Hypercube hc(16);
  std::vector<double> vals(16);
  std::iota(vals.begin(), vals.end(), 1.0);

  std::vector<double> bc(vals);
  hc.broadcast(bc, 5);
  for (const double v : bc) EXPECT_EQ(v, 6.0);

  const double total =
      hc.all_reduce(vals, 0.0, [](double a, double b) { return a + b; });
  EXPECT_EQ(total, 136.0);

  std::vector<double> pre(vals);
  const double ps_total = hc.prefix_sum(pre);
  EXPECT_EQ(ps_total, 136.0);
  double expect = 0.0;
  for (std::size_t v = 0; v < 16; ++v) {
    EXPECT_EQ(pre[v], expect);
    expect += vals[v];
  }
  EXPECT_EQ(hc.rounds_used(), 3 * 4u);
}

// Non-integer doubles of mixed sign and magnitude, with exact zeros of both
// signs, so every rounding step and the +0/-0 sum rule is exercised.
std::vector<double> mixed_values(std::size_t n, util::Rng& rng) {
  std::vector<double> vals(n);
  for (double& v : vals) {
    switch (rng.below(6)) {
      case 0: v = 0.0; break;
      case 1: v = -0.0; break;
      case 2: v = rng.uniform(-1.0, 1.0) * 1e-9; break;
      case 3: v = rng.uniform(-1.0, 1.0) * 1e12; break;
      default: v = rng.uniform(-3.0, 3.0); break;
    }
  }
  return vals;
}

// Bitwise equality (distinguishes +0 from -0, unlike ==).
::testing::AssertionResult same_bits(const std::vector<double>& a,
                                     const std::vector<double>& b) {
  if (a.size() != b.size()) return ::testing::AssertionFailure() << "size";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return ::testing::AssertionFailure()
             << "slot " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

struct Pair {
  double weight = 0.0;
  std::uint32_t any = 0;
};

TEST(HypercubeCollectives, ComputedFormsMatchPerNodeSchedules) {
  util::ThreadPool pool(3);
  util::ThreadPool* const pools[] = {nullptr, &pool};
  for (util::ThreadPool* tp : pools) {
    for (std::size_t dim = 0; dim <= 12; ++dim) {
      const std::size_t n = std::size_t{1} << dim;
      SCOPED_TRACE("n=" + std::to_string(n) + (tp ? " pooled" : " serial"));
      util::Rng rng(1000 + dim);
      Hypercube fast(n);
      Hypercube ref(n);
      for (int rep = 0; rep < 3; ++rep) {
        const auto vals = mixed_values(n, rng);

        std::vector<double> pre_fast(vals), pre_ref(vals);
        const double tot_fast = fast.prefix_sum(pre_fast);
        const double tot_ref = testsupport::legacy_prefix_sum(ref, tp, pre_ref);
        EXPECT_TRUE(same_bits({tot_fast}, {tot_ref}));
        EXPECT_TRUE(same_bits(pre_fast, pre_ref));

        const auto plus = [](double a, double b) { return a + b; };
        EXPECT_TRUE(same_bits(
            {fast.all_reduce(vals, -0.0, plus)},
            {testsupport::legacy_all_reduce(ref, tp, vals, -0.0, plus)}));
        // A two-field combine, as the Clarkson violation reduce uses.
        std::vector<Pair> pairs(n);
        for (std::size_t v = 0; v < n; ++v) {
          pairs[v] = {vals[v], static_cast<std::uint32_t>(rng.below(2))};
        }
        const auto pair_op = [](const Pair& a, const Pair& b) {
          return Pair{a.weight + b.weight, a.any | b.any};
        };
        const Pair pf = fast.all_reduce(pairs, Pair{}, pair_op);
        const Pair pr =
            testsupport::legacy_all_reduce(ref, tp, pairs, Pair{}, pair_op);
        EXPECT_TRUE(same_bits({pf.weight}, {pr.weight}));
        EXPECT_EQ(pf.any, pr.any);

        const std::size_t root = rng.below(n);
        std::vector<double> bc_fast(vals), bc_ref(vals);
        fast.broadcast(bc_fast, root);
        testsupport::legacy_broadcast(ref, tp, bc_ref, root);
        EXPECT_TRUE(same_bits(bc_fast, bc_ref));
      }
      EXPECT_EQ(fast.rounds_used(), ref.rounds_used());
    }
  }
}

TEST(HypercubeCollectives, BroadcastMatchesPerNodeScheduleFromEveryRoot) {
  for (std::size_t dim = 0; dim <= 5; ++dim) {
    const std::size_t n = std::size_t{1} << dim;
    util::Rng rng(2000 + dim);
    const auto vals = mixed_values(n, rng);
    for (std::size_t root = 0; root < n; ++root) {
      Hypercube fast(n);
      Hypercube ref(n);
      std::vector<double> bc_fast(vals), bc_ref(vals);
      fast.broadcast(bc_fast, root);
      testsupport::legacy_broadcast(ref, nullptr, bc_ref, root);
      EXPECT_TRUE(same_bits(bc_fast, bc_ref)) << "n=" << n << " root=" << root;
      EXPECT_EQ(fast.rounds_used(), ref.rounds_used());
    }
  }
}

}  // namespace
}  // namespace lpt::gossip
