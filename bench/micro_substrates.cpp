// MICRO — microbenchmarks for the substrate kernels the distributed
// engines spend their time in: Welzl minidisk, Seidel LP, violation
// testing, the distinct-sample selection of Section 2.1, the sequential
// Clarkson solver, and the gossip channels.
//
// Three parts:
//   1. google-benchmark timings of the individual kernels (filter with
//      --benchmark_filter=...).
//   2. A "substrate showdown" that times the CSR Mailbox/PullChannel
//      against reference implementations of the previous vector-of-vectors
//      substrate at n = 2^16 and checks that deliver cost scales with
//      messages (not n).
//   3. A "sampler showdown" that times one node's Section 2.1 draw +
//      select on the engines' id path against the live-store reference at
//      n = 2^12, and exits 1 unless the samples and RNG states match bit
//      for bit.
// Parts 2 and 3 write BENCH_micro_substrates.json.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "reference_sampler.hpp"
#include "reference_store.hpp"
#include "core/clarkson.hpp"
#include "core/sampling.hpp"
#include "geometry/welzl.hpp"
#include "gossip/mailbox.hpp"
#include "lp/seidel.hpp"
#include "problems/min_disk.hpp"
#include "util/rng.hpp"
#include "workloads/disk_data.hpp"
#include "workloads/lp_data.hpp"

namespace {

using namespace lpt;

// ---------------------------------------------------------------------------
// Reference (pre-CSR) substrate: one std::vector per node, cleared across
// the whole node set every round, per-message fault draws.  Kept here as
// the measurement baseline for the BENCH json.
// ---------------------------------------------------------------------------

template <typename M>
class LegacyMailbox {
 public:
  explicit LegacyMailbox(gossip::Network& net)
      : net_(&net), inboxes_(net.size()) {}

  void push(gossip::NodeId from, M msg) {
    const gossip::NodeId to = net_->random_peer();
    net_->meter().add_push(from, gossip::wire_size(msg));
    outbox_.emplace_back(to, std::move(msg));
  }

  void deliver() {
    for (auto& ib : inboxes_) ib.clear();
    for (auto& [to, msg] : outbox_) {
      if (net_->drop_push()) continue;
      inboxes_[to].push_back(std::move(msg));
    }
    outbox_.clear();
  }

  const std::vector<M>& inbox(gossip::NodeId v) const { return inboxes_[v]; }

 private:
  gossip::Network* net_;
  std::vector<std::pair<gossip::NodeId, M>> outbox_;
  std::vector<std::vector<M>> inboxes_;
};

template <typename A>
class LegacyPullChannel {
 public:
  explicit LegacyPullChannel(gossip::Network& net)
      : net_(&net), responses_(net.size()), answered_(net.size(), 0) {}

  void request(gossip::NodeId from) {
    net_->meter().add_pull(from, 0);
    requests_.emplace_back(from, net_->random_peer());
  }

  template <typename F>
  void resolve(F&& responder) {
    for (auto& r : responses_) r.clear();
    std::fill(answered_.begin(), answered_.end(), std::uint32_t{0});
    for (const auto& [from, target] : requests_) {
      if (net_->asleep(target) || net_->drop_response()) continue;
      std::optional<A> ans = responder(target);
      if (ans) {
        net_->meter().add_response_bytes(gossip::wire_size(*ans));
        ++answered_[target];
        responses_[from].push_back(std::move(*ans));
      }
    }
    requests_.clear();
  }

  const std::vector<A>& responses(gossip::NodeId v) const {
    return responses_[v];
  }

 private:
  gossip::Network* net_;
  std::vector<std::pair<gossip::NodeId, gossip::NodeId>> requests_;
  std::vector<std::vector<A>> responses_;
  std::vector<std::uint32_t> answered_;
};


// ---------------------------------------------------------------------------
// google-benchmark kernels
// ---------------------------------------------------------------------------

void BM_WelzlMinDisk(benchmark::State& state) {
  util::Rng rng(1);
  const auto pts = workloads::generate_disk_dataset(
      workloads::DiskDataset::kTripleDisk,
      static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    util::Rng r(2);
    benchmark::DoNotOptimize(geom::min_disk(pts, r));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WelzlMinDisk)->Arg(54)->Arg(256)->Arg(4096);

void BM_CanonicalSolve(benchmark::State& state) {
  util::Rng rng(3);
  const auto pts = workloads::generate_disk_dataset(
      workloads::DiskDataset::kTriangle,
      static_cast<std::size_t>(state.range(0)), rng);
  problems::MinDisk p;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.solve(pts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CanonicalSolve)->Arg(54)->Arg(1024);

void BM_ViolationScan(benchmark::State& state) {
  util::Rng rng(5);
  const auto pts = workloads::generate_disk_dataset(
      workloads::DiskDataset::kHull,
      static_cast<std::size_t>(state.range(0)), rng);
  problems::MinDisk p;
  std::vector<geom::Vec2> sub(pts.begin(), pts.begin() + 20);
  const auto sol = p.solve(sub);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::count_violators(p, sol, pts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ViolationScan)->Arg(1024)->Arg(16384);

void BM_SeidelLp(benchmark::State& state) {
  util::Rng rng(7);
  const auto inst = workloads::generate_lp_instance(
      static_cast<std::size_t>(state.range(0)), rng);
  const lp::Seidel2D solver(inst.objective);
  for (auto _ : state) {
    util::Rng r(11);
    benchmark::DoNotOptimize(solver.solve(inst.constraints, r));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SeidelLp)->Arg(64)->Arg(1024)->Arg(8192);

void BM_SelectDistinct(benchmark::State& state) {
  util::Rng rng(13);
  std::vector<geom::Vec2> responses;
  for (int i = 0; i < state.range(0); ++i) {
    responses.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1)});
  }
  for (auto _ : state) {
    auto copy = responses;
    benchmark::DoNotOptimize(
        core::select_distinct(std::move(copy), 54, rng, false));
  }
}
BENCHMARK(BM_SelectDistinct)->Arg(140)->Arg(280);

void BM_SequentialClarkson(benchmark::State& state) {
  util::Rng rng(17);
  const auto pts = workloads::generate_disk_dataset(
      workloads::DiskDataset::kTripleDisk,
      static_cast<std::size_t>(state.range(0)), rng);
  problems::MinDisk p;
  for (auto _ : state) {
    util::Rng r(19);
    benchmark::DoNotOptimize(core::clarkson_solve(p, pts, r));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SequentialClarkson)->Arg(1024)->Arg(8192);

void BM_MailboxRouting(benchmark::State& state) {
  const std::size_t n = 1024;
  for (auto _ : state) {
    gossip::Network net(n, util::Rng(23));
    gossip::Mailbox<geom::Vec2> mb(net);
    net.begin_round();
    for (gossip::NodeId v = 0; v < n; ++v) {
      for (int k = 0; k < 8; ++k) mb.push(v, geom::Vec2{1.0, 2.0});
    }
    mb.deliver();
    benchmark::DoNotOptimize(mb.inbox(0).size());
  }
  state.SetItemsProcessed(state.iterations() * 8 * 1024);
}
BENCHMARK(BM_MailboxRouting);

// CSR deliver at scale: cost tracks the message count, not the node count.
void BM_MailboxDeliverSparse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t msgs = 8192;
  gossip::Network net(n, util::Rng(27));
  gossip::Mailbox<geom::Vec2> mb(net);
  net.begin_round();
  for (auto _ : state) {
    for (std::size_t k = 0; k < msgs; ++k) {
      mb.push(static_cast<gossip::NodeId>(k % n), geom::Vec2{1.0, 2.0});
    }
    mb.deliver();
    benchmark::DoNotOptimize(mb.last_delivered_messages());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(msgs));
}
BENCHMARK(BM_MailboxDeliverSparse)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_PullChannelResolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  gossip::Network net(n, util::Rng(31));
  gossip::PullChannel<double> ch(net);
  net.begin_round();
  const std::size_t requesters = std::min<std::size_t>(n, 4096);
  for (auto _ : state) {
    for (std::size_t v = 0; v < requesters; ++v) {
      for (int k = 0; k < 4; ++k) ch.request(static_cast<gossip::NodeId>(v));
    }
    ch.resolve([](gossip::NodeId target) {
      return std::optional<double>(static_cast<double>(target));
    });
    benchmark::DoNotOptimize(ch.responses(0).size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(requesters * 4));
}
BENCHMARK(BM_PullChannelResolve)->Arg(1 << 12)->Arg(1 << 16);

void BM_WeightedSampler(benchmark::State& state) {
  util::Rng rng(29);
  util::WeightedSampler ws(static_cast<std::size_t>(state.range(0)), 1.0);
  for (int i = 0; i < state.range(0) / 4; ++i) {
    ws.scale(rng.below(static_cast<std::uint64_t>(state.range(0))), 2.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ws.sample(rng));
  }
}
BENCHMARK(BM_WeightedSampler)->Arg(1024)->Arg(65536);

// ---------------------------------------------------------------------------
// Substrate showdown: CSR vs the legacy reference at n = 2^16.
// ---------------------------------------------------------------------------

struct Throughput {
  double per_sec = 0.0;  // items routed per second
};

template <typename PushFn, typename DeliverFn>
Throughput time_deliver(std::size_t iters, std::size_t msgs, PushFn&& push,
                        DeliverFn&& deliver) {
  bench::WallTimer t;
  for (std::size_t it = 0; it < iters; ++it) {
    push(msgs);
    deliver();
  }
  const double s = t.seconds();
  return {s > 0.0 ? static_cast<double>(iters * msgs) / s : 0.0};
}

void substrate_showdown(bench::BenchJson& json) {
  constexpr std::size_t kN = 1 << 16;
  constexpr std::size_t kIters = 60;

  std::printf("\n=== substrate showdown (n = 2^16) ===\n");

  // --- Mailbox deliver at two round densities.  The late rounds of every
  // engine are sparse (a handful of W_i copies over all n inboxes), which
  // is exactly where the legacy per-inbox clears hurt. ---
  auto mail_throughput = [&](auto& mailbox, auto& net, std::size_t msgs) {
    net.begin_round();
    return time_deliver(
        kIters, msgs,
        [&](std::size_t m) {
          for (std::size_t k = 0; k < m; ++k) {
            mailbox.push(static_cast<gossip::NodeId>(k & (kN - 1)),
                         geom::Vec2{1.0, 2.0});
          }
        },
        [&] { mailbox.deliver(); });
  };

  for (const std::size_t msgs : {kN / 64, kN / 8}) {
    gossip::Network net_new(kN, util::Rng(41));
    gossip::Mailbox<geom::Vec2> mb_new(net_new);
    const auto csr_mail = mail_throughput(mb_new, net_new, msgs);

    gossip::Network net_old(kN, util::Rng(41));
    LegacyMailbox<geom::Vec2> mb_old(net_old);
    const auto legacy_mail = mail_throughput(mb_old, net_old, msgs);

    const double ratio = legacy_mail.per_sec > 0.0
                             ? csr_mail.per_sec / legacy_mail.per_sec
                             : 0.0;
    std::printf("Mailbox.deliver (%5zu msgs)  csr: %10.0f msg/s   legacy: "
                "%10.0f msg/s   speedup: %.2fx\n",
                msgs, csr_mail.per_sec, legacy_mail.per_sec, ratio);
    const char* tag = msgs == kN / 64 ? "sparse" : "moderate";
    json.set(std::string("mailbox_csr_msgs_per_sec_") + tag,
             csr_mail.per_sec);
    json.set(std::string("mailbox_legacy_msgs_per_sec_") + tag,
             legacy_mail.per_sec);
    json.set(std::string("mailbox_speedup_") + tag, ratio);
  }

  // --- PullChannel resolve.  Requester counts mirror the engines' late
  // rounds (the Section 2.3 seed channel and the hitting-set tail), where
  // a small subset of nodes still pulls while the legacy substrate keeps
  // clearing all n response vectors. ---
  constexpr std::size_t kRequesters = 512;
  constexpr std::size_t kPullsEach = 8;
  constexpr std::size_t kPulls = kRequesters * kPullsEach;
  gossip::Network net_pn(kN, util::Rng(43));
  gossip::PullChannel<double> ch_new(net_pn);
  net_pn.begin_round();
  const auto csr_pull = time_deliver(
      kIters, kPulls,
      [&](std::size_t) {
        for (std::size_t v = 0; v < kRequesters; ++v) {
          for (std::size_t k = 0; k < kPullsEach; ++k) {
            ch_new.request(static_cast<gossip::NodeId>(v));
          }
        }
      },
      [&] {
        ch_new.resolve([](gossip::NodeId target) {
          return std::optional<double>(static_cast<double>(target));
        });
      });

  gossip::Network net_po(kN, util::Rng(43));
  LegacyPullChannel<double> ch_old(net_po);
  net_po.begin_round();
  const auto legacy_pull = time_deliver(
      kIters, kPulls,
      [&](std::size_t) {
        for (std::size_t v = 0; v < kRequesters; ++v) {
          for (std::size_t k = 0; k < kPullsEach; ++k) {
            ch_old.request(static_cast<gossip::NodeId>(v));
          }
        }
      },
      [&] {
        ch_old.resolve([](gossip::NodeId target) {
          return std::optional<double>(static_cast<double>(target));
        });
      });

  const double pull_ratio =
      legacy_pull.per_sec > 0.0 ? csr_pull.per_sec / legacy_pull.per_sec : 0.0;
  std::printf("PullChannel.resolve csr: %8.0f req/s   legacy: %10.0f req/s   "
              "speedup: %.2fx\n",
              csr_pull.per_sec, legacy_pull.per_sec, pull_ratio);

  // --- NodeStore showdown: slab-backed store vs the legacy per-node
  // vectors on the engines' filter-pass shape — n nodes each holding one
  // original, a small active set holding copies.  The legacy pass walks
  // all n store headers (one heap block each); the slab pass visits only
  // the copy-holders, and |H(V)| is O(1) instead of an n-header walk. ---
  {
    constexpr std::size_t kHolders = 256;
    constexpr std::size_t kCopies = 4;
    constexpr std::size_t kPassIters = 400;

    gossip::NodeStore<geom::Vec2> slab(kN);
    std::vector<bench::ReferenceNodeStore<geom::Vec2>> legacy(kN);
    for (std::size_t v = 0; v < kN; ++v) {
      const geom::Vec2 h{static_cast<double>(v), 1.0};
      slab.add_original(static_cast<gossip::NodeId>(v), h);
      legacy[v].add_original(h);
    }
    for (std::size_t j = 0; j < kHolders; ++j) {
      const auto v = static_cast<gossip::NodeId>((j * 63) % kN);
      for (std::size_t c = 0; c < kCopies; ++c) {
        const geom::Vec2 h{static_cast<double>(j), static_cast<double>(c)};
        slab.add_copy(v, h);
        legacy[v].add_copy(h);
      }
    }
    std::vector<util::Rng> rng_a, rng_b;
    for (std::size_t v = 0; v < kN; ++v) {
      rng_a.emplace_back(v);
      rng_b.emplace_back(v);
    }
    // keep probability 1.0: every copy survives, so each timed pass does
    // identical work and the holder set stays fixed.
    bench::WallTimer t_slab;
    std::size_t visited = 0;
    for (std::size_t it = 0; it < kPassIters; ++it) {
      visited = slab.filter_copies(
          1.0, [&](gossip::NodeId v) -> util::Rng& { return rng_a[v]; });
    }
    const double slab_s = t_slab.seconds();
    bench::WallTimer t_legacy;
    for (std::size_t it = 0; it < kPassIters; ++it) {
      for (std::size_t v = 0; v < kN; ++v) legacy[v].filter(rng_b[v], 1.0);
    }
    const double legacy_s = t_legacy.seconds();
    const double slab_ps = slab_s > 0.0 ? kPassIters / slab_s : 0.0;
    const double legacy_ps = legacy_s > 0.0 ? kPassIters / legacy_s : 0.0;
    const double store_ratio = legacy_ps > 0.0 ? slab_ps / legacy_ps : 0.0;
    std::printf(
        "NodeStore.filter (%zu holders of n=2^16)  slab: %8.0f pass/s "
        "(visits %zu)   legacy: %8.0f pass/s (visits all %zu)   "
        "speedup: %.2fx\n",
        kHolders, slab_ps, visited, legacy_ps, kN, store_ratio);
    json.set("store_filter_slab_passes_per_sec", slab_ps);
    json.set("store_filter_legacy_passes_per_sec", legacy_ps);
    json.set("store_filter_speedup", store_ratio);

    // The O(active) contract, as a hard counter (not a timing): the slab
    // pass must visit exactly the copy-holders.
    if (visited != kHolders) {
      std::fprintf(stderr,
                   "FAIL: slab filter pass visited %zu nodes, expected the "
                   "%zu copy-holders — sparse tracking regression\n",
                   visited, kHolders);
      std::exit(1);
    }
  }

  // --- Deliver cost scales with messages, not n (regression check) ---
  constexpr std::size_t kFixedMsgs = 8192;
  auto sparse_cost = [&](std::size_t n) {
    gossip::Network net(n, util::Rng(47));
    gossip::Mailbox<geom::Vec2> mb(net);
    net.begin_round();
    const auto tp = time_deliver(
        kIters, kFixedMsgs,
        [&](std::size_t m) {
          for (std::size_t k = 0; k < m; ++k) {
            mb.push(static_cast<gossip::NodeId>(k % n), geom::Vec2{1.0, 2.0});
          }
        },
        [&] { mb.deliver(); });
    return tp.per_sec;
  };
  const double small_n = sparse_cost(1 << 10);
  const double large_n = sparse_cost(1 << 20);
  const double scaling = large_n > 0.0 ? small_n / large_n : 0.0;
  std::printf("deliver msg/s, 8k msgs: n=2^10: %.0f   n=2^20: %.0f   "
              "cost ratio: %.2fx (a per-inbox clear would be ~%zux)\n",
              small_n, large_n, scaling,
              (std::size_t{1} << 20) / kFixedMsgs);

  json.set("pull_csr_reqs_per_sec", csr_pull.per_sec);
  json.set("pull_legacy_reqs_per_sec", legacy_pull.per_sec);
  json.set("pull_speedup", pull_ratio);
  json.set("deliver_sparse_n10_msgs_per_sec", small_n);
  json.set("deliver_sparse_n20_msgs_per_sec", large_n);
  json.set("deliver_n_scaling_cost_ratio", scaling);

  // Regression gate: growing n by 1024x may not blow a fixed-size deliver
  // up by anything near the ~128x a per-inbox clear would cost.  The CSR
  // op count is n-independent; the generous bound leaves room for the
  // cache-locality cost of the larger per-node index arrays.
  if (scaling > 32.0) {
    std::fprintf(stderr,
                 "FAIL: deliver cost grew %.1fx from n=2^10 to n=2^20 for a "
                 "fixed message count — CSR scaling regression\n",
                 scaling);
    std::exit(1);
  }
}

// ---------------------------------------------------------------------------
// Sampler showdown: one node's Section 2.1 draw + select at n = 2^12, the
// engines' id path (draw_pulls over a round-start StoreSnapshot,
// select_distinct_answers) vs the reference (the live-store answer loop,
// select_distinct_view's value hashing).
// ---------------------------------------------------------------------------

struct SamplerRates {
  double engine_ns = 0.0;     // per node, the snapshot build included
  double reference_ns = 0.0;  // per node
};

/// Times `rounds` rounds of every node's draw + select on both paths, on a
/// store shaped like the engines' round-start stores: n originals placed
/// uniformly at random (store sizes ~Poisson(1)) plus 0.6 n copies, about
/// the |H(V)| of a low-load round at n = 2^12.  Exits 1 unless every
/// node's sample and RNG state match bit for bit.
template <typename Element, typename MakeElement>
SamplerRates sampler_case(const char* label, std::size_t pulls,
                          std::size_t target, MakeElement make) {
  constexpr std::size_t kN = std::size_t{1} << 12;
  constexpr std::size_t kRounds = 12;
  gossip::NodeStore<Element> store(kN);
  util::Rng place(51);
  for (std::size_t i = 0; i < kN; ++i) {
    store.add_original(static_cast<gossip::NodeId>(place.below(kN)), make(i));
  }
  for (std::size_t i = 0; i < kN * 6 / 10; ++i) {
    store.add_copy(static_cast<gossip::NodeId>(place.below(kN)),
                   make(place.below(kN)));
  }
  gossip::Network net(kN, util::Rng(53));
  net.begin_round();
  const core::PullRound round = core::pull_round(net);

  std::vector<util::Rng> engine_rng;
  for (std::size_t v = 0; v < kN; ++v) {
    engine_rng.push_back(util::Rng(61).child(v));
  }
  std::vector<util::Rng> reference_rng = engine_rng;
  shard::StoreSnapshot<Element> snap;
  core::PullBuffer<Element> buf;
  bench::ReferencePullBuffer<Element> ref_buf;
  std::size_t mismatches = 0;
  std::size_t sampled = 0;
  double engine_s = 0.0;
  double reference_s = 0.0;
  for (std::size_t r = 0; r < kRounds; ++r) {
    // Alternate which path goes first, so host drift hits both alike.
    for (const bool engine_first : {r % 2 == 0, r % 2 != 0}) {
      if (engine_first) {
        bench::WallTimer t;
        snap.assign(store);
        for (std::size_t v = 0; v < kN; ++v) {
          const auto answers =
              core::draw_pulls(snap, round, pulls, engine_rng[v], buf);
          sampled += core::select_distinct_answers(snap, answers, target,
                                                   engine_rng[v], false, buf)
                         .sample.size();
        }
        engine_s += t.seconds();
      } else {
        bench::WallTimer t;
        for (std::size_t v = 0; v < kN; ++v) {
          const auto answers = bench::reference_draw_pulls(
              store, round, pulls, reference_rng[v], ref_buf);
          sampled += core::select_distinct_view(answers, target,
                                                reference_rng[v], false)
                         .sample.size();
        }
        reference_s += t.seconds();
      }
    }
  }
  // Untimed: one more round, node by node, compared bit for bit.
  for (std::size_t v = 0; v < kN; ++v) {
    const auto answers =
        core::draw_pulls(snap, round, pulls, engine_rng[v], buf);
    const auto got = core::select_distinct_answers(snap, answers, target,
                                                   engine_rng[v], false, buf);
    const auto ref_answers = bench::reference_draw_pulls(
        store, round, pulls, reference_rng[v], ref_buf);
    const auto want = core::select_distinct_view(ref_answers, target,
                                                 reference_rng[v], false);
    const bool same = got.success == want.success &&
                      got.sample.size() == want.sample.size() &&
                      std::memcmp(got.sample.data(), want.sample.data(),
                                  got.sample.size() * sizeof(Element)) == 0 &&
                      engine_rng[v].state() == reference_rng[v].state();
    mismatches += same ? 0 : 1;
  }
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "FAIL: sampler showdown %s: %zu of %zu nodes' samples or RNG "
                 "states differ between the id path and the reference\n",
                 label, mismatches, kN);
    std::exit(1);
  }
  const double per = 1e9 / static_cast<double>(kRounds * kN);
  SamplerRates rates{engine_s * per, reference_s * per};
  std::printf("%-8s (%3zu pulls, target %3zu)  id path: %8.0f ns/node   "
              "reference: %8.0f ns/node   speedup: %.2fx   (%zu sampled)\n",
              label, pulls, target, rates.engine_ns, rates.reference_ns,
              rates.engine_ns > 0.0 ? rates.reference_ns / rates.engine_ns
                                    : 0.0,
              sampled);
  return rates;
}

void sampler_showdown(bench::BenchJson& json) {
  std::printf("\n=== sampler showdown (n = 2^12, per node per round) ===\n");
  // min-disk (d = 3): target 6d^2 = 54, 2(54 + 13) + 1 = 135 pulls.
  const SamplerRates vec2 = sampler_case<geom::Vec2>(
      "Vec2", 135, 54, [](std::size_t i) {
        return geom::Vec2{static_cast<double>(i % 4096) * 0.25,
                          static_cast<double>(i / 4096)};
      });
  // hitting set (d = 4, 128 sets): target 210, 2(210 + 13) + 1 = 447 pulls.
  const SamplerRates ids = sampler_case<std::uint32_t>(
      "uint32_t", 447, 210,
      [](std::size_t i) { return static_cast<std::uint32_t>(i); });
  for (const auto& [tag, r] :
       {std::pair{"vec2", vec2}, std::pair{"u32", ids}}) {
    json.set(std::string("sampler_") + tag + "_engine_ns_per_node",
             r.engine_ns);
    json.set(std::string("sampler_") + tag + "_reference_ns_per_node",
             r.reference_ns);
    json.set(std::string("sampler_") + tag + "_speedup",
             r.engine_ns > 0.0 ? r.reference_ns / r.engine_ns : 0.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  lpt::bench::BenchJson json("micro_substrates");
  substrate_showdown(json);
  sampler_showdown(json);
  const auto path = json.write();
  if (!path.empty()) std::printf("[bench-json] wrote %s\n", path.c_str());
  return 0;
}
