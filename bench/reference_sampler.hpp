// The Section 2.1 pull sampler as the engines ran it before stage A read a
// flat round-start snapshot with dense ids: pulls answered straight from
// the live gossip::NodeStore (a branch per target on the store size), and
// answers deduplicated by hashing their values (core::select_distinct_view).
// Kept as the single bit-exactness / measurement reference for
// core::draw_pulls + core::select_distinct_answers — shared by the
// micro_substrates sampler showdown and tests/test_shard.cpp, the same
// arrangement as ReferenceNodeStore.  Semantics must stay frozen: all
// targets first, then per target the loss gap (under loss) and the answer
// index below(size); asleep targets and empty stores answer nothing and
// draw nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/sampling.hpp"
#include "gossip/mailbox.hpp"
#include "gossip/network.hpp"
#include "util/rng.hpp"

namespace lpt::bench {

template <typename Element>
struct ReferencePullBuffer {
  std::vector<gossip::NodeId> targets;
  std::vector<Element> responses;
};

/// One node's pulls against the live store; returns the answers' values in
/// pull order (a view into buf.responses, valid until the next call).
template <typename Element>
std::span<Element> reference_draw_pulls(const gossip::NodeStore<Element>& store,
                                        const core::PullRound& round,
                                        std::size_t pulls, util::Rng& rng,
                                        ReferencePullBuffer<Element>& buf) {
  util::Rng r = rng;
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

/// Wire bytes of a batch of answer values.
template <typename Element>
std::uint64_t reference_response_bytes(std::span<const Element> responses) {
  std::uint64_t bytes = 0;
  for (const Element& x : responses) bytes += gossip::wire_size(x);
  return bytes;
}

}  // namespace lpt::bench
