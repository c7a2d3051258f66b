#include "problems/hitting_set_problem.hpp"

#include <algorithm>
#include <utility>

#include "shard/wire.hpp"
#include "util/assert.hpp"

namespace lpt::problems {

SetSystem::SetSystem(std::size_t universe_size,
                     std::vector<std::vector<std::uint32_t>> sets)
    : n_(universe_size), sets_(std::move(sets)), inverted_(universe_size) {
  for (std::size_t j = 0; j < sets_.size(); ++j) {
    auto& s = sets_[j];
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    LPT_CHECK_MSG(s.empty() || s.back() < n_,
                  "SetSystem: set element outside the universe");
    LPT_CHECK_MSG(!s.empty(), "SetSystem: empty set can never be hit");
    for (auto x : s) inverted_[x].push_back(static_cast<std::uint32_t>(j));
  }
  for (const auto& lists : inverted_) {
    max_freq_ = std::max(max_freq_, lists.size());
  }
}

void wire_put(gossip::Encoder& e, const SetSystem& sys) {
  e.put_u32(static_cast<std::uint32_t>(sys.universe_size()));
  e.put_u32(static_cast<std::uint32_t>(sys.set_count()));
  for (const auto& set : sys.sets()) {
    shard::put_seq(e, std::span<const std::uint32_t>(set));
  }
}

SetSystem wire_make(gossip::Decoder& d, std::type_identity<SetSystem>) {
  const std::uint32_t universe = d.get_u32();
  const std::uint32_t count = d.get_u32();
  // Each set takes at least its length prefix: reject a corrupt count
  // before allocating for it.
  LPT_CHECK_MSG(count <= d.remaining() / sizeof(std::uint32_t),
                "SetSystem wire: set count too large");
  std::vector<std::vector<std::uint32_t>> sets(count);
  for (auto& set : sets) shard::get_seq(d, set);
  return SetSystem(universe, std::move(sets));
}

void wire_put(gossip::Encoder& e, const HittingSetProblem& p) {
  wire_put(e, p.system());
}

HittingSetProblem wire_make(gossip::Decoder& d,
                            std::type_identity<HittingSetProblem>) {
  return HittingSetProblem(std::make_shared<const SetSystem>(
      wire_make(d, std::type_identity<SetSystem>{})));
}

std::size_t HittingSetProblem::value_of(std::span<const Element> u) const {
  std::vector<std::uint8_t> hit;
  return mark_hit(u, hit);
}

std::size_t HittingSetProblem::mark_hit(std::span<const Element> u,
                                        std::vector<std::uint8_t>& hit) const {
  hit.assign(sys_->set_count(), 0);
  std::size_t count = 0;
  for (auto x : u) {
    for (auto j : sys_->sets_containing(x)) {
      if (!hit[j]) {
        hit[j] = 1;
        ++count;
      }
    }
  }
  return count;
}

std::vector<std::uint32_t> HittingSetProblem::unhit_sets(
    std::span<const Element> u) const {
  std::vector<std::uint8_t> hit;
  mark_hit(u, hit);
  std::vector<std::uint32_t> out;
  for (std::uint32_t j = 0; j < hit.size(); ++j) {
    if (!hit[j]) out.push_back(j);
  }
  return out;
}

std::vector<HittingSetProblem::Element>
HittingSetProblem::greedy_hitting_set() const {
  const std::size_t s = sys_->set_count();
  std::vector<std::uint8_t> hit(s, 0);
  std::size_t covered = 0;
  std::vector<Element> result;
  std::vector<std::size_t> gain(sys_->universe_size(), 0);
  for (std::uint32_t x = 0; x < sys_->universe_size(); ++x) {
    gain[x] = sys_->sets_containing(x).size();
  }
  while (covered < s) {
    // Pick the element hitting the most currently-unhit sets.
    std::uint32_t best = 0;
    std::size_t best_gain = 0;
    for (std::uint32_t x = 0; x < sys_->universe_size(); ++x) {
      if (gain[x] > best_gain) {
        best_gain = gain[x];
        best = x;
      }
    }
    LPT_CHECK_MSG(best_gain > 0, "greedy: some set has no member");
    result.push_back(best);
    for (auto j : sys_->sets_containing(best)) {
      if (!hit[j]) {
        hit[j] = 1;
        ++covered;
        for (auto y : sys_->set(j)) --gain[y];
      }
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

namespace {

bool search_hs(const SetSystem& sys, const std::vector<std::uint32_t>& unhit,
               std::size_t budget, std::vector<std::uint32_t>& partial,
               std::vector<std::uint8_t>& hit) {
  // Find the first unhit set; branch on its members.
  std::uint32_t target = UINT32_MAX;
  for (auto j : unhit) {
    if (!hit[j]) {
      target = j;
      break;
    }
  }
  if (target == UINT32_MAX) return true;  // everything hit
  if (budget == 0) return false;
  for (auto x : sys.set(target)) {
    std::vector<std::uint32_t> flipped;
    for (auto j : sys.sets_containing(x)) {
      if (!hit[j]) {
        hit[j] = 1;
        flipped.push_back(j);
      }
    }
    partial.push_back(x);
    if (search_hs(sys, unhit, budget - 1, partial, hit)) return true;
    partial.pop_back();
    for (auto j : flipped) hit[j] = 0;
  }
  return false;
}

}  // namespace

std::vector<HittingSetProblem::Element>
HittingSetProblem::exact_minimum_hitting_set(std::size_t size_cap) const {
  std::vector<std::uint32_t> all_sets(sys_->set_count());
  for (std::uint32_t j = 0; j < all_sets.size(); ++j) all_sets[j] = j;
  for (std::size_t k = 0; k <= size_cap; ++k) {
    std::vector<std::uint32_t> partial;
    std::vector<std::uint8_t> hit(sys_->set_count(), 0);
    if (search_hs(*sys_, all_sets, k, partial, hit)) {
      std::sort(partial.begin(), partial.end());
      return partial;
    }
  }
  return {};  // no hitting set within the cap
}

}  // namespace lpt::problems
