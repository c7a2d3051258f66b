// The hitting set problem (X, S) and its LP-type view (paper Section 4).
//
// X = {0..n-1}; S = a collection of subsets of X.  f(U) = number of sets of
// S intersected by U — an LP-type problem whose combinatorial dimension can
// be much larger than the minimum hitting set size d.  Algorithm 6 finds a
// hitting set of size O(d log(ds)) regardless.
//
// Per the paper's model, every node knows S (it is part of the problem
// description, e.g. implicitly-defined geometric ranges), so the problem
// object is shared by all nodes of a run, and a shard worker receives S once
// in its bootstrap frame (the instance codecs below); only the *elements of
// X* are distributed / gossiped.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "gossip/codec.hpp"

namespace lpt::problems {

/// A finite set system over universe {0..universe_size-1}.
class SetSystem {
 public:
  SetSystem(std::size_t universe_size,
            std::vector<std::vector<std::uint32_t>> sets);

  std::size_t universe_size() const noexcept { return n_; }
  std::size_t set_count() const noexcept { return sets_.size(); }
  const std::vector<std::uint32_t>& set(std::size_t j) const noexcept {
    return sets_[j];
  }
  const std::vector<std::vector<std::uint32_t>>& sets() const noexcept {
    return sets_;
  }
  /// Indices of the sets containing element x.
  const std::vector<std::uint32_t>& sets_containing(
      std::uint32_t x) const noexcept {
    return inverted_[x];
  }
  /// Maximum element frequency (the f of f(1+eps)-approximation bounds).
  std::size_t max_frequency() const noexcept { return max_freq_; }

 private:
  std::size_t n_;
  std::vector<std::vector<std::uint32_t>> sets_;
  std::vector<std::vector<std::uint32_t>> inverted_;
  std::size_t max_freq_ = 0;
};

/// Instance codec (shard::WirableInstance).  Schema: u32 universe size ·
/// u32 set count · each set as a u32 seq.  Decoding runs the constructor,
/// which rebuilds the inverted lists and the max frequency.
void wire_put(gossip::Encoder& e, const SetSystem& sys);
SetSystem wire_make(gossip::Decoder& d, std::type_identity<SetSystem>);

class HittingSetProblem {
 public:
  using Element = std::uint32_t;

  explicit HittingSetProblem(std::shared_ptr<const SetSystem> sys)
      : sys_(std::move(sys)) {}

  const SetSystem& system() const noexcept { return *sys_; }

  /// f(U): number of sets of S intersected by U (duplicates in U are fine).
  std::size_t value_of(std::span<const Element> u) const;

  /// True iff U hits every set.
  bool is_hitting_set(std::span<const Element> u) const {
    return value_of(u) == sys_->set_count();
  }

  /// Mark (in `hit`, sized set_count) which sets U hits; returns the count.
  std::size_t mark_hit(std::span<const Element> u,
                       std::vector<std::uint8_t>& hit) const;

  /// Indices of sets NOT hit by U (the S_i of Algorithm 6).
  std::vector<std::uint32_t> unhit_sets(std::span<const Element> u) const;

  /// Greedy ln(n)-approximation baseline (classic; runs on one "node").
  std::vector<Element> greedy_hitting_set() const;

  /// Exact minimum hitting set by IDA-style branch and bound; exponential,
  /// for test-scale instances only (used to know the true d).
  std::vector<Element> exact_minimum_hitting_set(std::size_t size_cap) const;

 private:
  std::shared_ptr<const SetSystem> sys_;
};

/// Instance codec (shard::WirableInstance): the problem is its set system.
void wire_put(gossip::Encoder& e, const HittingSetProblem& p);
HittingSetProblem wire_make(gossip::Decoder& d,
                            std::type_identity<HittingSetProblem>);

}  // namespace lpt::problems
