// The gossip termination-detection protocol (paper Algorithm 3 + Lemma 12).
//
// When a node's sample produces no local violators, it injects a candidate
// entry (t, B, 1) — iteration stamp, optimal basis of its sample, validity
// bit — and gossips it.  Nodes merge entries per stamp keeping the maximum
// f(B) (ties broken by the lexicographic basis order, as the paper
// prescribes), clear the bit when a local element violates B, and after the
// entry matures (c log n rounds) output f(B) iff the bit survived.
//
// Lemma 12 guarantees: once some node has sampled an optimal basis, all
// nodes output a value equal to f(H) within O(log n) rounds w.h.p., and no
// node ever outputs a non-optimal value.  The property tests exercise both
// directions.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "core/lp_type.hpp"
#include "gossip/mailbox.hpp"
#include "gossip/network.hpp"

namespace lpt::core {

template <LpTypeProblem P>
class TerminationProtocol {
 public:
  using Element = typename P::Element;
  using Solution = typename P::Solution;

  struct Message {
    std::uint32_t t = 0;  // iteration the candidate was injected at
    std::uint8_t x = 1;   // validity bit
    std::vector<Element> basis;

    friend std::size_t wire_size(const Message& m) noexcept {
      return sizeof m.t + sizeof m.x + m.basis.size() * sizeof(Element);
    }
  };

  /// maturity = the paper's c*log n age threshold, in rounds.
  TerminationProtocol(const P& p, gossip::Network& net, std::size_t maturity)
      : p_(&p),
        net_(&net),
        mailbox_(net),
        maturity_(maturity),
        entries_(net.size()),
        outputs_(net.size()) {}

  /// Node v observed W_i = 0 at iteration t: inject (t, basis(R_i), 1).
  void inject(gossip::NodeId v, std::uint32_t t, const Solution& sol) {
    if (outputs_[v]) return;
    merge(v, t, Entry{sol, 1});
    mailbox_.push(v, Message{t, 1, sol.basis});
  }

  /// One protocol round at iteration `t_now`.  `local_view(v)` must return a
  /// std::span<const Element> of node v's current elements (H(v_i)), used
  /// for the validity re-checks.
  template <typename LocalView>
  void round(std::uint32_t t_now, LocalView&& local_view) {
    mailbox_.deliver();
    const std::size_t n = entries_.size();
    for (gossip::NodeId v = 0; v < n; ++v) {
      if (outputs_[v] || net_->asleep(v)) continue;
      // Lines 1-8: merge received entries.
      for (const auto& msg : mailbox_.inbox(v)) {
        merge(v, msg.t, Entry{p_->from_basis(msg.basis), msg.x});
      }
      // Lines 9-15: validity check, maturity, forwarding.
      std::span<const Element> view = local_view(v);
      auto it = entries_[v].begin();
      while (it != entries_[v].end()) {
        Entry& e = it->second;
        if (e.x == 1) {
          for (const auto& h : view) {
            if (p_->violates(e.sol, h)) {
              e.x = 0;  // B is invalid
              break;
            }
          }
        }
        if (it->first + maturity_ < t_now) {  // B is mature
          if (e.x == 1) {
            outputs_[v] = e.sol;
            entries_[v].clear();
            break;
          }
          it = entries_[v].erase(it);
          continue;
        }
        mailbox_.push(v, Message{it->first, e.x, e.sol.basis});
        ++it;
      }
    }
  }

  const std::optional<Solution>& output(gossip::NodeId v) const noexcept {
    return outputs_[v];
  }
  bool all_output() const noexcept {
    for (const auto& o : outputs_) {
      if (!o) return false;
    }
    return true;
  }
  std::size_t output_count() const noexcept {
    std::size_t c = 0;
    for (const auto& o : outputs_) c += o.has_value() ? 1 : 0;
    return c;
  }

 private:
  struct Entry {
    Solution sol;
    std::uint8_t x = 1;
  };

  void merge(gossip::NodeId v, std::uint32_t t, Entry incoming) {
    auto [it, inserted] = entries_[v].try_emplace(t, incoming);
    if (inserted) return;
    Entry& mine = it->second;
    const int cmp = solution_order(*p_, incoming.sol, mine.sol);
    if (cmp > 0) {
      mine = std::move(incoming);  // replace by the larger f(B)
    } else if (cmp == 0 && incoming.x < mine.x) {
      mine.x = incoming.x;  // same basis: validity bit is min(x, x')
    }
    // cmp < 0: discard the incoming entry.
  }

  const P* p_;
  gossip::Network* net_;
  gossip::Mailbox<Message> mailbox_;
  std::size_t maturity_;
  std::vector<std::map<std::uint32_t, Entry>> entries_;
  std::vector<std::optional<Solution>> outputs_;
};

}  // namespace lpt::core
