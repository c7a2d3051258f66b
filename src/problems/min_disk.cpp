#include "problems/min_disk.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "util/assert.hpp"

namespace lpt::problems {

namespace {

// Deterministic seed from the input so solve() is reproducible regardless
// of caller threading (FNV-1a over a size/extremes fingerprint).
std::uint64_t fingerprint(std::span<const geom::Vec2> s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    __builtin_memcpy(&bits, &v, sizeof bits);
    h = (h ^ bits) * 0x100000001b3ULL;
  };
  mix(static_cast<double>(s.size()));
  if (!s.empty()) {
    mix(s.front().x);
    mix(s.front().y);
    mix(s.back().x);
    mix(s.back().y);
    mix(s[s.size() / 2].x);
  }
  return h;
}

// Canonical smallest enclosing disk of <= 3 (sorted, deduped) points.
geom::Circle disk_of_small(std::span<const geom::Vec2> pts) {
  switch (pts.size()) {
    case 0:
      return geom::Circle{};  // empty disk
    case 1:
      return geom::circle_from(pts[0]);
    case 2:
      return geom::circle_from(pts[0], pts[1]);
    default: {
      // Try each diametral pair; the smallest valid one wins, else the
      // circumcircle through all three.
      geom::Circle best{};
      bool found = false;
      for (int drop = 2; drop >= 0; --drop) {
        const geom::Vec2 a = pts[(drop + 1) % 3];
        const geom::Vec2 b = pts[(drop + 2) % 3];
        const geom::Circle c = geom::circle_from(a, b);
        if (c.contains(pts[static_cast<std::size_t>(drop)]) &&
            (!found || c.radius < best.radius)) {
          best = c;
          found = true;
        }
      }
      if (found) return best;
      return geom::circle_from(pts[0], pts[1], pts[2]);
    }
  }
}

}  // namespace

MinDisk::Solution MinDisk::solve(std::span<const Element> s) const {
  Solution sol;
  solve_into(s, sol);
  return sol;
}

void MinDisk::solve_into(std::span<const Element> s, Solution& out) const {
  // One shuffle buffer per thread: the engines' stage-A pools call this
  // concurrently, and the buffer's capacity is reused across calls.
  thread_local std::vector<Element> buf;
  if (buf.size() < s.size()) buf.resize(s.size());
  solve_into(s, buf, out);
}

MinDisk::Solution MinDisk::solve_shuffled(std::span<const Element> s) const {
  Solution sol;
  if (s.empty()) return sol;
  auto md = geom::min_disk_preshuffled(s);
  sol.basis = std::move(md.support);
  std::sort(sol.basis.begin(), sol.basis.end());
  sol.basis.erase(std::unique(sol.basis.begin(), sol.basis.end()),
                  sol.basis.end());
  sol.disk = disk_of_small(sol.basis);
  return sol;
}

void MinDisk::solve_into(std::span<const Element> s, std::span<Element> buf,
                         Solution& out) const {
  LPT_CHECK_MSG(buf.size() >= s.size(),
                "MinDisk::solve_into: shuffle buffer smaller than the input");
  out.disk = geom::Circle{};
  out.basis.clear();
  if (s.empty()) return;
  // Welzl over a copy shuffled with a seed fingerprinted from the input
  // (so the result depends on the input alone), then the canonical disk
  // of the sorted support.
  util::Rng rng(fingerprint(s));
  std::span<Element> pts = buf.first(s.size());
  std::copy(s.begin(), s.end(), pts.begin());
  rng.shuffle(pts);
  geom::min_disk_preshuffled_into(pts, out.disk, out.basis);
  std::sort(out.basis.begin(), out.basis.end());
  out.basis.erase(std::unique(out.basis.begin(), out.basis.end()),
                  out.basis.end());
  out.disk = disk_of_small(out.basis);
}

MinDisk::Solution MinDisk::from_basis(std::span<const Element> b) const {
  if (b.size() > 3) return solve(b);
  // The sorted, deduplicated candidate support, in place.
  std::array<Element, 3> sup{};
  std::copy(b.begin(), b.end(), sup.begin());
  const auto first = sup.begin();
  std::sort(first, first + static_cast<std::ptrdiff_t>(b.size()));
  auto k = static_cast<std::size_t>(
      std::unique(first, first + static_cast<std::ptrdiff_t>(b.size())) -
      first);
  geom::Circle disk = disk_of_small({sup.data(), k});
  // A received "basis" may contain non-support points (e.g. B u {h} from
  // the MSW exchange step); reduce to the true support via solve if the
  // direct disk does not match.
  if (!geom::encloses_all(disk, {sup.data(), k})) return solve(b);
  if (k == 3) {
    // Drop an interior point (diametral-pair case): the first pair, in
    // order of the dropped index, whose diametral disk is no smaller and
    // contains the third point.
    for (std::size_t i = 0; i < 3; ++i) {
      const std::array<Element, 2> two{sup[i == 0 ? 1 : 0],
                                       sup[i == 2 ? 1 : 2]};
      const geom::Circle c = disk_of_small(two);
      if (c.radius >= disk.radius - 1e-12 * (disk.radius + 1.0) &&
          c.contains(sup[i])) {
        sup[0] = two[0];
        sup[1] = two[1];
        k = 2;
        disk = c;
        break;
      }
    }
  }
  Solution sol;
  sol.disk = disk;
  sol.basis.assign(sup.begin(), sup.begin() + static_cast<std::ptrdiff_t>(k));
  return sol;
}

}  // namespace lpt::problems
