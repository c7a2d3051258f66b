#include "obs/trace.hpp"

#ifndef LPT_OBS_NO_TRACE

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <vector>

namespace lpt::obs {

namespace detail {

std::atomic<bool> g_active{false};

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

struct Event {
  const char* name = nullptr;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t arg = 0;
  std::uint32_t tid = 0;
  char phase = 0;
};

struct TraceState {
  std::vector<Event> ring;        // preallocated at enable_tracing
  std::atomic<std::uint64_t> head{0};
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> unit{0};  // trace_tick counter
  std::uint32_t sample_period = 64;
  std::uint64_t base_ns = 0;           // t=0 of the trace
};

TraceState& tstate() {
  static TraceState* s = new TraceState();  // leaked: outlives statics
  return *s;
}

std::atomic<std::uint32_t> g_next_tid{0};

}  // namespace

std::uint32_t thread_tid() noexcept {
  thread_local std::uint32_t tid =
      g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void record_event(const char* name, std::uint64_t ts_ns, std::uint64_t dur_ns,
                  char phase, std::uint64_t arg) noexcept {
  TraceState& s = tstate();
  if (s.ring.empty()) return;
  // Unique slot per claim; the ring wraps keeping the newest events.  A
  // writer lapped mid-write could tear a slot — acceptable for a tracer,
  // and write_chrome_trace drops obviously torn (null-name) entries.
  const std::uint64_t idx = s.head.fetch_add(1, std::memory_order_relaxed);
  Event& e = s.ring[idx % s.ring.size()];
  e.name = name;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.arg = arg;
  e.tid = thread_tid();
  e.phase = phase;
}

}  // namespace detail

void enable_tracing(TraceConfig cfg) {
  auto& s = detail::tstate();
  if (cfg.capacity == 0) cfg.capacity = 1;
  if (cfg.sample_period == 0) cfg.sample_period = 1;
  s.enabled.store(false, std::memory_order_relaxed);
  detail::g_active.store(false, std::memory_order_relaxed);
  s.ring.assign(cfg.capacity, {});
  s.head.store(0, std::memory_order_relaxed);
  s.unit.store(0, std::memory_order_relaxed);
  s.sample_period = cfg.sample_period;
  s.base_ns = detail::now_ns();
  s.enabled.store(true, std::memory_order_relaxed);
}

void disable_tracing() {
  auto& s = detail::tstate();
  s.enabled.store(false, std::memory_order_relaxed);
  detail::g_active.store(false, std::memory_order_relaxed);
}

void resume_tracing() {
  auto& s = detail::tstate();
  if (!s.ring.empty()) s.enabled.store(true, std::memory_order_relaxed);
}

bool tracing_enabled() noexcept {
  return detail::tstate().enabled.load(std::memory_order_relaxed);
}

bool trace_tick() noexcept {
  auto& s = detail::tstate();
  if (!s.enabled.load(std::memory_order_relaxed)) {
    // Cheap disarm: keeps g_active coherent if tracing was switched off
    // between units.
    if (detail::g_active.load(std::memory_order_relaxed)) {
      detail::g_active.store(false, std::memory_order_relaxed);
    }
    return false;
  }
  const std::uint64_t u = s.unit.fetch_add(1, std::memory_order_relaxed);
  const bool active = (u % s.sample_period) == 0;
  detail::g_active.store(active, std::memory_order_relaxed);
  return active;
}

void trace_rare(const char* name, std::uint64_t arg) noexcept {
  auto& s = detail::tstate();
  if (!s.enabled.load(std::memory_order_relaxed)) return;
  detail::record_event(name, detail::now_ns(), 0, 'i', arg);
}

std::size_t trace_event_count() noexcept {
  auto& s = detail::tstate();
  const std::uint64_t head = s.head.load(std::memory_order_relaxed);
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(head, s.ring.size()));
}

bool write_chrome_trace(const std::string& path) {
  auto& s = detail::tstate();
  const std::size_t n = trace_event_count();
  std::vector<detail::Event> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const detail::Event& e = s.ring[i];
    if (e.name == nullptr || e.phase == 0) continue;  // torn / never written
    events.push_back(e);
  }
  std::sort(events.begin(), events.end(),
            [](const detail::Event& a, const detail::Event& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              // Parent spans before children at equal start times.
              return a.dur_ns > b.dur_ns;
            });

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  for (const detail::Event& e : events) {
    const std::uint64_t rel =
        e.ts_ns >= s.base_ns ? e.ts_ns - s.base_ns : e.ts_ns;
    // Chrome's ts/dur are microseconds; fractional values keep ns order.
    std::fprintf(f,
                 "%s  {\"name\": \"%s\", \"ph\": \"%c\", \"pid\": 1, "
                 "\"tid\": %" PRIu32 ", \"ts\": %.3f",
                 first ? "" : ",\n", e.name, e.phase, e.tid,
                 static_cast<double>(rel) / 1e3);
    if (e.phase == 'X') {
      std::fprintf(f, ", \"dur\": %.3f", static_cast<double>(e.dur_ns) / 1e3);
    }
    if (e.phase == 'i') {
      std::fprintf(f, ", \"s\": \"t\"");
    }
    std::fprintf(f, ", \"args\": {\"v\": %" PRIu64 "}}", e.arg);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::fclose(f) == 0;
  return ok;
}

}  // namespace lpt::obs

#endif  // LPT_OBS_NO_TRACE
