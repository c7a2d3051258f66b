// Ring-buffer span/event tracer exported as Chrome trace_event JSON.
//
// What gets traced (when enabled): engine round start/end, stage-A
// chunks of the two pull-sampling engines (low_load.stage_a.chunk,
// hitting_set.stage_a.chunk), the phases of a high-load round
// (high_load.{solve,scan,deliver}) and of a hypercube Clarkson iteration
// (hypercube.{sweep,collective,leader}), shard frame send/recv/requeue and
// per-frame encode/decode, recovery respawn/reassign, service epoch
// admit/serve/step.  Load the output at chrome://tracing /
// https://ui.perfetto.dev, or validate it with tools/trace_summary.py.
//
// ## Cost model — why tracing cannot break the serve-path contracts
//
//   * Disabled (default): every site is one relaxed atomic load of
//     g_active (false) — no clock reads, no writes.  Runs are
//     bit-identical to an uninstrumented build (the tracer never draws
//     RNG or branches into algorithm code), and bench/service_qps
//     hard-gates the overhead at <= 1%.
//   * Enabled: enable_tracing() preallocates the whole ring up front;
//     recording claims a slot with one relaxed fetch_add and writes a
//     POD event — never an allocation, so the zero-steady-state-
//     allocation gate holds even with tracing on.
//   * Sampling: trace_tick() is called once per top-level unit (engine
//     round, service epoch) and arms g_active for that unit iff
//     unit_index % sample_period == 0.  Default period 64 keeps the
//     traced fraction small; period 1 traces everything.
//
// Span names must be string literals (or otherwise outlive the
// tracer): events store the pointer, not a copy.
//
// Building with -DLPT_OBS_TRACE=OFF compiles every site down to
// nothing (LPT_OBS_NO_TRACE): the enable/write entry points remain as
// no-op stubs so callers link unchanged.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace lpt::obs {

struct TraceConfig {
  std::size_t capacity = 1 << 16;   // events kept (ring wraps, newest win)
  std::uint32_t sample_period = 64; // trace every k-th round/epoch; 1 = all
};

#ifndef LPT_OBS_NO_TRACE

/// Compile-time witness for call sites that want to skip trace-only work
/// (e.g. the overhead gate) in LPT_OBS_TRACE=OFF builds.
inline constexpr bool kTraceCompiled = true;

namespace detail {
extern std::atomic<bool> g_active;  // armed by trace_tick for sampled units
std::uint64_t now_ns() noexcept;
std::uint32_t thread_tid() noexcept;
void record_event(const char* name, std::uint64_t ts_ns, std::uint64_t dur_ns,
                  char phase, std::uint64_t arg) noexcept;
}  // namespace detail

/// Allocate the ring and start accepting events (first sampled unit is
/// unit 0, so the very next trace_tick arms recording).
void enable_tracing(TraceConfig cfg = {});

/// Stop accepting events.  The ring keeps its contents for a final
/// write_chrome_trace; enable_tracing() again resets it, resume_tracing()
/// accepts events again where the ring and the sampling left off.
void disable_tracing();
void resume_tracing();

bool tracing_enabled() noexcept;

/// Call once per top-level unit (engine round, service epoch): arms or
/// disarms recording for the unit per the sampling period.  Returns
/// whether the unit is being traced.
bool trace_tick() noexcept;

/// One relaxed load: is the current unit being traced?
inline bool trace_active() noexcept {
  return detail::g_active.load(std::memory_order_relaxed);
}

/// Instant event ("i" phase), e.g. a frame send inside a sampled round.
inline void trace_instant(const char* name, std::uint64_t arg = 0) noexcept {
  if (!trace_active()) return;
  detail::record_event(name, detail::now_ns(), 0, 'i', arg);
}

/// Instant event that bypasses the sampling gate: for rare, high-value
/// events (worker deaths, recovery decisions) that must land in the
/// trace even when the surrounding round is unsampled.
void trace_rare(const char* name, std::uint64_t arg = 0) noexcept;

/// RAII span: records one Chrome "X" (complete) event on destruction.
/// Arms itself at construction, so a span open when the unit ends still
/// records coherently.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, std::uint64_t arg = 0) noexcept
      : name_(name), arg_(arg), armed_(trace_active()) {
    if (armed_) start_ns_ = detail::now_ns();
  }
  ~TraceSpan() {
    if (armed_) {
      const std::uint64_t end = detail::now_ns();
      detail::record_event(name_, start_ns_,
                           end > start_ns_ ? end - start_ns_ : 0, 'X', arg_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t arg_;
  bool armed_;
  std::uint64_t start_ns_ = 0;
};

/// Write the ring as Chrome trace_event JSON ({"traceEvents": [...]}),
/// events sorted by timestamp.  Returns false on I/O failure.
bool write_chrome_trace(const std::string& path);

/// Events currently held in the ring (post-wrap: the capacity).
std::size_t trace_event_count() noexcept;

#else  // LPT_OBS_NO_TRACE: compile every site down to nothing.

inline constexpr bool kTraceCompiled = false;

inline void enable_tracing(TraceConfig = {}) {}
inline void disable_tracing() {}
inline void resume_tracing() {}
inline bool tracing_enabled() noexcept { return false; }
inline bool trace_tick() noexcept { return false; }
inline bool trace_active() noexcept { return false; }
inline void trace_instant(const char*, std::uint64_t = 0) noexcept {}
inline void trace_rare(const char*, std::uint64_t = 0) noexcept {}
class TraceSpan {
 public:
  explicit TraceSpan(const char*, std::uint64_t = 0) noexcept {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
};
inline bool write_chrome_trace(const std::string&) { return false; }
inline std::size_t trace_event_count() noexcept { return 0; }

#endif  // LPT_OBS_NO_TRACE

}  // namespace lpt::obs
