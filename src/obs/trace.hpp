#pragma once

/// \file trace.hpp
/// Lightweight tracing spans with Chrome trace-event JSON output.
///
/// A Span is an RAII timer: construct it at the top of a phase, and on
/// destruction the (name, category, thread, start, duration, args) record is
/// appended to a process-wide buffer.  trace_json() renders the buffer as
/// Chrome trace-event JSON — load it in chrome://tracing or Perfetto to see
/// a sweep's pool workers, cache behaviour and per-point solve/simulate
/// phases on a timeline.
///
/// Cost model: tracing is *disabled* by default.  A disabled Span is one
/// relaxed atomic load in the constructor and one branch in the destructor —
/// near-zero, safe to leave in hot paths (guarded by a test).  When enabled,
/// a span takes one clock read at each end and one short mutex hold to
/// append its record.  The buffer is capped (records beyond the cap are
/// dropped and counted in the "obs.trace.dropped" counter) so a runaway
/// loop cannot exhaust memory.
///
/// Span names and categories must be string literals (or otherwise outlive
/// the tracer): records store the pointers, not copies.
///
/// Compile-time removal: building with -DDPMA_OBS_DISABLED (CMake option
/// DPMA_OBS=OFF) turns the DPMA_SPAN macros into nothing for overhead
/// experiments; the library API stays available but records nothing.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dpma::obs {

/// Runtime switch, off by default.  Enabling does not clear earlier records.
[[nodiscard]] bool tracing_enabled() noexcept;
void set_tracing(bool enabled) noexcept;

/// Drops all buffered records (and resets the span drop count).
void clear_trace();

/// Number of buffered span records.
[[nodiscard]] std::size_t trace_size() noexcept;

/// Chrome trace-event JSON: {"traceEvents": [{"name", "cat", "ph": "X",
/// "ts", "dur", "pid", "tid", "args"}, ...], "displayTimeUnit": "ms"}.
/// Timestamps are microseconds since the first obs use in the process.
[[nodiscard]] std::string trace_json();

/// Aggregated view for text reports: per span name, how many spans ran and
/// how long they took in total (microseconds).  Sorted by total descending.
struct SpanStats {
    std::string name;
    std::uint64_t count = 0;
    double total_us = 0.0;
};
[[nodiscard]] std::vector<SpanStats> span_summary();

class Span {
public:
    /// \p name and \p category must be string literals (stored by pointer).
    explicit Span(const char* name, const char* category = "dpma") noexcept;
    ~Span();

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    static constexpr std::size_t kMaxArgs = 5;

    /// Attaches up to kMaxArgs numeric annotations, rendered into the
    /// event's "args" object (extra calls are ignored).  No-op when the span
    /// was constructed with tracing disabled.
    void arg(const char* key, double value) noexcept;

private:
    const char* name_;
    const char* category_;
    std::uint64_t start_ns_ = 0;
    std::array<const char*, kMaxArgs> arg_keys_{};
    std::array<double, kMaxArgs> arg_values_{};
    bool active_;
};

}  // namespace dpma::obs

// Zero-cost span helpers.  DPMA_SPAN drops an anonymous span covering the
// rest of the scope; DPMA_NAMED_SPAN names the variable so args can be
// attached before it closes.
#if !defined(DPMA_OBS_DISABLED)
#define DPMA_OBS_CONCAT_IMPL(a, b) a##b
#define DPMA_OBS_CONCAT(a, b) DPMA_OBS_CONCAT_IMPL(a, b)
#define DPMA_SPAN(name, category) \
    ::dpma::obs::Span DPMA_OBS_CONCAT(dpma_obs_span_, __LINE__)(name, category)
#define DPMA_NAMED_SPAN(var, name, category) ::dpma::obs::Span var(name, category)
#else
namespace dpma::obs {
struct NullSpan {
    void arg(const char*, double) noexcept {}
};
}  // namespace dpma::obs
#define DPMA_SPAN(name, category) \
    do {                          \
    } while (false)
#define DPMA_NAMED_SPAN(var, name, category) ::dpma::obs::NullSpan var
#endif
