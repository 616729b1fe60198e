#pragma once

/// \file tracer.hpp
/// The benchmark's own spans, recorded around every call it makes into a
/// dpma layer.  Off by default: a disabled Span costs one relaxed load.
/// When enabled, each span keeps its name, start, end, parent span, point id
/// and (optionally) the number of states the call worked on, in memory; the
/// records are turned into a per-layer table and a Chrome trace once, when
/// the run ends.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] std::uint64_t now_ns();

/// VmHWM of this process in MB (peak resident set so far), from procfs.
[[nodiscard]] double peak_rss_mb();

void set_tracing(bool enabled);

class Span {
public:
    /// \p name must be a string literal.  \p parent 0 means "the span open on
    /// this thread", which is what every call made on one thread wants; a
    /// pool job passes the id of the span that dispatched it.  \p rss samples
    /// the RSS high-water mark on entry and exit.
    explicit Span(const char* name, std::int64_t point = -1, std::uint32_t parent = 0,
                  bool rss = false);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Number of states the call worked on (feeds ns-per-state columns).
    void states(double n) noexcept { states_ = n; }
    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

private:
    const char* name_;
    std::int64_t point_;
    std::uint32_t id_ = 0;
    std::uint32_t parent_ = 0;
    std::uint32_t saved_current_ = 0;
    std::uint64_t start_ns_ = 0;
    double states_ = 0.0;
    double rss_before_mb_ = -1.0;
};

/// Aggregate of every span of one name.
struct LayerRow {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;    ///< total minus the time covered by child spans
    double states = 0.0;     ///< sum of Span::states()
    double rss_delta_mb = 0.0;  ///< sum of high-water growth across calls
    [[nodiscard]] double mean_ms() const { return count == 0 ? 0.0 : total_ms / count; }
    [[nodiscard]] double ns_per_state() const {
        return states > 0.0 ? total_ms * 1e6 / states : 0.0;
    }
};

struct SpanReport {
    std::map<std::string, LayerRow> layers;
    /// Summed duration of the "result" and "setup" spans, and the part of it
    /// covered by their child spans (the calls into a layer).
    double wrapped_ms = 0.0;
    double covered_ms = 0.0;
};

/// Per-layer table of the records so far.
[[nodiscard]] SpanReport summarize();

/// Chrome trace-event JSON of the records so far.
[[nodiscard]] std::string chrome_trace_json();

}  // namespace perfbench
