#pragma once

/// \file metrics.hpp
/// Process-wide registry of named instruments.
///
/// Three instrument kinds cover the toolchain's needs:
///  * Counter   — monotonically increasing uint64 (cache hits, GSMP events,
///                states composed, vanishing states eliminated);
///  * Gauge     — last-written double (current sweep size, jobs in use);
///  * Histogram — count/sum/min/max summary of observed doubles (refinement
///                rounds per call, recovered battery charge) plus p50/p90/p99 tail
///                quantiles from fixed log-spaced bins.
///
/// counter("x") & co. return a stable reference to the named instrument,
/// creating it on first use; hot call sites should cache the reference
/// (`static obs::Counter& c = obs::counter("sim.events");`) so the name
/// lookup happens once.  Counters and gauges are lock-free atomics; the
/// registry map itself is mutex-protected and never shrinks, so returned
/// references stay valid for the process lifetime.
///
/// metrics_json() / metrics_text() dump every instrument; reset_metrics()
/// zeroes them all (tests, or per-phase deltas) without invalidating
/// references.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

namespace dpma::obs {

class Counter {
public:
    void add(std::uint64_t n = 1) noexcept {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

class Gauge {
public:
    void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
    [[nodiscard]] double value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

private:
    std::atomic<double> value_{0.0};
};

class Histogram {
public:
    /// Binning layout: kBinsPerDecade log-spaced bins per decade over
    /// [10^kLoExponent, 10^kHiExponent), bracketed by an underflow bin
    /// (everything below the range, including zero and negatives) and an
    /// overflow bin.  Bin b >= 1 covers [10^(kLoExponent + (b-1)/kBinsPerDecade),
    /// 10^(kLoExponent + b/kBinsPerDecade)): a quantile read off the bins is
    /// exact to one bin, i.e. a relative factor of 10^(1/kBinsPerDecade)
    /// (~26%) — coarse for means, plenty to spot a tail that moved decades.
    static constexpr int kLoExponent = -9;
    static constexpr int kHiExponent = 12;
    static constexpr int kBinsPerDecade = 10;
    static constexpr std::size_t kBins =
        static_cast<std::size_t>((kHiExponent - kLoExponent) * kBinsPerDecade) + 2;

    struct Snapshot {
        std::uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
        std::array<std::uint64_t, kBins> bins{};
        [[nodiscard]] double mean() const noexcept {
            return count == 0 ? 0.0 : sum / static_cast<double>(count);
        }
        /// Quantile estimate from the log-spaced bins, \p q in [0, 1]:
        /// the geometric midpoint of the bin holding the ceil(q * count)-th
        /// smallest observation, clamped to [min, max] (the under/overflow
        /// bins answer with min/max exactly).  0 when the histogram is empty.
        [[nodiscard]] double quantile(double q) const noexcept;
    };

    void observe(double v) noexcept;
    [[nodiscard]] Snapshot snapshot() const noexcept;
    void reset() noexcept;

private:
    mutable std::mutex mutex_;
    Snapshot data_;
};

/// Named instrument accessors: one registry per process, instruments created
/// on first use, references stable forever.
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Gauge& gauge(std::string_view name);
[[nodiscard]] Histogram& histogram(std::string_view name);

/// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
/// min, max, mean}}} — names sorted, valid JSON (see obs/json.hpp).
[[nodiscard]] std::string metrics_json();

/// Human-readable dump, one "name = value" line per instrument, sorted.
[[nodiscard]] std::string metrics_text();

/// Zeroes every registered instrument (references stay valid).
void reset_metrics();

}  // namespace dpma::obs
