#pragma once

/// \file report.hpp
/// Structured sweep results.  The runner collects one PointRecord per grid
/// point — coordinates, measure values, CI half-widths — into a ResultSet,
/// which renders itself as CSV or JSON.  bench::Table remains a third sink,
/// built from a ResultSet by the bench harness; the figure benches keep
/// their tables while gaining machine-readable outputs.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "exp/experiment.hpp"

namespace dpma::exp {

struct PointRecord {
    Point point;
    PointResult result;
};

class ResultSet {
public:
    ResultSet(std::string name, std::vector<std::string> param_names,
              std::vector<std::string> measure_names);

    /// Appends a record; the runner adds them in grid order (point.index
    /// ascending), which both emitters preserve.  result.values must have
    /// one entry per measure; half_widths may be empty (exact evaluation)
    /// or measure-aligned.
    void add(Point point, PointResult result);

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] const std::vector<std::string>& params() const noexcept {
        return param_names_;
    }
    [[nodiscard]] const std::vector<std::string>& measures() const noexcept {
        return measure_names_;
    }
    [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
    [[nodiscard]] const PointRecord& at(std::size_t i) const { return records_.at(i); }

    /// Value (resp. CI half-width, 0 when exact) of \p measure at record \p i.
    [[nodiscard]] double value(std::size_t i, std::string_view measure) const;
    [[nodiscard]] double half_width(std::size_t i, std::string_view measure) const;

    /// CSV: one header row (params, then each measure and measure_hw), one
    /// row per point, full double round-trip precision.
    [[nodiscard]] std::string csv() const;

    /// JSON object: {"experiment", "params", "measures", "points": [{
    /// "params": {...}, "values": {...}, "half_widths": {...},
    /// "diagnostics": {...}}, ...]}, where "diagnostics" appears only for
    /// points whose PointResult carried one (solver method and factor size,
    /// simulator convergence trajectory).  A failed point additionally
    /// carries "error" (exception type and message); its values are NaN,
    /// rendered null.
    [[nodiscard]] std::string json() const;

private:
    [[nodiscard]] std::size_t measure_index(std::string_view measure) const;

    std::string name_;
    std::vector<std::string> param_names_;
    std::vector<std::string> measure_names_;
    std::vector<PointRecord> records_;
};

}  // namespace dpma::exp
