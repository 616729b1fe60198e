#include "exp/report.hpp"

#include "core/error.hpp"
#include "obs/json.hpp"

namespace dpma::exp {
namespace {

// One escaping/formatting policy for every JSON artifact of the repo.
std::string number(double v) { return obs::json_number(v); }
std::string quoted(const std::string& s) { return obs::json_quote(s); }

}  // namespace

ResultSet::ResultSet(std::string name, std::vector<std::string> param_names,
                     std::vector<std::string> measure_names)
    : name_(std::move(name)),
      param_names_(std::move(param_names)),
      measure_names_(std::move(measure_names)) {}

void ResultSet::add(Point point, PointResult result) {
    DPMA_REQUIRE(result.values.size() == measure_names_.size(),
                 "point result has " + std::to_string(result.values.size()) +
                     " values for " + std::to_string(measure_names_.size()) +
                     " measures");
    DPMA_REQUIRE(result.half_widths.empty() ||
                     result.half_widths.size() == measure_names_.size(),
                 "half-widths must be empty or measure-aligned");
    records_.push_back(PointRecord{std::move(point), std::move(result)});
}

std::size_t ResultSet::measure_index(std::string_view measure) const {
    for (std::size_t m = 0; m < measure_names_.size(); ++m) {
        if (measure_names_[m] == measure) return m;
    }
    throw Error("result set has no measure named '" + std::string(measure) + "'");
}

double ResultSet::value(std::size_t i, std::string_view measure) const {
    return records_.at(i).result.values[measure_index(measure)];
}

double ResultSet::half_width(std::size_t i, std::string_view measure) const {
    const PointRecord& record = records_.at(i);
    if (record.result.half_widths.empty()) return 0.0;
    return record.result.half_widths[measure_index(measure)];
}

std::string ResultSet::csv() const {
    std::string out;
    for (std::size_t p = 0; p < param_names_.size(); ++p) {
        if (p > 0) out += ',';
        out += param_names_[p];
    }
    for (const std::string& m : measure_names_) {
        if (!out.empty()) out += ',';
        out += m;
        out += ',';
        out += m + "_hw";
    }
    out += '\n';
    for (const PointRecord& record : records_) {
        std::string row;
        for (const auto& [axis, value] : record.point.coords) {
            (void)axis;
            if (!row.empty()) row += ',';
            row += number(value);
        }
        for (std::size_t m = 0; m < measure_names_.size(); ++m) {
            if (!row.empty()) row += ',';
            row += number(record.result.values[m]);
            row += ',';
            row += number(record.result.half_widths.empty()
                              ? 0.0
                              : record.result.half_widths[m]);
        }
        out += row;
        out += '\n';
    }
    return out;
}

std::string ResultSet::json() const {
    std::string out = "{\n  \"experiment\": " + quoted(name_) + ",\n  \"params\": [";
    for (std::size_t p = 0; p < param_names_.size(); ++p) {
        if (p > 0) out += ", ";
        out += quoted(param_names_[p]);
    }
    out += "],\n  \"measures\": [";
    for (std::size_t m = 0; m < measure_names_.size(); ++m) {
        if (m > 0) out += ", ";
        out += quoted(measure_names_[m]);
    }
    out += "],\n  \"points\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const PointRecord& record = records_[i];
        out += "    {\"params\": {";
        for (std::size_t p = 0; p < record.point.coords.size(); ++p) {
            if (p > 0) out += ", ";
            out += quoted(record.point.coords[p].first) + ": " +
                   number(record.point.coords[p].second);
        }
        out += "}, \"values\": {";
        for (std::size_t m = 0; m < measure_names_.size(); ++m) {
            if (m > 0) out += ", ";
            out += quoted(measure_names_[m]) + ": " + number(record.result.values[m]);
        }
        out += "}, \"half_widths\": {";
        for (std::size_t m = 0; m < measure_names_.size(); ++m) {
            if (m > 0) out += ", ";
            out += quoted(measure_names_[m]) + ": " +
                   number(record.result.half_widths.empty()
                              ? 0.0
                              : record.result.half_widths[m]);
        }
        out += "}, \"elapsed_s\": " + number(record.result.elapsed_s);
        if (record.result.failed()) {
            // Failed points are represented, not dropped: their values are
            // NaN (null above) and the failure record rides along so report
            // consumers can tell "measured zero" from "never measured".
            out += ", \"error\": " + quoted(record.result.error);
        }
        if (!record.result.diagnostics.empty()) {
            out += ", \"diagnostics\": " + record.result.diagnostics;
        }
        out += "}";
        out += i + 1 < records_.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

}  // namespace dpma::exp
