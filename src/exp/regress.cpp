#include "exp/regress.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <random>

#include "core/error.hpp"
#include "obs/json.hpp"

namespace dpma::exp {
namespace {

struct SeriesPoints {
    /// Canonical param key -> (elapsed_s, measure values, half widths).
    struct PointData {
        double elapsed_s = 0.0;
        bool failed = false;  ///< the record carries an "error" member
        std::vector<std::pair<std::string, double>> values;  ///< measure, value
        std::vector<double> half_widths;                     ///< value-aligned
    };
    std::map<std::string, PointData> points;
};

/// Canonical identity of a point inside a series: the sorted
/// "name=value" coordinates — insensitive to key order in the JSON.
std::string point_key(const obs::Json& params) {
    std::vector<std::string> parts;
    for (const auto& [name, value] : params.object) {
        parts.push_back(name + "=" + obs::json_number(value.number));
    }
    std::sort(parts.begin(), parts.end());
    std::string key;
    for (const std::string& part : parts) {
        if (!key.empty()) key += ";";
        key += part;
    }
    return key;
}

/// Series name -> its points, from a run record's "series" array.
std::map<std::string, SeriesPoints> collect_series(const obs::Json& report) {
    std::map<std::string, SeriesPoints> out;
    const obs::Json* series = report.find("series");
    if (series == nullptr || !series->is_array()) return out;
    for (const obs::Json& one : series->array) {
        const std::string name = one.string_at("experiment");
        if (name.empty()) continue;
        SeriesPoints& bucket = out[name];
        const obs::Json* points = one.find("points");
        if (points == nullptr || !points->is_array()) continue;
        for (const obs::Json& point : points->array) {
            const obs::Json* params = point.find("params");
            if (params == nullptr || !params->is_object()) continue;
            SeriesPoints::PointData data;
            data.elapsed_s = point.number_at("elapsed_s");
            if (const obs::Json* error = point.find("error")) {
                data.failed = error->is_string();
            }
            if (const obs::Json* values = point.find("values");
                values != nullptr && values->is_object()) {
                const obs::Json* hws = point.find("half_widths");
                for (const auto& [measure, value] : values->object) {
                    data.values.emplace_back(measure, value.number);
                    data.half_widths.push_back(
                        hws != nullptr ? hws->number_at(measure) : 0.0);
                }
            }
            bucket.points[point_key(*params)] = std::move(data);
        }
    }
    return out;
}

/// One entry of a run record's "spans" summary.
struct SpanTotal {
    std::string name;
    double calls = 0.0;
    double total_us = 0.0;

    [[nodiscard]] double us_per_call() const { return calls > 0.0 ? total_us / calls : 0.0; }
};

/// A run record's "spans" summary, in record order.
std::vector<SpanTotal> collect_spans(const obs::Json& report) {
    std::vector<SpanTotal> out;
    const obs::Json* spans = report.find("spans");
    if (spans == nullptr || !spans->is_array()) return out;
    for (const obs::Json& span : spans->array) {
        const std::string name = span.string_at("name");
        if (name.empty()) continue;
        out.push_back({name, span.number_at("count"), span.number_at("total_us")});
    }
    return out;
}

void require_run_record(const obs::Json& doc, const char* which) {
    const std::string schema = doc.string_at("schema");
    if (schema.rfind("dpma-run-report/", 0) != 0) {
        throw Error(std::string(which) +
                    " is not a run record (missing \"schema\": "
                    "\"dpma-run-report/...\"); produce one with DPMA_REPORT/"
                    "--report");
    }
}

double geomean(const std::vector<double>& ratios) {
    double log_sum = 0.0;
    for (const double r : ratios) log_sum += std::log(r);
    return std::exp(log_sum / static_cast<double>(ratios.size()));
}

}  // namespace

void RegressOptions::validate() const {
    if (!(threshold > 1.0) || !std::isfinite(threshold)) {
        throw Error("regression threshold must be a finite ratio > 1");
    }
    if (!(confidence > 0.0) || !(confidence < 1.0)) {
        throw Error("confidence must lie in (0, 1)");
    }
    if (resamples < 1) throw Error("need at least one bootstrap resample");
}

std::string RegressReport::table() const {
    std::string out;
    char line[256];
    std::snprintf(line, sizeof line, "%-36s %7s %10s %10s %8s %-16s %s\n", "series",
                  "points", "old_s", "new_s", "ratio", "ci95", "verdict");
    out += line;
    for (const SeriesComparison& s : series) {
        char ci[48];
        if (s.comparable) {
            std::snprintf(ci, sizeof ci, "[%.3f, %.3f]", s.ci_lo, s.ci_hi);
        } else {
            std::snprintf(ci, sizeof ci, "-");
        }
        std::snprintf(line, sizeof line, "%-36s %7zu %10.4f %10.4f %8.3f %-16s %s\n",
                      s.series.c_str(), s.paired, s.old_total_s, s.new_total_s,
                      s.comparable ? s.ratio : 0.0, ci, s.verdict.c_str());
        out += line;
    }
    if (!spans.empty()) {
        std::snprintf(line, sizeof line, "\n%-36s %9s %9s %14s %14s %8s\n", "span",
                      "calls_old", "calls_new", "old_us/call", "new_us/call", "ratio");
        out += line;
        // A side the span is missing from prints "-", and so does the ratio.
        const auto cell = [](bool present, const char* format, double value) {
            char text[32] = "-";
            if (present) std::snprintf(text, sizeof text, format, value);
            return std::string(text);
        };
        for (const SpanComparison& s : spans) {
            std::snprintf(line, sizeof line, "%-36s %9s %9s %14s %14s %8s\n", s.name.c_str(),
                          cell(s.in_old, "%.0f", s.old_calls).c_str(),
                          cell(s.in_new, "%.0f", s.new_calls).c_str(),
                          cell(s.in_old, "%.2f", s.old_us_per_call).c_str(),
                          cell(s.in_new, "%.2f", s.new_us_per_call).c_str(),
                          cell(s.in_old && s.in_new, "%.3f", s.ratio).c_str());
            out += line;
        }
    }
    for (const std::string& note : notes) {
        out += "note: " + note + "\n";
    }
    return out;
}

RegressReport compare_reports(const obs::Json& older, const obs::Json& newer,
                              const RegressOptions& options) {
    options.validate();
    require_run_record(older, "old record");
    require_run_record(newer, "new record");

    RegressReport report;
    report.threshold = options.threshold;

    const auto old_series = collect_series(older);
    const auto new_series = collect_series(newer);

    for (const auto& [name, bucket] : old_series) {
        if (new_series.find(name) == new_series.end()) {
            report.notes.push_back("series '" + name + "' only in the old record");
        }
    }

    for (const auto& [name, new_bucket] : new_series) {
        const auto old_it = old_series.find(name);
        if (old_it == old_series.end()) {
            report.notes.push_back("series '" + name + "' only in the new record");
            continue;
        }
        const SeriesPoints& old_bucket = old_it->second;

        SeriesComparison cmp;
        cmp.series = name;
        std::vector<double> ratios;
        for (const auto& [key, old_point] : old_bucket.points) {
            const auto new_it = new_bucket.points.find(key);
            if (new_it == new_bucket.points.end()) {
                ++cmp.only_old;
                continue;
            }
            const SeriesPoints::PointData& new_point = new_it->second;
            if (old_point.failed || new_point.failed) {
                // A failed point has NaN values and no meaningful elapsed_s
                // on the failed side; comparing it would poison the ratios
                // and spray bogus drift notes.
                ++cmp.failed;
                continue;
            }
            ++cmp.paired;

            if (old_point.elapsed_s > 0.0 && new_point.elapsed_s > 0.0) {
                cmp.old_total_s += old_point.elapsed_s;
                cmp.new_total_s += new_point.elapsed_s;
                ratios.push_back(new_point.elapsed_s / old_point.elapsed_s);
            }

            // Value drift: deterministic seeding means values should agree
            // within the two runs' combined CIs (plus relative slack for
            // accumulated floating-point churn).
            for (std::size_t m = 0; m < old_point.values.size(); ++m) {
                const auto& [measure, old_value] = old_point.values[m];
                for (std::size_t n = 0; n < new_point.values.size(); ++n) {
                    if (new_point.values[n].first != measure) continue;
                    const double new_value = new_point.values[n].second;
                    const double slack = old_point.half_widths[m] +
                                         new_point.half_widths[n] +
                                         1e-9 * std::abs(old_value) + 1e-12;
                    if (std::abs(new_value - old_value) > slack &&
                        report.notes.size() < 40) {
                        report.notes.push_back(
                            "value drift in '" + name + "' at {" + key + "} " +
                            measure + ": " + obs::json_number(old_value) + " -> " +
                            obs::json_number(new_value));
                    }
                    break;
                }
            }
        }
        for (const auto& [key, unused] : new_bucket.points) {
            (void)unused;
            if (old_bucket.points.find(key) == old_bucket.points.end()) ++cmp.only_new;
        }
        if (cmp.only_old > 0 || cmp.only_new > 0) {
            report.notes.push_back("series '" + name + "': " +
                                   std::to_string(cmp.only_old) + " point(s) only old, " +
                                   std::to_string(cmp.only_new) + " only new");
        }
        if (cmp.failed > 0) {
            report.notes.push_back("series '" + name + "': " +
                                   std::to_string(cmp.failed) +
                                   " failed point(s) excluded from comparison");
        }

        if (!ratios.empty()) {
            cmp.comparable = true;
            cmp.ratio = geomean(ratios);
            // Percentile bootstrap over the paired points, fixed seed.
            std::mt19937_64 rng(options.seed);
            std::uniform_int_distribution<std::size_t> pick(0, ratios.size() - 1);
            std::vector<double> boot;
            boot.reserve(static_cast<std::size_t>(options.resamples));
            std::vector<double> sample(ratios.size());
            for (int b = 0; b < options.resamples; ++b) {
                for (double& r : sample) r = ratios[pick(rng)];
                boot.push_back(geomean(sample));
            }
            std::sort(boot.begin(), boot.end());
            const double alpha = 1.0 - options.confidence;
            const auto lo_index = static_cast<std::size_t>(
                std::floor(alpha / 2.0 * static_cast<double>(boot.size())));
            const auto hi_index = static_cast<std::size_t>(std::min(
                boot.size() - 1,
                static_cast<std::size_t>(
                    std::ceil((1.0 - alpha / 2.0) * static_cast<double>(boot.size()))) -
                    1));
            cmp.ci_lo = boot[lo_index];
            cmp.ci_hi = boot[hi_index];
            if (cmp.ci_lo >= options.threshold) {
                cmp.verdict = "REGRESSION";
                report.regression = true;
            } else if (cmp.ratio >= options.threshold) {
                cmp.verdict = "slower";
            } else if (cmp.ci_hi <= 1.0 / options.threshold) {
                cmp.verdict = "faster";
            } else {
                cmp.verdict = "ok";
            }
        } else {
            cmp.verdict = "incomparable";
            report.notes.push_back("series '" + name +
                                   "': no paired points with positive elapsed_s on "
                                   "both sides");
        }
        report.series.push_back(std::move(cmp));
    }

    const std::vector<SpanTotal> old_spans = collect_spans(older);
    const std::vector<SpanTotal> new_spans = collect_spans(newer);
    const auto find_span = [](const std::vector<SpanTotal>& spans, const std::string& name) {
        const auto it = std::find_if(spans.begin(), spans.end(),
                                     [&name](const SpanTotal& s) { return s.name == name; });
        return it == spans.end() ? nullptr : &*it;
    };
    for (const SpanTotal& span : new_spans) {
        const SpanTotal* old = find_span(old_spans, span.name);
        const double old_us = old != nullptr ? old->us_per_call() : 0.0;
        report.spans.push_back(
            {.name = span.name,
             .in_old = old != nullptr,
             .in_new = true,
             .old_calls = old != nullptr ? old->calls : 0.0,
             .new_calls = span.calls,
             .old_us_per_call = old_us,
             .new_us_per_call = span.us_per_call(),
             .ratio = old_us > 0.0 ? span.us_per_call() / old_us : 0.0});
    }
    for (const SpanTotal& span : old_spans) {
        if (find_span(new_spans, span.name) != nullptr) continue;
        report.spans.push_back({.name = span.name,
                                .in_old = true,
                                .old_calls = span.calls,
                                .old_us_per_call = span.us_per_call()});
    }

    // Whole-record wall clock, for the reader; never part of the verdict
    // (it includes composition, printing, everything).
    const double old_wall = older.number_at("wall_s");
    const double new_wall = newer.number_at("wall_s");
    if (old_wall > 0.0 && new_wall > 0.0) {
        report.notes.push_back("wall_s: " + obs::json_number(old_wall) + " -> " +
                               obs::json_number(new_wall) + " (ratio " +
                               obs::json_number(new_wall / old_wall) + ")");
    }
    return report;
}

}  // namespace dpma::exp
