#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "exp/regress.hpp"
#include "obs/json_parse.hpp"

namespace dpma::exp {
namespace {

/// Minimal run record with one fig3-shaped series; per-point elapsed times
/// come from \p scale so a "slowed" record is one multiplication away.
std::string record_json(double scale, const char* experiment = "fig3_rpc_markov_dpm") {
    std::string series;
    const double timeouts[] = {0.0, 5.0, 10.0, 25.0};
    for (int i = 0; i < 4; ++i) {
        if (i > 0) series += ",\n";
        series += R"({"params": {"timeout_ms": )" + std::to_string(timeouts[i]) +
                  R"(}, "values": {"throughput": 0.25}, "half_widths": )" +
                  R"({"throughput": 0.0}, "elapsed_s": )" +
                  std::to_string((0.01 + 0.001 * i) * scale) + "}";
    }
    return std::string(R"({"schema": "dpma-run-report/1", "tool": "test", )" +
                       std::string(R"("wall_s": )") + std::to_string(0.5 * scale) +
                       R"(, "series": [{"experiment": ")" + experiment +
                       R"(", "params": ["timeout_ms"], "measures": ["throughput"], )" +
                       R"("points": [)" + series + "]}]}");
}

TEST(Regress, IdenticalRecordsPassWithUnitRatio) {
    const obs::Json record = obs::json_parse(record_json(1.0));
    const RegressReport report = compare_reports(record, record);
    ASSERT_EQ(report.series.size(), 1u);
    EXPECT_FALSE(report.regression);
    EXPECT_EQ(report.series[0].verdict, "ok");
    EXPECT_EQ(report.series[0].paired, 4u);
    EXPECT_DOUBLE_EQ(report.series[0].ratio, 1.0);
    EXPECT_DOUBLE_EQ(report.series[0].ci_lo, 1.0);
    EXPECT_DOUBLE_EQ(report.series[0].ci_hi, 1.0);
}

TEST(Regress, UniformSlowdownPastThresholdRegresses) {
    const obs::Json older = obs::json_parse(record_json(1.0));
    const obs::Json newer = obs::json_parse(record_json(2.0));
    const RegressReport report = compare_reports(older, newer);
    ASSERT_EQ(report.series.size(), 1u);
    EXPECT_TRUE(report.regression);
    EXPECT_EQ(report.series[0].verdict, "REGRESSION");
    EXPECT_NEAR(report.series[0].ratio, 2.0, 1e-9);
    EXPECT_GE(report.series[0].ci_lo, 1.20);
    EXPECT_NE(report.table().find("REGRESSION"), std::string::npos);
}

TEST(Regress, UniformSpeedupReportsFaster) {
    const obs::Json older = obs::json_parse(record_json(2.0));
    const obs::Json newer = obs::json_parse(record_json(1.0));
    const RegressReport report = compare_reports(older, newer);
    EXPECT_FALSE(report.regression);
    EXPECT_EQ(report.series[0].verdict, "faster");
}

TEST(Regress, ThresholdIsRespected) {
    const obs::Json older = obs::json_parse(record_json(1.0));
    const obs::Json newer = obs::json_parse(record_json(2.0));
    RegressOptions lax;
    lax.threshold = 3.0;  // a 2x slowdown is within budget
    EXPECT_FALSE(compare_reports(older, newer, lax).regression);
}

TEST(Regress, VerdictIsDeterministicAcrossRuns) {
    const obs::Json older = obs::json_parse(record_json(1.0));
    const obs::Json newer = obs::json_parse(record_json(1.35));
    const RegressReport a = compare_reports(older, newer);
    const RegressReport b = compare_reports(older, newer);
    EXPECT_EQ(a.series[0].ci_lo, b.series[0].ci_lo);
    EXPECT_EQ(a.series[0].ci_hi, b.series[0].ci_hi);
    EXPECT_EQ(a.series[0].verdict, b.series[0].verdict);
}

TEST(Regress, UnpairedSeriesBecomeNotesNotVerdicts) {
    const obs::Json older = obs::json_parse(record_json(1.0, "old_only"));
    const obs::Json newer = obs::json_parse(record_json(1.0, "new_only"));
    const RegressReport report = compare_reports(older, newer);
    EXPECT_TRUE(report.series.empty());
    EXPECT_FALSE(report.regression);
    bool saw_old = false, saw_new = false;
    for (const std::string& note : report.notes) {
        if (note.find("'old_only' only in the old record") != std::string::npos) {
            saw_old = true;
        }
        if (note.find("'new_only' only in the new record") != std::string::npos) {
            saw_new = true;
        }
    }
    EXPECT_TRUE(saw_old);
    EXPECT_TRUE(saw_new);
}

TEST(Regress, RecordWithoutTimingIsIncomparable) {
    const std::string no_timing =
        R"({"schema": "dpma-run-report/1", "series": [{"experiment": "s", )"
        R"("points": [{"params": {"x": 1}, "values": {"m": 2.0}, )"
        R"("half_widths": {"m": 0.0}}]}]})";
    const obs::Json older = obs::json_parse(no_timing);
    const obs::Json newer = obs::json_parse(no_timing);
    const RegressReport report = compare_reports(older, newer);
    ASSERT_EQ(report.series.size(), 1u);
    EXPECT_EQ(report.series[0].verdict, "incomparable");
    EXPECT_FALSE(report.series[0].comparable);
    EXPECT_FALSE(report.regression);
}

TEST(Regress, ValueDriftBeyondHalfWidthsIsNoted) {
    const std::string base =
        R"({"schema": "dpma-run-report/1", "series": [{"experiment": "s", )"
        R"("points": [{"params": {"x": 1}, "values": {"m": VALUE}, )"
        R"("half_widths": {"m": 0.01}, "elapsed_s": 0.5}]}]})";
    auto with_value = [&](const char* value) {
        std::string text = base;
        text.replace(text.find("VALUE"), 5, value);
        return obs::json_parse(text);
    };
    const RegressReport drifted =
        compare_reports(with_value("2.0"), with_value("3.0"));
    bool noted = false;
    for (const std::string& note : drifted.notes) {
        if (note.find("value drift") != std::string::npos) noted = true;
    }
    EXPECT_TRUE(noted);
    EXPECT_FALSE(drifted.regression);  // drift never sets the exit code
    // Within the combined half-widths: no note.
    const RegressReport steady =
        compare_reports(with_value("2.0"), with_value("2.015"));
    for (const std::string& note : steady.notes) {
        EXPECT_EQ(note.find("value drift"), std::string::npos) << note;
    }
}

TEST(Regress, PointPairingIgnoresParamKeyOrder) {
    const char* ab =
        R"({"schema": "dpma-run-report/1", "series": [{"experiment": "s", )"
        R"("points": [{"params": {"a": 1, "b": 2}, "values": {}, )"
        R"("half_widths": {}, "elapsed_s": 0.5}]}]})";
    const char* ba =
        R"({"schema": "dpma-run-report/1", "series": [{"experiment": "s", )"
        R"("points": [{"params": {"b": 2, "a": 1}, "values": {}, )"
        R"("half_widths": {}, "elapsed_s": 0.5}]}]})";
    const RegressReport report =
        compare_reports(obs::json_parse(ab), obs::json_parse(ba));
    ASSERT_EQ(report.series.size(), 1u);
    EXPECT_EQ(report.series[0].paired, 1u);
    EXPECT_EQ(report.series[0].only_old, 0u);
    EXPECT_EQ(report.series[0].only_new, 0u);
}

TEST(Regress, RejectsDocumentsThatAreNotRunRecords) {
    const obs::Json record = obs::json_parse(record_json(1.0));
    const obs::Json other = obs::json_parse(R"({"schema": "something-else/9"})");
    const obs::Json plain = obs::json_parse(R"({"values": [1, 2, 3]})");
    EXPECT_THROW((void)compare_reports(other, record), Error);
    EXPECT_THROW((void)compare_reports(record, plain), Error);
}

/// \p record with a "spans" summary appended.
std::string with_spans(std::string record, const std::string& spans) {
    record.pop_back();  // the closing brace
    return record + R"(, "spans": [)" + spans + "]}";
}

TEST(Regress, SpansInBothRecordsGetInformationalRows) {
    const obs::Json older = obs::json_parse(with_spans(record_json(1.0), R"(
        {"name": "ctmc.solve", "count": 4, "total_us": 400},
        {"name": "ctmc.transient", "count": 10, "total_us": 20000})"));
    const obs::Json newer = obs::json_parse(with_spans(record_json(1.0), R"(
        {"name": "ctmc.transient", "count": 10, "total_us": 12000},
        {"name": "ctmc.solve", "count": 8, "total_us": 4000})"));
    const RegressReport report = compare_reports(older, newer);
    // In the new record's order.
    ASSERT_EQ(report.spans.size(), 2u);
    EXPECT_EQ(report.spans[0].name, "ctmc.transient");
    EXPECT_EQ(report.spans[0].old_calls, 10.0);
    EXPECT_EQ(report.spans[0].new_calls, 10.0);
    EXPECT_DOUBLE_EQ(report.spans[0].old_us_per_call, 2000.0);
    EXPECT_DOUBLE_EQ(report.spans[0].new_us_per_call, 1200.0);
    EXPECT_DOUBLE_EQ(report.spans[0].ratio, 0.6);
    EXPECT_EQ(report.spans[1].name, "ctmc.solve");
    EXPECT_DOUBLE_EQ(report.spans[1].old_us_per_call, 100.0);
    EXPECT_DOUBLE_EQ(report.spans[1].new_us_per_call, 500.0);
    EXPECT_DOUBLE_EQ(report.spans[1].ratio, 5.0);
    // A span five times slower per call leaves the verdict alone.
    EXPECT_FALSE(report.regression);
    const std::string table = report.table();
    EXPECT_NE(table.find("new_us/call"), std::string::npos);
    EXPECT_NE(table.find("ctmc.transient"), std::string::npos);
    EXPECT_NE(table.find("2000.00"), std::string::npos);
    EXPECT_NE(table.find("0.600"), std::string::npos);
}

TEST(Regress, SpansOnOneSideOnlyGetRowsWithoutRatio) {
    const obs::Json older = obs::json_parse(with_spans(record_json(1.0), R"(
        {"name": "ctmc.solve", "count": 4, "total_us": 400},
        {"name": "only.old", "count": 2, "total_us": 50})"));
    const obs::Json newer = obs::json_parse(with_spans(record_json(1.0), R"(
        {"name": "only.new", "count": 3, "total_us": 9},
        {"name": "ctmc.solve", "count": 4, "total_us": 400})"));
    const RegressReport report = compare_reports(older, newer);
    // The new record's spans in its order, then the spans only the old has.
    ASSERT_EQ(report.spans.size(), 3u);
    EXPECT_EQ(report.spans[0].name, "only.new");
    EXPECT_FALSE(report.spans[0].in_old);
    EXPECT_TRUE(report.spans[0].in_new);
    EXPECT_EQ(report.spans[0].new_calls, 3.0);
    EXPECT_DOUBLE_EQ(report.spans[0].new_us_per_call, 3.0);
    EXPECT_EQ(report.spans[0].ratio, 0.0);
    EXPECT_EQ(report.spans[1].name, "ctmc.solve");
    EXPECT_TRUE(report.spans[1].in_old && report.spans[1].in_new);
    EXPECT_DOUBLE_EQ(report.spans[1].ratio, 1.0);
    EXPECT_EQ(report.spans[2].name, "only.old");
    EXPECT_TRUE(report.spans[2].in_old);
    EXPECT_FALSE(report.spans[2].in_new);
    EXPECT_EQ(report.spans[2].old_calls, 2.0);
    EXPECT_DOUBLE_EQ(report.spans[2].old_us_per_call, 25.0);
    EXPECT_FALSE(report.regression);

    // The missing side and the ratio print "-".
    const std::string table = report.table();
    const auto row = [&table](const std::string& name) {
        const std::size_t at = table.find(name);
        EXPECT_NE(at, std::string::npos) << name;
        return table.substr(at, table.find('\n', at) - at);
    };
    std::istringstream only_new(row("only.new"));
    std::vector<std::string> cells{std::istream_iterator<std::string>(only_new), {}};
    EXPECT_EQ(cells, (std::vector<std::string>{"only.new", "-", "3", "-", "3.00", "-"}));
    std::istringstream only_old(row("only.old"));
    cells.assign(std::istream_iterator<std::string>(only_old), {});
    EXPECT_EQ(cells, (std::vector<std::string>{"only.old", "2", "-", "25.00", "-", "-"}));
}

TEST(Regress, RecordsWithoutSpansPrintNoSpanTable) {
    const obs::Json record = obs::json_parse(with_spans(record_json(1.0), ""));
    const RegressReport report = compare_reports(record, record);
    EXPECT_TRUE(report.spans.empty());
    EXPECT_EQ(report.table().find("new_us/call"), std::string::npos);
}

TEST(Regress, OptionsValidateRejectsNonsense) {
    RegressOptions options;
    EXPECT_NO_THROW(options.validate());
    options.threshold = 1.0;
    EXPECT_THROW(options.validate(), Error);
    options.threshold = 1.2;
    options.confidence = 1.0;
    EXPECT_THROW(options.validate(), Error);
    options.confidence = 0.95;
    options.resamples = 0;
    EXPECT_THROW(options.validate(), Error);
}

}  // namespace
}  // namespace dpma::exp
