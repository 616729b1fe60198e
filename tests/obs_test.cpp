#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "adl/compose.hpp"
#include "aemilia/parser.hpp"
#include "core/error.hpp"
#include "ctmc/absorption.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/solve.hpp"
#include "ctmc_fixtures.hpp"
#include "exp/experiment.hpp"
#include "exp/report.hpp"
#include "lts/ops.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"
#include "noninterference/noninterference.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "sim/batch_means.hpp"

namespace dpma {
namespace {

// ---------------------------------------------------------------- logging

TEST(ObsLog, ParsesLevels) {
    obs::LogLevel level = obs::LogLevel::Error;
    EXPECT_TRUE(obs::parse_log_level("warn", &level));
    EXPECT_EQ(level, obs::LogLevel::Warn);
    EXPECT_TRUE(obs::parse_log_level("debug", &level));
    EXPECT_EQ(level, obs::LogLevel::Debug);
    EXPECT_TRUE(obs::parse_log_level("error", &level));
    EXPECT_EQ(level, obs::LogLevel::Error);
    EXPECT_TRUE(obs::parse_log_level("info", &level));
    EXPECT_EQ(level, obs::LogLevel::Info);

    level = obs::LogLevel::Warn;
    EXPECT_FALSE(obs::parse_log_level("loud", &level));
    EXPECT_FALSE(obs::parse_log_level("WARN", &level));
    EXPECT_FALSE(obs::parse_log_level("", &level));
    EXPECT_EQ(level, obs::LogLevel::Warn);  // untouched on failure
}

TEST(ObsLog, LevelGatesMessages) {
    const obs::LogLevel before = obs::log_level();
    obs::set_log_level(obs::LogLevel::Info);
    EXPECT_TRUE(obs::log_enabled(obs::LogLevel::Error));
    EXPECT_TRUE(obs::log_enabled(obs::LogLevel::Info));
    EXPECT_FALSE(obs::log_enabled(obs::LogLevel::Debug));
    obs::set_log_level(before);
}

// ------------------------------------------------------------------- JSON

TEST(ObsJson, QuotesEscapes) {
    EXPECT_EQ(obs::json_quote("plain"), "\"plain\"");
    EXPECT_EQ(obs::json_quote("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(obs::json_quote("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(obs::json_quote("a\nb\tc"), "\"a\\nb\\tc\"");
    EXPECT_EQ(obs::json_quote(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(ObsJson, NumbersRoundTripAndNonFiniteBecomesNull) {
    EXPECT_EQ(obs::json_number(0.0), "0");
    const std::string third = obs::json_number(1.0 / 3.0);
    EXPECT_DOUBLE_EQ(std::stod(third), 1.0 / 3.0);
    EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(obs::json_number(std::nan("")), "null");
}

TEST(ObsJson, ValidatorAcceptsValidDocuments) {
    for (const char* text :
         {"{}", "[]", "null", "true", "-1.5e-3", "[1e999, -1e-999]", "\"a\\u00e9\"",
          R"({"a": [1, 2, {"b": null}], "c": "x\n"})"}) {
        std::string error;
        EXPECT_TRUE(obs::json_valid(text, &error)) << text << ": " << error;
    }
}

TEST(ObsJson, ValidatorRejectsInvalidDocuments) {
    for (const char* text :
         {"", "{", "[1,]", "{\"a\":}", "{'a': 1}", "01", "nul", "[1] trailing",
          "\"unterminated", "{\"a\" 1}", "[1 2]"}) {
        std::string error;
        EXPECT_FALSE(obs::json_valid(text, &error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

// ---------------------------------------------------------------- metrics

TEST(ObsMetrics, CountersGaugesHistograms) {
    obs::Counter& c = obs::counter("test.obs.counter");
    const std::uint64_t base = c.value();
    c.add();
    c.add(4);
    EXPECT_EQ(c.value(), base + 5);
    EXPECT_EQ(&c, &obs::counter("test.obs.counter"));  // stable reference

    obs::gauge("test.obs.gauge").set(2.5);
    EXPECT_DOUBLE_EQ(obs::gauge("test.obs.gauge").value(), 2.5);

    obs::Histogram& h = obs::histogram("test.obs.histogram");
    h.reset();
    h.observe(1.0);
    h.observe(3.0);
    const obs::Histogram::Snapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 2u);
    EXPECT_DOUBLE_EQ(snap.sum, 4.0);
    EXPECT_DOUBLE_EQ(snap.min, 1.0);
    EXPECT_DOUBLE_EQ(snap.max, 3.0);
    EXPECT_DOUBLE_EQ(snap.mean(), 2.0);
}

TEST(ObsMetrics, JsonDumpIsValidAndComplete) {
    obs::counter("test.obs.dump \"quoted\"").add();
    obs::gauge("test.obs.dump_gauge").set(1.0);
    obs::histogram("test.obs.dump_hist").observe(7.0);
    const std::string json = obs::metrics_json();
    std::string error;
    EXPECT_TRUE(obs::json_valid(json, &error)) << error;
    EXPECT_NE(json.find("test.obs.dump \\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("test.obs.dump_gauge"), std::string::npos);
    EXPECT_NE(json.find("test.obs.dump_hist"), std::string::npos);

    const std::string text = obs::metrics_text();
    EXPECT_NE(text.find("test.obs.dump_gauge = 1"), std::string::npos);
}

TEST(ObsMetrics, CountersAreThreadSafe) {
    obs::Counter& c = obs::counter("test.obs.mt_counter");
    const std::uint64_t base = c.value();
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&c] {
            for (int i = 0; i < 10000; ++i) c.add();
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(c.value(), base + 40000);
}

// Log-spaced bins (10 per decade): a quantile estimate is the geometric
// midpoint of its bin, so it can be off by at most the bin width factor
// 10^(1/10) ~ 1.26 on either side — that factor is the test tolerance.
TEST(ObsMetrics, HistogramQuantilesTrackPercentilesWithinBinResolution) {
    obs::Histogram& h = obs::histogram("test.obs.quantiles");
    h.reset();
    for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
    const obs::Histogram::Snapshot snap = h.snapshot();
    ASSERT_EQ(snap.count, 1000u);
    const double factor = std::pow(10.0, 0.1);
    for (const auto& [q, expected] :
         {std::pair{0.50, 500.0}, {0.90, 900.0}, {0.99, 990.0}}) {
        const double estimate = snap.quantile(q);
        EXPECT_GE(estimate, expected / factor) << "q=" << q;
        EXPECT_LE(estimate, expected * factor) << "q=" << q;
    }
    // Extremes clamp to the exact observed min/max.
    EXPECT_DOUBLE_EQ(snap.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(snap.quantile(1.0), 1000.0);
}

TEST(ObsMetrics, HistogramQuantilesHandleOutOfRangeAndEmpty) {
    obs::Histogram& h = obs::histogram("test.obs.quantile_edges");
    h.reset();
    EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 0.0);  // empty
    h.observe(1e-12);  // underflow bin
    h.observe(1e15);   // overflow bin
    const obs::Histogram::Snapshot snap = h.snapshot();
    EXPECT_DOUBLE_EQ(snap.quantile(0.25), 1e-12);
    EXPECT_DOUBLE_EQ(snap.quantile(0.99), 1e15);
}

TEST(ObsMetrics, JsonDumpCarriesHistogramPercentiles) {
    obs::Histogram& h = obs::histogram("test.obs.pct_dump");
    h.reset();
    for (int i = 0; i < 100; ++i) h.observe(5.0);
    const std::string json = obs::metrics_json();
    std::string error;
    EXPECT_TRUE(obs::json_valid(json, &error)) << error;
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    EXPECT_NE(json.find("\"p90\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    const obs::Json doc = obs::json_parse(json);
    const obs::Json* hist = doc.find("histograms");
    ASSERT_NE(hist, nullptr);
    const obs::Json* entry = hist->find("test.obs.pct_dump");
    ASSERT_NE(entry, nullptr);
    // Every sample is 5.0: the bin midpoint clamps to the min=max=5 range.
    EXPECT_DOUBLE_EQ(entry->number_at("p50"), 5.0);
    EXPECT_DOUBLE_EQ(entry->number_at("p99"), 5.0);
}

// ------------------------------------------------------------- JSON parser

TEST(ObsJsonParse, BuildsTheDocumentTree) {
    const obs::Json doc = obs::json_parse(
        R"({"name": "r\u00e9sum\u00e9", "n": -2.5e2, "flag": true,)"
        R"( "list": [1, "two", null], "nested": {"deep": {"x": 9}}})");
    ASSERT_TRUE(doc.is_object());
    EXPECT_EQ(doc.string_at("name"), "r\xc3\xa9sum\xc3\xa9");
    EXPECT_DOUBLE_EQ(doc.number_at("n"), -250.0);
    const obs::Json* flag = doc.find("flag");
    ASSERT_NE(flag, nullptr);
    EXPECT_TRUE(flag->boolean);
    const obs::Json* list = doc.find("list");
    ASSERT_TRUE(list != nullptr && list->is_array());
    ASSERT_EQ(list->array.size(), 3u);
    EXPECT_DOUBLE_EQ(list->array[0].number, 1.0);
    EXPECT_EQ(list->array[1].string, "two");
    EXPECT_TRUE(list->array[2].is_null());
    const obs::Json* nested = doc.find("nested");
    ASSERT_NE(nested, nullptr);
    EXPECT_DOUBLE_EQ(nested->find("deep")->number_at("x"), 9.0);
    // Missing keys fall back instead of throwing.
    EXPECT_EQ(doc.find("absent"), nullptr);
    EXPECT_DOUBLE_EQ(doc.number_at("absent", -1.0), -1.0);
    EXPECT_EQ(doc.string_at("absent", "d"), "d");
}

TEST(ObsJsonParse, AgreesWithTheValidator) {
    for (const char* text :
         {"", "{", "[1,]", "{\"a\":}", "01", "[1] trailing", "\"\\u12g4\"",
          "nul"}) {
        EXPECT_THROW((void)obs::json_parse(text), Error) << text;
        EXPECT_FALSE(obs::json_valid(text)) << text;
    }
    // Surrogate pair -> one 4-byte UTF-8 code point.
    EXPECT_EQ(obs::json_parse(R"("\ud83d\ude00")").string, "\xf0\x9f\x98\x80");
}

TEST(ObsJsonParse, RoundTripsMetricsAndResultSets) {
    exp::ResultSet set("roundtrip", {"rate"}, {"m"});
    exp::Point point;
    point.coords = {{"rate", 0.25}};
    exp::PointResult result;
    result.values = {4.0};
    set.add(std::move(point), std::move(result));
    const obs::Json doc = obs::json_parse(set.json());
    EXPECT_EQ(doc.string_at("experiment"), "roundtrip");
    const obs::Json* points = doc.find("points");
    ASSERT_TRUE(points != nullptr && points->is_array());
    ASSERT_EQ(points->array.size(), 1u);
    EXPECT_DOUBLE_EQ(points->array[0].find("values")->number_at("m"), 4.0);
}

// -------------------------------------------------------------- resources

TEST(ObsResource, SamplesPlausibleUsage) {
    const obs::ResourceUsage usage = obs::sample_resources();
    EXPECT_TRUE(std::string(usage.source) == "procfs" ||
                std::string(usage.source) == "getrusage" ||
                std::string(usage.source) == "none")
        << usage.source;
    EXPECT_GE(usage.cpu_user_s, 0.0);
    EXPECT_GE(usage.cpu_system_s, 0.0);
#if defined(__linux__)
    // A running test process has touched memory and faulted pages.
    EXPECT_GT(usage.peak_rss_kb, 0u);
    EXPECT_GT(usage.minor_faults + usage.major_faults, 0u);
#endif
}

// ------------------------------------------------------------- run records

TEST(ObsRunReport, EmitsTheDocumentedSchema) {
    obs::RunReport report("unit_test");
    report.set_args({"unit_test", "--flag"});
    report.add_series(R"({"experiment": "s1", "points": []})");
    const std::string json = report.json();
    std::string error;
    ASSERT_TRUE(obs::json_valid(json, &error)) << error;
    const obs::Json doc = obs::json_parse(json);
    EXPECT_EQ(doc.string_at("schema"), "dpma-run-report/1");
    EXPECT_EQ(doc.string_at("tool"), "unit_test");
    EXPECT_GE(doc.number_at("wall_s"), 0.0);
    for (const char* key : {"git_sha", "build_type", "resource_source"}) {
        EXPECT_FALSE(doc.string_at(key).empty()) << key;
    }
    for (const char* key : {"env", "metrics", "spans", "series", "peak_rss_kb",
                            "cpu_user_s", "minor_faults", "major_faults"}) {
        EXPECT_NE(doc.find(key), nullptr) << key;
    }
    const obs::Json* args = doc.find("args");
    ASSERT_TRUE(args != nullptr && args->is_array());
    EXPECT_EQ(args->array.size(), 2u);
    const obs::Json* series = doc.find("series");
    ASSERT_TRUE(series != nullptr && series->is_array());
    ASSERT_EQ(series->array.size(), 1u);
    EXPECT_EQ(series->array[0].string_at("experiment"), "s1");
}

TEST(ObsRunReport, RejectsInvalidSeriesJson) {
    obs::RunReport report("unit_test");
    EXPECT_THROW(report.add_series("{broken"), Error);
    EXPECT_THROW(report.add_series(""), Error);
    EXPECT_NO_THROW(report.add_series("{}"));
}

TEST(ObsRunReport, ReportPathHonoursEnvOverrides) {
    unsetenv("DPMA_REPORT");
    EXPECT_EQ(obs::report_path("fig3"), "BENCH_fig3.json");
    setenv("DPMA_REPORT", "custom/path.json", 1);
    EXPECT_EQ(obs::report_path("fig3"), "custom/path.json");
    setenv("DPMA_REPORT", "0", 1);
    EXPECT_EQ(obs::report_path("fig3"), "");
    setenv("DPMA_REPORT", "", 1);
    EXPECT_EQ(obs::report_path("fig3"), "");
    unsetenv("DPMA_REPORT");
}

// ---------------------------------------------------------------- tracing

TEST(ObsTrace, SpansProduceValidChromeTraceJson) {
    obs::clear_trace();
    obs::set_tracing(true);
    {
        DPMA_NAMED_SPAN(outer, "test.outer", "test");
        outer.arg("states", 42.0);
        DPMA_SPAN("test.inner", "test");
    }
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < 50; ++i) {
                DPMA_SPAN("test.worker", "test");
            }
        });
    }
    for (std::thread& t : threads) t.join();
    obs::set_tracing(false);

#if !defined(DPMA_OBS_DISABLED)
    EXPECT_EQ(obs::trace_size(), 2u + 4u * 50u);
#endif
    const std::string json = obs::trace_json();
    std::string error;
    EXPECT_TRUE(obs::json_valid(json, &error)) << error;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
#if !defined(DPMA_OBS_DISABLED)
    EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
    EXPECT_NE(json.find("\"states\""), std::string::npos);

    const std::vector<obs::SpanStats> summary = obs::span_summary();
    bool found_worker = false;
    for (const obs::SpanStats& s : summary) {
        if (s.name == "test.worker") {
            found_worker = true;
            EXPECT_EQ(s.count, 200u);
        }
    }
    EXPECT_TRUE(found_worker);
#endif
    obs::clear_trace();
}

TEST(ObsTrace, DisabledSpansRecordNothing) {
    obs::clear_trace();
    obs::set_tracing(false);
    for (int i = 0; i < 100; ++i) {
        DPMA_SPAN("test.disabled", "test");
    }
    EXPECT_EQ(obs::trace_size(), 0u);
}

// A disabled span must stay near-zero cost: the constructor is one relaxed
// atomic load and the destructor one branch.  The bound is deliberately
// loose (1 microsecond averaged over 200k spans) so the test never flakes
// on loaded CI machines while still catching accidental work on the
// disabled path (e.g. an unconditional clock read).
TEST(ObsTrace, DisabledSpanOverheadIsBounded) {
    obs::set_tracing(false);
    constexpr int kIterations = 200000;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kIterations; ++i) {
        DPMA_SPAN("test.overhead", "test");
    }
    const std::chrono::duration<double, std::micro> elapsed =
        std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed.count() / kIterations, 1.0);
}

/// Args of the first traced span named \p name (null when absent).
const obs::Json* span_args(const obs::Json& trace, std::string_view name) {
    const obs::Json* events = trace.find("traceEvents");
    if (events == nullptr) return nullptr;
    for (const obs::Json& event : events->array) {
        if (event.string_at("name") == name) return event.find("args");
    }
    return nullptr;
}

TEST(ObsTrace, BuildAndSolveSpansCarryTheirSizes) {
    const adl::ComposedModel model = adl::compose(ctmc::vanishing_model(0.25, 1));
    const std::uint64_t entries_before = obs::counter("ctmc.generator_entries").value();
    obs::clear_trace();
    obs::set_tracing(true);
    const ctmc::MarkovModel markov = ctmc::build_markov(model);
    // 0 -> 1 <-> 2: state 0 is transient, the recurrent class has 2 states.
    (void)ctmc::steady_state(ctmc::Ctmc(3, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 1, 2.0}}));
    obs::set_tracing(false);
    // Start, Left and Right are tangible, Choice is vanishing; Start enters
    // Left and Right through it, and each of them returns to Start.
    EXPECT_EQ(markov.chain.num_entries(), 4u);
    EXPECT_EQ(obs::counter("ctmc.generator_entries").value(), entries_before + 4);
#if !defined(DPMA_OBS_DISABLED)
    const obs::Json trace = obs::json_parse(obs::trace_json());
    const obs::Json* build = span_args(trace, "ctmc.build_markov");
    ASSERT_NE(build, nullptr);
    EXPECT_EQ(build->number_at("states"), 4.0);
    EXPECT_EQ(build->number_at("tangible"), 3.0);
    EXPECT_EQ(build->number_at("vanishing"), 1.0);
    EXPECT_EQ(build->number_at("generator_entries"), 4.0);
    const obs::Json* solve = span_args(trace, "ctmc.solve");
    ASSERT_NE(solve, nullptr);
    EXPECT_EQ(solve->number_at("states"), 3.0);
    EXPECT_EQ(solve->number_at("recurrent"), 2.0);
    EXPECT_EQ(solve->number_at("factor_entries"), 2.0);
#endif
    obs::clear_trace();
}

TEST(ObsTrace, ParseAndSaturateSpansCarryTheirSizes) {
    constexpr std::string_view kSpec = R"(
ARCHI_TYPE Toggle(void)
ARCHI_ELEM_TYPES
ELEM_TYPE T(void)
  BEHAVIOR
    Off(void; void) = <on, exp(1)> . On();
    On(void; void) = <off, exp(2)> . Off()
  INPUT_INTERACTIONS void
  OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    X : T()
END
)";
    constexpr std::string_view kMeasures = R"(
MEASURE switches IS ENABLED(X.on) -> TRANS_REWARD(1);
MEASURE up IS ENABLED(X.off) -> STATE_REWARD(1)
)";
    obs::clear_trace();
    obs::set_tracing(true);
    const adl::ComposedModel model = adl::compose(aemilia::parse_archi_type(kSpec));
    const std::vector<adl::Measure> measures = aemilia::parse_measures(kMeasures);
    const lts::Lts saturated = lts::saturate(model.graph);
    obs::set_tracing(false);
    ASSERT_EQ(model.graph.num_states(), 2u);
    ASSERT_EQ(measures.size(), 2u);
    // Per state: its reflexive tau step and its one visible move.
    EXPECT_EQ(saturated.num_transitions(), 4u);
#if !defined(DPMA_OBS_DISABLED)
    const obs::Json trace = obs::json_parse(obs::trace_json());
    std::vector<const obs::Json*> parses;
    for (const obs::Json& event : trace.find("traceEvents")->array) {
        if (event.string_at("name") == "aemilia.parse") parses.push_back(event.find("args"));
    }
    ASSERT_EQ(parses.size(), 2u);
    EXPECT_EQ(parses[0]->number_at("bytes"), static_cast<double>(kSpec.size()));
    EXPECT_EQ(parses[0]->number_at("instances"), 1.0);
    EXPECT_EQ(parses[1]->number_at("bytes"), static_cast<double>(kMeasures.size()));
    EXPECT_EQ(parses[1]->number_at("measures"), 2.0);
    const obs::Json* saturate = span_args(trace, "lts.saturate");
    ASSERT_NE(saturate, nullptr);
    EXPECT_EQ(saturate->number_at("states"), 2.0);
    EXPECT_EQ(saturate->number_at("weak_transitions"), 4.0);
#endif
    obs::clear_trace();
}

TEST(ObsTrace, NoninterferenceCheckTracesViewsAndBranchingReduction) {
    const adl::ArchiType archi = models::archi("rpc_untimed.aem");
    const adl::ComposedModel model = adl::compose(archi);
    const std::uint64_t rounds_before = obs::counter("bisim.branching.rounds").value();
    const std::uint64_t blocks_before = obs::counter("bisim.branching.blocks").value();
    obs::clear_trace();
    obs::set_tracing(true);
    const noninterference::Result verdict = noninterference::check_dpm_transparency(
        model, models::high_action_labels(archi), "C");
    obs::set_tracing(false);
    EXPECT_FALSE(verdict.noninterfering);
    const std::uint64_t rounds = obs::counter("bisim.branching.rounds").value() - rounds_before;
    const std::uint64_t blocks = obs::counter("bisim.branching.blocks").value() - blocks_before;
    // The views differ, so the roots had to be split apart.
    EXPECT_GE(rounds, 1u);
    EXPECT_GE(blocks, 2u);
#if !defined(DPMA_OBS_DISABLED)
    const obs::Json trace = obs::json_parse(obs::trace_json());
    const obs::Json* views = span_args(trace, "noninterference.views");
    ASSERT_NE(views, nullptr);
    EXPECT_EQ(views->number_at("states"), static_cast<double>(model.graph.num_states()));
    const obs::Json* branching = span_args(trace, "bisim.branching");
    ASSERT_NE(branching, nullptr);
    EXPECT_GT(branching->number_at("states"), 0.0);
    EXPECT_EQ(branching->number_at("blocks"), static_cast<double>(blocks));
    EXPECT_EQ(branching->number_at("rounds"), static_cast<double>(rounds));
#endif
    obs::clear_trace();
}

// ------------------------------------------------------------ diagnostics

TEST(ObsDiagnostics, HittingTimesAreCountedByMethod) {
    std::vector<ctmc::Ctmc::Triplet> rates;
    for (ctmc::TangibleId i = 0; i + 1 < 5; ++i) {
        rates.push_back({i, i + 1, 2.0});
        rates.push_back({i + 1, i, 3.0});
    }
    const ctmc::Ctmc chain(5, rates);
    std::vector<char> targets(5, 0);
    targets[4] = 1;
    const std::uint64_t sparse = obs::counter("ctmc.solve.sparse_elimination").value();
    const std::uint64_t dense = obs::counter("ctmc.solve.dense_elimination").value();
    obs::clear_trace();
    obs::set_tracing(true);
    ASSERT_EQ(ctmc::expected_hitting_times(chain, targets).size(), 5u);
    obs::set_tracing(false);
#if !defined(DPMA_OBS_DISABLED)
    const std::string trace = obs::trace_json();
    EXPECT_NE(trace.find("\"ctmc.hitting\""), std::string::npos) << trace;
    EXPECT_NE(trace.find("\"factor_entries\""), std::string::npos) << trace;
#endif
    obs::clear_trace();
    EXPECT_EQ(obs::counter("ctmc.solve.sparse_elimination").value(), sparse + 1);
    // The dense oracle runs only when a threshold reaches the chain size.
    ASSERT_EQ(ctmc::expected_hitting_times(chain, targets, chain.num_states()).size(), 5u);
    EXPECT_EQ(obs::counter("ctmc.solve.dense_elimination").value(), dense + 1);
    ASSERT_EQ(ctmc::hitting_probabilities(chain, targets).size(), 5u);
    EXPECT_EQ(obs::counter("ctmc.solve.sparse_elimination").value(), sparse + 2);
}

TEST(ObsDiagnostics, SteadyStateReportsGthFactorEntries) {
    const ctmc::Ctmc chain(3, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 0, 1.0}});
    const std::uint64_t sparse = obs::counter("ctmc.solve.gth").value();
    const std::uint64_t dense = obs::counter("ctmc.solve.gth_dense").value();
    ctmc::SolveDiagnostics diagnostics;
    ctmc::SolveOptions options;
    options.diagnostics = &diagnostics;
    obs::clear_trace();
    obs::set_tracing(true);
    (void)ctmc::steady_state(chain, options);
    obs::set_tracing(false);
#if !defined(DPMA_OBS_DISABLED)
    const obs::Json trace = obs::json_parse(obs::trace_json());
    const obs::Json* span = span_args(trace, "ctmc.solve");
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(span->number_at("factor_entries"), 4.0);
    // Eliminated in reverse order, state 2 goes first: its U row spans the
    // two later states but reaches only state 0, so the profile stores one
    // zero.  L 1 + 1 slots, U 2 + 1 + 0: density 4 / 5.
    EXPECT_EQ(span->number_at("factor_slots"), 5.0);
    EXPECT_EQ(span->number_at("residual"), diagnostics.final_residual);
#endif
    obs::clear_trace();
    EXPECT_LE(diagnostics.final_residual, 1e-15);
    EXPECT_EQ(diagnostics.method, "gth");
    EXPECT_EQ(diagnostics.states, 3u);
    EXPECT_EQ(diagnostics.iterations, 0u);
    // The ring folds to two multipliers and two U entries.
    EXPECT_EQ(diagnostics.factor_entries, 4u);
    std::string error;
    EXPECT_TRUE(obs::json_valid(diagnostics.json(), &error)) << error;
    EXPECT_NE(diagnostics.json().find("\"factor_entries\": 4"), std::string::npos);
    EXPECT_EQ(obs::counter("ctmc.solve.gth").value(), sparse + 1);
    // The dense reference is counted apart, and only when asked for.
    options.dense_threshold = SIZE_MAX;
    (void)ctmc::steady_state(chain, options);
    EXPECT_EQ(obs::counter("ctmc.solve.gth_dense").value(), dense + 1);
    EXPECT_EQ(diagnostics.method, "gth");
    EXPECT_EQ(diagnostics.factor_entries, 9u);
}

TEST(ObsTrace, TransientSpansReportTheSeriesLength) {
    // 0 <-> 1 at rates 1 and 2: lambda = 2.1, so lambda t = 2.1 at t = 1.
    // The tail bound w_k lt / (k+1-lt) first drops below 1e-12 at k = 19
    // and below the reward's 1e-13 at k = 20.
    const ctmc::Ctmc chain(2, {{0, 1, 1.0}, {1, 0, 2.0}});
    obs::clear_trace();
    obs::set_tracing(true);
    (void)ctmc::transient(chain, {{0, 1.0}}, 1.0);
    (void)ctmc::accumulated_reward(chain, {{0, 1.0}}, {1.0, 0.0}, 1.0);
    obs::set_tracing(false);
#if !defined(DPMA_OBS_DISABLED)
    const obs::Json trace = obs::json_parse(obs::trace_json());
    const obs::Json* transient = span_args(trace, "ctmc.transient");
    ASSERT_NE(transient, nullptr);
    EXPECT_EQ(transient->number_at("states"), 2.0);
    EXPECT_EQ(transient->number_at("entries"), 2.0);
    EXPECT_EQ(transient->number_at("terms"), 20.0);
    const obs::Json* reward = span_args(trace, "ctmc.accumulated_reward");
    ASSERT_NE(reward, nullptr);
    EXPECT_EQ(reward->number_at("states"), 2.0);
    EXPECT_EQ(reward->number_at("entries"), 2.0);
    EXPECT_EQ(reward->number_at("terms"), 21.0);
#endif
    obs::clear_trace();
}

TEST(ObsDiagnostics, ConvergenceJsonIsValid) {
    sim::BatchEstimate estimate;
    estimate.mean = 0.5;
    estimate.half_width = 0.01;
    estimate.lag1_autocorrelation = -0.1;
    estimate.cumulative_half_widths = {0.08, 0.04, 0.02, 0.01};
    const std::string json = sim::convergence_json({estimate}, {"util \"disk\""});
    std::string error;
    EXPECT_TRUE(obs::json_valid(json, &error)) << error;
    EXPECT_NE(json.find("half_width_trajectory"), std::string::npos);
    EXPECT_NE(json.find("\\\"disk\\\""), std::string::npos);
}

// ------------------------------------------------- ResultSet JSON escaping

TEST(ResultSetJson, EscapesNamesAndEmbedsDiagnostics) {
    exp::ResultSet set("sweep \"q\"\n", {"rate"}, {"util\\path"});
    exp::Point point;
    point.coords = {{"rate", 0.5}};
    exp::PointResult result;
    result.values = {1.25};
    result.half_widths = {0.5};
    result.diagnostics = "{\"solver\": {\"method\": \"gth\"}}";
    set.add(std::move(point), std::move(result));

    const std::string json = set.json();
    std::string error;
    EXPECT_TRUE(obs::json_valid(json, &error)) << error;
    EXPECT_NE(json.find("\"sweep \\\"q\\\"\\n\""), std::string::npos);
    EXPECT_NE(json.find("\"util\\\\path\""), std::string::npos);
    EXPECT_NE(json.find("\"diagnostics\": {\"solver\""), std::string::npos);
}

TEST(ResultSetJson, OmitsDiagnosticsWhenEmpty) {
    exp::ResultSet set("plain", {"rate"}, {"m"});
    exp::Point point;
    point.coords = {{"rate", 1.0}};
    exp::PointResult result;
    result.values = {2.0};
    set.add(std::move(point), std::move(result));
    const std::string json = set.json();
    std::string error;
    EXPECT_TRUE(obs::json_valid(json, &error)) << error;
    EXPECT_EQ(json.find("diagnostics"), std::string::npos);
}

}  // namespace
}  // namespace dpma
