#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "adl/compose.hpp"
#include "aemilia/parser.hpp"
#include "analysis/diag.hpp"
#include "analysis/flow/analyze.hpp"
#include "analysis/flow/interval.hpp"
#include "analysis/flow/transparency.hpp"
#include "noninterference/noninterference.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#ifndef DPMA_SPECS_DIR
#error "DPMA_SPECS_DIR must point at the shipped specs/ directory"
#endif
#ifndef DPMA_ANALYSIS_FIXTURE_DIR
#error "DPMA_ANALYSIS_FIXTURE_DIR must point at tests/fixtures/analysis"
#endif

namespace dpma::analysis::flow {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::string key(const std::string& code, int line, int column) {
    return code + " @ " + std::to_string(line) + ":" + std::to_string(column);
}

/// `// expect: <code> @ <line>:<col>` annotations of a fixture.
std::vector<std::string> expectations(const std::string& text) {
    std::vector<std::string> out;
    std::istringstream lines(text);
    std::string line;
    const std::string marker = "// expect: ";
    while (std::getline(lines, line)) {
        const std::size_t at = line.find(marker);
        if (at == std::string::npos) continue;
        std::string spec = line.substr(at + marker.size());
        while (!spec.empty() && (spec.back() == '\r' || spec.back() == ' ')) {
            spec.pop_back();
        }
        out.push_back(spec);
    }
    return out;
}

std::vector<fs::path> fixture_files() {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(DPMA_ANALYSIS_FIXTURE_DIR)) {
        if (entry.path().extension() == ".aem") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    EXPECT_FALSE(files.empty());
    return files;
}

// --- negative fixtures: exact diagnostic multisets ---------------------------

TEST(FlowFixtures, EveryFixtureEmitsExactlyItsExpectedDiagnostics) {
    for (const fs::path& path : fixture_files()) {
        const std::string text = read_file(path);
        const AnalyzeResult result = analyze_text(text, path.string());
        std::vector<std::string> expected = expectations(text);
        std::vector<std::string> actual;
        for (const Diagnostic& d : result.all()) {
            actual.push_back(key(code_name(d.code), d.span.loc.line, d.span.loc.column));
        }
        std::sort(expected.begin(), expected.end());
        std::sort(actual.begin(), actual.end());
        EXPECT_EQ(actual, expected) << path;
    }
}

TEST(FlowFixtures, DiagnosticsCarrySpansAndSeverities) {
    for (const fs::path& path : fixture_files()) {
        const AnalyzeResult result = analyze_text(read_file(path), path.string());
        for (const Diagnostic& d : result.all()) {
            EXPECT_EQ(d.severity, code_severity(d.code)) << path;
            EXPECT_GE(d.span.loc.line, 1) << code_name(d.code) << " in " << path;
            EXPECT_GE(d.span.loc.column, 1) << code_name(d.code) << " in " << path;
            EXPECT_FALSE(d.span.file.empty()) << path;
            EXPECT_FALSE(d.message.empty()) << path;
        }
    }
}

// --- golden: every shipped spec is analyze-clean -----------------------------

struct SpecPair {
    const char* spec;
    const char* measures;  // nullptr = model only
};

const SpecPair kShippedSpecs[] = {
    {"rpc_untimed.aem", nullptr},
    {"rpc_revised_markov.aem", "rpc_measures.msr"},
    {"rpc_general.aem", "rpc_measures.msr"},
    {"disk_markov.aem", "disk_measures.msr"},
    {"streaming_markov.aem", "streaming_measures.msr"},
    {"streaming_general.aem", "streaming_measures.msr"},
};

TEST(FlowGolden, ShippedSpecificationsAreAnalyzeClean) {
    for (const SpecPair& pair : kShippedSpecs) {
        const fs::path spec = fs::path(DPMA_SPECS_DIR) / pair.spec;
        AnalyzeResult result;
        if (pair.measures == nullptr) {
            result = analyze_text(read_file(spec), spec.string());
        } else {
            const fs::path measures = fs::path(DPMA_SPECS_DIR) / pair.measures;
            result = analyze_text(read_file(spec), spec.string(),
                                  read_file(measures), measures.string());
        }
        EXPECT_TRUE(result.flow_ran) << pair.spec;
        EXPECT_TRUE(result.clean())
            << pair.spec << " is not analyze-clean:\n" << render_text(result.all());
    }
}

// --- transparency: static verdict vs. the exact weak-bisimulation oracle -----

struct TransparencyCase {
    const char* spec;
    std::vector<std::string> high;
    const char* low;
    bool oracle_passes;
    // The static result, pinned: verdict, last slice checked, its product
    // states and the leak chain.
    TransparencyVerdict verdict;
    std::vector<std::string> slice;
    std::size_t slice_states;
    std::vector<std::string> leak_chain;
};

const TransparencyCase kTransparencyCases[] = {
    {"rpc_untimed.aem", {"DPM.send_shutdown#S.receive_shutdown"}, "C", false,
     TransparencyVerdict::Leaks, {"S", "RCS", "RSC", "DPM"}, 45,
     {"RCS.deliver_packet#S.receive_rpc_packet", "C.send_rpc_packet#RCS.get_packet"}},
    {"rpc_revised_markov.aem", {"DPM.send_shutdown#S.receive_shutdown"}, "C", true,
     TransparencyVerdict::Transparent, {"S", "DPM"}, 10, {}},
    {"rpc_general.aem", {"DPM.send_shutdown#S.receive_shutdown"}, "C", true,
     TransparencyVerdict::Transparent, {"S", "DPM"}, 10, {}},
    {"disk_markov.aem", {"DPM.send_shutdown#D.receive_shutdown"}, "SINK", true,
     TransparencyVerdict::Transparent, {"D", "DPM"}, 7, {}},
    {"streaming_markov.aem",
     {"DPM.send_shutdown#NIC.receive_shutdown", "DPM.send_wakeup#NIC.receive_wakeup"},
     "C", true, TransparencyVerdict::Transparent, {"NIC", "DPM"}, 10, {}},
    {"streaming_general.aem",
     {"DPM.send_shutdown#NIC.receive_shutdown", "DPM.send_wakeup#NIC.receive_wakeup"},
     "C", true, TransparencyVerdict::Transparent, {"NIC", "DPM"}, 10, {}},
};

/// The load-bearing guarantee of the whole engine: on every shipped spec the
/// static verdict agrees with the exact check — `transparent` only when the
/// oracle passes (soundness), and the oracle's failures never come back as
/// `transparent`.  The slice must also be a *proper* sub-architecture, or
/// "without building the product" would be vacuous.
TEST(Transparency, StaticVerdictAgreesWithExactOracleOnEveryShippedSpec) {
    for (const TransparencyCase& test_case : kTransparencyCases) {
        const fs::path spec = fs::path(DPMA_SPECS_DIR) / test_case.spec;
        const adl::ArchiType archi =
            aemilia::parse_archi_type_unchecked(read_file(spec));

        TransparencyOptions options;
        options.high_labels = test_case.high;
        options.low_instance = test_case.low;
        const TransparencyResult verdict = analyze_transparency(archi, options);
        EXPECT_EQ(verdict.verdict, test_case.verdict) << test_case.spec << ": " << verdict.reason;
        EXPECT_EQ(verdict.slice_instances, test_case.slice) << test_case.spec;
        EXPECT_EQ(verdict.slice_states, test_case.slice_states) << test_case.spec;
        EXPECT_EQ(verdict.leak_chain, test_case.leak_chain) << test_case.spec;

        const adl::ComposedModel model = adl::compose(archi);
        const noninterference::Result oracle = noninterference::check_dpm_transparency(
            model, test_case.high, test_case.low);
        ASSERT_EQ(oracle.noninterfering, test_case.oracle_passes) << test_case.spec;

        if (test_case.oracle_passes) {
            EXPECT_EQ(verdict.verdict, TransparencyVerdict::Transparent)
                << test_case.spec << ": " << verdict.reason;
        } else {
            // Soundness: the static engine must never claim transparency the
            // exact check refutes.
            EXPECT_NE(verdict.verdict, TransparencyVerdict::Transparent)
                << test_case.spec << ": " << verdict.reason;
        }
        if (verdict.verdict == TransparencyVerdict::Transparent) {
            EXPECT_LT(verdict.slice_instances.size(), archi.instances.size())
                << test_case.spec << ": slice is the whole architecture";
            EXPECT_LT(verdict.slice_states, model.graph.num_states())
                << test_case.spec << ": slice product larger than the full LTS";
        }
        EXPECT_FALSE(verdict.reason.empty()) << test_case.spec;
    }
}

/// `name = choice { <a, _> . next, ... }` with every action passive.
adl::BehaviorDef passive_behavior(std::string name,
                                  const std::vector<std::pair<std::string, std::string>>& moves) {
    adl::BehaviorDef behavior{std::move(name), {}, {}};
    for (const auto& [action, next] : moves) {
        behavior.alternatives.push_back(adl::Alternative{
            nullptr, {adl::Action{action, lts::RatePassive{}}}, adl::BehaviorCall{next, {}}});
    }
    return behavior;
}

adl::ElemType elem_type(std::string name, std::vector<adl::BehaviorDef> behaviors,
                        std::vector<std::string> inputs, std::vector<std::string> outputs) {
    adl::ElemType type;
    type.name = std::move(name);
    type.behaviors = std::move(behaviors);
    type.input_interactions = std::move(inputs);
    type.output_interactions = std::move(outputs);
    return type;
}

/// DPM shuts the server S down for good; S answers the client C only while
/// up.  The DPM's influence leaves the seed slice {S, DPM} only through the
/// boundary attachment S.respond#C.receive to the low instance.
adl::ArchiType boundary_leak_archi() {
    adl::ArchiType archi;
    archi.name = "BoundaryLeak";
    archi.elem_types = {
        elem_type("Server_Type",
                  {passive_behavior("Up", {{"respond", "Up"}, {"receive_shutdown", "Down"}}),
                   passive_behavior("Down", {{"sleep", "Down"}})},
                  {"receive_shutdown"}, {"respond"}),
        elem_type("Dpm_Type", {passive_behavior("Idle", {{"send_shutdown", "Idle"}})}, {},
                  {"send_shutdown"}),
        elem_type("Client_Type", {passive_behavior("Wait", {{"receive", "Wait"}})},
                  {"receive"}, {}),
    };
    archi.instances = {adl::Instance{"S", "Server_Type", {}},
                       adl::Instance{"DPM", "Dpm_Type", {}},
                       adl::Instance{"C", "Client_Type", {}}};
    archi.attachments = {adl::Attachment{"DPM", "send_shutdown", "S", "receive_shutdown"},
                         adl::Attachment{"S", "respond", "C", "receive"}};
    return archi;
}

/// The slice's boundary ports must stay free: blocking S.respond would hide
/// the shutdown's effect from the interface and prove a leaky system
/// transparent.
TEST(Transparency, InfluenceThroughABoundaryAttachmentIsNotProved) {
    const adl::ArchiType archi = boundary_leak_archi();
    const std::vector<std::string> high = {"DPM.send_shutdown#S.receive_shutdown"};
    const TransparencyResult verdict =
        analyze_transparency(archi, TransparencyOptions{high, "C"});
    EXPECT_NE(verdict.verdict, TransparencyVerdict::Transparent) << verdict.reason;
    EXPECT_EQ(verdict.slice_instances, (std::vector<std::string>{"S", "DPM"}));

    const noninterference::Result oracle =
        noninterference::check_dpm_transparency(adl::compose(archi), high, "C");
    EXPECT_FALSE(oracle.noninterfering);
}

TEST(Transparency, LeaksCarriesTheInteractionChainToTheObserver) {
    const fs::path spec = fs::path(DPMA_SPECS_DIR) / "rpc_untimed.aem";
    const adl::ArchiType archi = aemilia::parse_archi_type_unchecked(read_file(spec));
    TransparencyOptions options;
    options.high_labels = {"DPM.send_shutdown#S.receive_shutdown"};
    options.low_instance = "C";
    const TransparencyResult verdict = analyze_transparency(archi, options);
    ASSERT_EQ(verdict.verdict, TransparencyVerdict::Leaks) << verdict.reason;
    ASSERT_FALSE(verdict.leak_chain.empty());
    // The chain must end at an attachment touching the observer.
    EXPECT_NE(verdict.leak_chain.back().find("C."), std::string::npos);
}

TEST(Transparency, RejectsUnknownInstancesAndMalformedLabels) {
    const fs::path spec = fs::path(DPMA_SPECS_DIR) / "rpc_untimed.aem";
    const adl::ArchiType archi = aemilia::parse_archi_type_unchecked(read_file(spec));
    TransparencyOptions options;
    options.high_labels = {"DPM.send_shutdown#S.receive_shutdown"};
    options.low_instance = "NoSuchInstance";
    EXPECT_THROW((void)analyze_transparency(archi, options), Error);
    options.low_instance = "C";
    options.high_labels = {"not-a-label"};
    EXPECT_THROW((void)analyze_transparency(archi, options), Error);
}

// --- interval lattice unit checks --------------------------------------------

TEST(IntervalLattice, JoinMeetAndEmptiness) {
    const Interval a{0, 4};
    const Interval b{2, 8};
    EXPECT_EQ(interval_join(a, b), (Interval{0, 8}));
    EXPECT_EQ(interval_meet(a, b), (Interval{2, 4}));
    EXPECT_TRUE(interval_meet(Interval{0, 1}, Interval{3, 4}).empty());
    EXPECT_TRUE(Interval{}.empty());
    EXPECT_FALSE(Interval::top().bounded());
    EXPECT_TRUE(Interval::constant(7).bounded());
}

// --- observability ------------------------------------------------------------

TEST(FlowCounters, FixpointIterationsAreCounted) {
    const fs::path spec = fs::path(DPMA_SPECS_DIR) / "streaming_markov.aem";
    obs::Counter& iters = obs::counter("analysis.flow.fixpoint_iters");
    const std::uint64_t before = iters.value();
    const AnalyzeResult result = analyze_text(read_file(spec), spec.string());
    EXPECT_TRUE(result.flow_ran);
    EXPECT_GT(iters.value(), before);
}

TEST(FlowTrace, LintFlowAndTransparencyAreSpanned) {
    const fs::path spec = fs::path(DPMA_SPECS_DIR) / "rpc_revised_markov.aem";
    AnalyzeOptions options;
    options.high_labels = {"DPM.send_shutdown#S.receive_shutdown"};
    options.low_instance = "C";
    obs::clear_trace();
    obs::set_tracing(true);
    const AnalyzeResult result = analyze_text(read_file(spec), spec.string(), options);
    obs::set_tracing(false);
    ASSERT_TRUE(result.transparency.has_value());
#if !defined(DPMA_OBS_DISABLED)
    const obs::Json trace = obs::json_parse(obs::trace_json());
    const obs::Json* events = trace.find("traceEvents");
    ASSERT_NE(events, nullptr);
    const auto event = [events](std::string_view name) -> const obs::Json* {
        for (const obs::Json& e : events->array) {
            if (e.string_at("name") == name) return &e;
        }
        return nullptr;
    };
    EXPECT_NE(event("analysis.lint"), nullptr);
    EXPECT_NE(event("analysis.flow"), nullptr);
    const obs::Json* transparency = event("analysis.transparency");
    ASSERT_NE(transparency, nullptr);
    const obs::Json* args = transparency->find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->number_at("slice_states"),
              static_cast<double>(result.transparency->slice_states));
    // The slice's compose runs inside the transparency span.
    const obs::Json* compose = event("adl.compose");
    ASSERT_NE(compose, nullptr);
    EXPECT_GE(compose->number_at("ts"), transparency->number_at("ts"));
    EXPECT_LE(compose->number_at("ts") + compose->number_at("dur"),
              transparency->number_at("ts") + transparency->number_at("dur"));
#endif
    obs::clear_trace();
}

TEST(FlowCounters, ProvedTransparencyIsCounted) {
    const fs::path spec = fs::path(DPMA_SPECS_DIR) / "rpc_revised_markov.aem";
    const adl::ArchiType archi = aemilia::parse_archi_type_unchecked(read_file(spec));
    obs::Counter& proved = obs::counter("analysis.transparency.proved");
    const std::uint64_t before = proved.value();
    TransparencyOptions options;
    options.high_labels = {"DPM.send_shutdown#S.receive_shutdown"};
    options.low_instance = "C";
    const TransparencyResult verdict = analyze_transparency(archi, options);
    ASSERT_EQ(verdict.verdict, TransparencyVerdict::Transparent);
    EXPECT_EQ(proved.value(), before + 1);
}

// --- renderers ----------------------------------------------------------------

TEST(FlowRender, SarifIsStrictJsonAndCarriesRulesAndResults) {
    for (const fs::path& path : fixture_files()) {
        const AnalyzeResult result = analyze_text(read_file(path), path.string());
        const std::string sarif = render_sarif(result.all(), "dpma-analyze");
        std::string error;
        EXPECT_TRUE(obs::json_valid(sarif, &error)) << path << ": " << error;
        EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos) << path;
        EXPECT_NE(sarif.find("dpma-analyze"), std::string::npos) << path;
        for (const Diagnostic& d : result.all()) {
            EXPECT_NE(sarif.find(code_name(d.code)), std::string::npos)
                << path << " misses rule " << code_name(d.code);
        }
    }
}

}  // namespace
}  // namespace dpma::analysis::flow
