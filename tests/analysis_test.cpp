#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diag.hpp"
#include "analysis/lint.hpp"
#include "obs/json.hpp"

// Both directories are provided by tests/CMakeLists.txt.
#ifndef DPMA_SPECS_DIR
#error "DPMA_SPECS_DIR must point at the shipped specs/ directory"
#endif
#ifndef DPMA_LINT_FIXTURE_DIR
#error "DPMA_LINT_FIXTURE_DIR must point at tests/fixtures/lint"
#endif
#ifndef DPMA_ANALYSIS_FIXTURE_DIR
#error "DPMA_ANALYSIS_FIXTURE_DIR must point at tests/fixtures/analysis"
#endif

namespace dpma::analysis {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// "code @ line:col" — the canonical key both for `// expect:` annotations
/// and for emitted diagnostics, so mismatches print side by side.
std::string key(const std::string& code, int line, int column) {
    return code + " @ " + std::to_string(line) + ":" + std::to_string(column);
}

/// Extracts the `// expect: <code> @ <line>:<col>` annotations of a fixture.
std::vector<std::string> expectations(const std::string& text) {
    std::vector<std::string> out;
    std::istringstream lines(text);
    std::string line;
    const std::string marker = "// expect: ";
    while (std::getline(lines, line)) {
        const std::size_t at = line.find(marker);
        if (at == std::string::npos) continue;
        std::string spec = line.substr(at + marker.size());
        while (!spec.empty() && (spec.back() == '\r' || spec.back() == ' ')) spec.pop_back();
        out.push_back(spec);
    }
    return out;
}

std::vector<std::string> diagnostic_keys(const LintResult& result) {
    std::vector<std::string> out;
    for (const Diagnostic& d : result.diagnostics) {
        out.push_back(key(code_name(d.code), d.span.loc.line, d.span.loc.column));
    }
    return out;
}

/// Lints one fixture file: .aem on its own, .msr against the clean host.
LintResult lint_fixture(const fs::path& path) {
    if (path.extension() == ".msr") {
        const fs::path host = fs::path(DPMA_LINT_FIXTURE_DIR) / "measure_host.aem";
        return lint_text(read_file(host), host.string(), read_file(path), path.string());
    }
    return lint_text(read_file(path), path.string());
}

std::vector<fs::path> fixture_files() {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(DPMA_LINT_FIXTURE_DIR)) {
        const fs::path& path = entry.path();
        if (path.filename() == "measure_host.aem") continue;
        if (path.extension() == ".aem" || path.extension() == ".msr") files.push_back(path);
    }
    std::sort(files.begin(), files.end());
    EXPECT_FALSE(files.empty());
    return files;
}

// --- golden lint-clean: every shipped specification -------------------------

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

TEST(LintGolden, ShippedSpecificationsAreLintClean) {
    for (const SpecPair& pair : kShippedSpecs) {
        const fs::path spec = fs::path(DPMA_SPECS_DIR) / pair.spec;
        LintResult result;
        if (pair.measures == nullptr) {
            result = lint_text(read_file(spec), spec.string());
        } else {
            const fs::path measures = fs::path(DPMA_SPECS_DIR) / pair.measures;
            result = lint_text(read_file(spec), spec.string(), read_file(measures),
                               measures.string());
        }
        EXPECT_TRUE(result.clean())
            << pair.spec << " is not lint-clean:\n" << render_text(result.diagnostics);
    }
}

TEST(LintGolden, MeasureHostFixtureIsLintClean) {
    const fs::path host = fs::path(DPMA_LINT_FIXTURE_DIR) / "measure_host.aem";
    const LintResult result = lint_text(read_file(host), host.string());
    EXPECT_TRUE(result.clean()) << render_text(result.diagnostics);
}

// --- negative fixtures -------------------------------------------------------

TEST(LintFixtures, EachFixtureProducesExactlyItsExpectedDiagnostics) {
    for (const fs::path& path : fixture_files()) {
        std::vector<std::string> expected = expectations(read_file(path));
        EXPECT_FALSE(expected.empty()) << path << " has no // expect: annotations";
        std::vector<std::string> actual = diagnostic_keys(lint_fixture(path));
        std::sort(expected.begin(), expected.end());
        std::sort(actual.begin(), actual.end());
        EXPECT_EQ(actual, expected) << "diagnostics of " << path;
    }
}

TEST(LintFixtures, EveryDiagnosticCodeHasANegativeFixture) {
    std::set<std::string> covered;
    for (const fs::path& path : fixture_files()) {
        for (const std::string& spec : expectations(read_file(path))) {
            covered.insert(spec.substr(0, spec.find(' ')));
        }
    }
    // The flow-engine codes live in their own fixture directory (exercised
    // end-to-end by flow_test); here they only feed the coverage census.
    for (const auto& entry : fs::directory_iterator(DPMA_ANALYSIS_FIXTURE_DIR)) {
        if (entry.path().extension() != ".aem") continue;
        for (const std::string& spec : expectations(read_file(entry.path()))) {
            covered.insert(spec.substr(0, spec.find(' ')));
        }
    }
    for (const Code code : all_codes()) {
        EXPECT_TRUE(covered.count(code_name(code)))
            << "no fixture exercises [" << code_name(code) << "]";
    }
    EXPECT_EQ(covered.size(), code_count());
}

TEST(LintFixtures, DiagnosticsCarrySpansSeveritiesAndFiles) {
    for (const fs::path& path : fixture_files()) {
        const LintResult result = lint_fixture(path);
        for (const Diagnostic& d : result.diagnostics) {
            EXPECT_EQ(d.severity, code_severity(d.code));
            EXPECT_GE(d.span.loc.line, 1) << code_name(d.code) << " in " << path;
            EXPECT_GE(d.span.loc.column, 1) << code_name(d.code) << " in " << path;
            EXPECT_FALSE(d.span.file.empty());
            EXPECT_FALSE(d.message.empty());
            for (const Note& note : d.notes) {
                EXPECT_FALSE(note.message.empty());
                EXPECT_GE(note.span.loc.line, 1);
            }
        }
    }
}

// --- rendering ---------------------------------------------------------------

TEST(LintRender, JsonIsStrictlyValidForEveryFixture) {
    for (const fs::path& path : fixture_files()) {
        const LintResult result = lint_fixture(path);
        const std::string json = render_json(result.diagnostics);
        std::string error;
        EXPECT_TRUE(obs::json_valid(json, &error)) << path << ": " << error << "\n" << json;
        for (const Diagnostic& d : result.diagnostics) {
            EXPECT_NE(json.find(code_name(d.code)), std::string::npos);
        }
        EXPECT_NE(json.find("\"errors\""), std::string::npos);
        EXPECT_NE(json.find("\"warnings\""), std::string::npos);
    }
}

TEST(LintRender, TextRenderingIsClangStyle) {
    LintResult result = lint_text("not an aemilia spec", "bad.aem");
    ASSERT_EQ(result.diagnostics.size(), 1u);
    EXPECT_EQ(result.diagnostics[0].code, Code::ParseError);
    const std::string text = render_text(result.diagnostics);
    EXPECT_NE(text.find("bad.aem:1:1: error: "), std::string::npos) << text;
    EXPECT_NE(text.find("[parse-error]"), std::string::npos);
    EXPECT_NE(text.find("1 error(s), 0 warning(s)"), std::string::npos);
}

TEST(LintRender, EmptyDiagnosticsRenderAsEmptyTextAndValidJson) {
    EXPECT_EQ(render_text({}), "");
    std::string error;
    EXPECT_TRUE(obs::json_valid(render_json({}), &error)) << error;
}

// --- library entry points ----------------------------------------------------

TEST(LintApi, ResultCountsAndPredicates) {
    const fs::path fixture = fs::path(DPMA_LINT_FIXTURE_DIR) / "unattached_interaction.aem";
    const LintResult warnings_only = lint_fixture(fixture);
    EXPECT_TRUE(warnings_only.ok());
    EXPECT_FALSE(warnings_only.clean());
    EXPECT_EQ(warnings_only.error_count(), 0u);
    EXPECT_EQ(warnings_only.warning_count(), 2u);

    const fs::path bad = fs::path(DPMA_LINT_FIXTURE_DIR) / "sync_two_active.aem";
    const LintResult errors = lint_fixture(bad);
    EXPECT_FALSE(errors.ok());
    EXPECT_EQ(errors.error_count(), 1u);
}

}  // namespace
}  // namespace dpma::analysis
