#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "adl/compose.hpp"
#include "aemilia/parser.hpp"
#include "aemilia/printer.hpp"
#include "aemilia/lexer.hpp"
#include "bisim/equivalence.hpp"
#include "core/error.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "models/specs.hpp"

#ifndef DPMA_SPECS_DIR
#error "DPMA_SPECS_DIR must point at the shipped specs/ directory"
#endif

namespace dpma::aemilia {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/// Every shipped file with the given extension, sorted.
std::vector<fs::path> shipped(const char* extension) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(DPMA_SPECS_DIR)) {
        if (entry.path().extension() == extension) files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    EXPECT_FALSE(files.empty());
    return files;
}

/// parse(print(M)) must compose to a system strongly bisimilar to M's.
void expect_roundtrip_bisimilar(const adl::ArchiType& archi) {
    const std::string text = to_aemilia(archi);
    const adl::ArchiType reparsed = parse_archi_type(text);
    EXPECT_EQ(reparsed.name, archi.name);
    const adl::ComposedModel original = adl::compose(archi);
    const adl::ComposedModel round = adl::compose(reparsed);
    EXPECT_EQ(original.graph.num_states(), round.graph.num_states());
    EXPECT_TRUE(bisim::strongly_bisimilar(original.graph, round.graph).equivalent)
        << text;
}

TEST(Printer, EveryShippedSpecRoundTrips) {
    for (const fs::path& path : shipped(".aem")) {
        SCOPED_TRACE(path.string());
        expect_roundtrip_bisimilar(parse_archi_type(read_file(path)));
    }
}

TEST(Printer, PrintingIsAFixedPointAfterOneRoundTrip) {
    for (const fs::path& path : shipped(".aem")) {
        const std::string once = to_aemilia(parse_archi_type(read_file(path)));
        EXPECT_EQ(to_aemilia(parse_archi_type(once)), once) << path;
    }
}

TEST(Printer, RatesSurviveWithFullPrecision) {
    // Compare solved measures of original and reparsed rpc Markov models;
    // %.17g rate printing must make them bit-compatible (or very nearly).
    const adl::ArchiType archi = models::archi("rpc_revised_markov.aem");
    const adl::ArchiType reparsed = parse_archi_type(to_aemilia(archi));

    const auto solve = [](const adl::ArchiType& a) {
        const adl::ComposedModel model = adl::compose(a);
        const ctmc::MarkovModel markov = ctmc::build_markov(model);
        const auto pi = ctmc::steady_state(markov.chain);
        std::vector<double> out;
        for (const auto& m : models::measures("rpc_measures.msr")) {
            out.push_back(ctmc::evaluate_measure(markov, model, pi, m));
        }
        return out;
    };
    const auto a = solve(archi);
    const auto b = solve(reparsed);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(a[i], b[i], 1e-12 * std::abs(a[i]) + 1e-15);
    }
}

TEST(Printer, GuardsRoundTripThroughConcreteSyntax) {
    // The streaming access point exercises ==, <, > and && in guards.
    const std::string text = to_aemilia(models::archi("streaming_markov.aem"));
    EXPECT_NE(text.find("cond("), std::string::npos);
    EXPECT_NE(text.find("&&"), std::string::npos);
    EXPECT_NO_THROW((void)parse_archi_type(text));
}

TEST(Printer, EveryShippedMeasureSetRoundTrips) {
    for (const fs::path& path : shipped(".msr")) {
        const auto original = parse_measures(read_file(path));
        const auto reparsed = parse_measures(to_measure_language(original));
        ASSERT_EQ(reparsed.size(), original.size()) << path;
        for (std::size_t m = 0; m < original.size(); ++m) {
            EXPECT_EQ(reparsed[m].name, original[m].name);
            ASSERT_EQ(reparsed[m].clauses.size(), original[m].clauses.size());
            for (std::size_t c = 0; c < original[m].clauses.size(); ++c) {
                EXPECT_EQ(reparsed[m].clauses[c].target, original[m].clauses[c].target);
                EXPECT_EQ(reparsed[m].clauses[c].reward, original[m].clauses[c].reward);
            }
        }
    }
}

TEST(Printer, ScientificNotationNumbersAreLexable) {
    const auto tokens = tokenize("exp(1.0000000000000001e-05)");
    ASSERT_GE(tokens.size(), 3u);
    EXPECT_EQ(tokens[2].kind, TokenKind::Number);
    EXPECT_EQ(tokens[2].text, "1.0000000000000001e-05");
}

}  // namespace
}  // namespace dpma::aemilia
