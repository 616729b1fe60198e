#include <gtest/gtest.h>

#include <random>
#include <string>

#include "aemilia/parser.hpp"
#include "core/error.hpp"
#include "models/specs.hpp"

namespace dpma::aemilia {
namespace {

/// Every parse failure must carry a usable source span: ParseError always
/// has line and column, parser-raised ModelError (via adl::validate on the
/// parsed AST) always has at least a line.  Called from every catch block
/// below so the whole robustness corpus doubles as a span-coverage test.
void expect_span(const ParseError& error) {
    EXPECT_GE(error.line(), 1) << error.what();
    EXPECT_GE(error.column(), 1) << error.what();
}

void expect_span(const ModelError& error) {
    EXPECT_GE(error.line(), 1) << error.what();
    EXPECT_GE(error.column(), 1) << error.what();
}

/// Mutation robustness: corrupting a valid specification at a random
/// position must either still parse (benign mutation, e.g. inside a
/// comment) or raise dpma::Error — never crash, hang or accept garbage
/// silently with an exception type outside the library's hierarchy.
class ParserMutation : public ::testing::TestWithParam<int> {};

TEST_P(ParserMutation, CorruptedSpecificationsFailGracefully) {
    const std::string pristine{models::spec("rpc_untimed.aem")};
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 99);
    std::uniform_int_distribution<std::size_t> position(0, pristine.size() - 1);
    const char garbage[] = {'@', '$', '(', ')', '<', '.', ';', 'x', '0', '}'};
    std::uniform_int_distribution<std::size_t> pick(0, sizeof garbage - 1);

    for (int trial = 0; trial < 50; ++trial) {
        std::string mutated = pristine;
        const std::size_t pos = position(rng);
        switch (trial % 3) {
            case 0: mutated[pos] = garbage[pick(rng)]; break;              // replace
            case 1: mutated.erase(pos, 1); break;                          // delete
            case 2: mutated.insert(pos, 1, garbage[pick(rng)]); break;     // insert
        }
        try {
            (void)parse_archi_type(mutated);
        } catch (const ParseError& e) {
            expect_span(e);  // expected for most mutations
        } catch (const ModelError& e) {
            expect_span(e);
        } catch (const Error& e) {
            ADD_FAILURE() << "parse failure without a source span: " << e.what();
        }
    }
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserMutation, ::testing::Range(0, 6));

TEST(ParserRobustness, TruncationsOfTheSpecFailGracefully) {
    const std::string pristine{models::spec("rpc_untimed.aem")};
    for (std::size_t cut = 0; cut < pristine.size(); cut += 97) {
        try {
            (void)parse_archi_type(pristine.substr(0, cut));
        } catch (const ParseError& e) {
            expect_span(e);
        } catch (const ModelError& e) {
            expect_span(e);
        } catch (const Error& e) {
            ADD_FAILURE() << "parse failure without a source span: " << e.what();
        }
    }
    SUCCEED();
}

TEST(ParserRobustness, EmptyAndWhitespaceInputs) {
    EXPECT_THROW((void)parse_archi_type(""), Error);
    EXPECT_THROW((void)parse_archi_type("   \n\t // just a comment\n"), Error);
    EXPECT_THROW((void)parse_measures(""), Error);
}

TEST(ParserRobustness, SyntaxErrorsReportLineAndColumn) {
    try {
        (void)parse_archi_type("ARCHI_TYPE T(void)\nARCHI_ELEM_TYPES\n  garbage here\n");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 3);
        EXPECT_EQ(e.column(), 3);
    }
    try {
        (void)parse_measures("MEASURE m IS\n  ENABLED(X) -> STATE_REWARD(1)\n");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        expect_span(e);
    }
}

TEST(ParserRobustness, SemanticErrorsReportTheOffendingLocation) {
    // `Missing()` starts at line 5, column 30; adl::validate anchors the
    // unknown-behaviour error on the invocation site.
    const std::string spec =
        "ARCHI_TYPE T(void)\n"
        "ARCHI_ELEM_TYPES\n"
        "ELEM_TYPE A(void)\n"
        "  BEHAVIOR\n"
        "    B(void; void) = <a, _> . Missing()\n"
        "  INPUT_INTERACTIONS UNI a\n"
        "  OUTPUT_INTERACTIONS void\n"
        "ARCHI_TOPOLOGY\n"
        "  ARCHI_ELEM_INSTANCES\n"
        "    X : A()\n"
        "END\n";
    try {
        (void)parse_archi_type(spec);
        FAIL() << "expected ModelError";
    } catch (const ModelError& e) {
        EXPECT_EQ(e.line(), 5);
        EXPECT_EQ(e.column(), 30);
    }
}

TEST(ParserRobustness, DeeplyNestedExpressionsDoNotOverflow) {
    // 200 nested parentheses in a behaviour argument.
    std::string nested = "n";
    for (int i = 0; i < 200; ++i) nested = "(" + nested + " + 1)";
    const std::string spec = R"(
ARCHI_TYPE Deep(void)
ARCHI_ELEM_TYPES
ELEM_TYPE T(void)
  BEHAVIOR
    A(integer n; void) = <a, _> . A()" + nested + R"()
  INPUT_INTERACTIONS UNI a
  OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    X : T(0)
END
)";
    // The model diverges (parameter grows without bound), but *parsing*
    // must succeed; composition rejects it via the state limit.
    adl::ArchiType archi;
    EXPECT_NO_THROW(archi = parse_archi_type(spec));
    adl::ComposeOptions options;
    options.max_states = 100;
    EXPECT_THROW((void)adl::compose(archi, options), ModelError);
}

TEST(ParserRobustness, LongIdentifiersAndManyBehaviours) {
    std::string spec = "ARCHI_TYPE Wide(void)\nARCHI_ELEM_TYPES\nELEM_TYPE T(void)\n  BEHAVIOR\n";
    const std::string long_name(200, 'b');
    for (int i = 0; i < 50; ++i) {
        spec += "    " + long_name + std::to_string(i) + "(void; void) = <a, _> . " +
                long_name + std::to_string((i + 1) % 50) + "();\n";
    }
    spec.erase(spec.rfind(';'), 1);
    spec += "  INPUT_INTERACTIONS UNI a\n  OUTPUT_INTERACTIONS void\n";
    spec += "ARCHI_TOPOLOGY\n  ARCHI_ELEM_INSTANCES\n    X : T()\nEND\n";
    const adl::ArchiType archi = parse_archi_type(spec);
    EXPECT_EQ(archi.elem_types[0].behaviors.size(), 50u);
}

}  // namespace
}  // namespace dpma::aemilia
