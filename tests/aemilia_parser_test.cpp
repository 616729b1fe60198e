#include <gtest/gtest.h>

#include "adl/compose.hpp"
#include "aemilia/lexer.hpp"
#include "aemilia/parser.hpp"
#include "bisim/equivalence.hpp"
#include "core/error.hpp"
#include "models/specs.hpp"

namespace dpma::aemilia {
namespace {

/// The simplified rpc specification of Sect. 2.3, verbatim from the paper
/// (modulo whitespace).
constexpr const char* kRpcUntimed = R"(
ARCHI_TYPE RPC_DPM_Untimed(void)

ARCHI_ELEM_TYPES

ELEM_TYPE Server_Type(void)
  BEHAVIOR
    Idle_Server(void; void) = choice {
      <receive_rpc_packet, _> . Busy_Server(),
      <receive_shutdown, _> . Sleeping_Server()
    };
    Busy_Server(void; void) = choice {
      <prepare_result_packet, _> . Responding_Server(),
      <receive_shutdown, _> . Sleeping_Server()
    };
    Responding_Server(void; void) = choice {
      <send_result_packet, _> . Idle_Server(),
      <receive_shutdown, _> . Sleeping_Server()
    };
    Sleeping_Server(void; void) =
      <receive_rpc_packet, _> . Awaking_Server();
    Awaking_Server(void; void) =
      <awake, _> . Busy_Server()
  INPUT_INTERACTIONS UNI receive_rpc_packet; receive_shutdown
  OUTPUT_INTERACTIONS UNI send_result_packet

ELEM_TYPE Radio_Channel_Type(void)
  BEHAVIOR
    Radio_Channel(void; void) =
      <get_packet, _> . <propagate_packet, _> . <deliver_packet, _> . Radio_Channel()
  INPUT_INTERACTIONS UNI get_packet
  OUTPUT_INTERACTIONS UNI deliver_packet

ELEM_TYPE Sync_Client_Type(void)
  BEHAVIOR
    Sync_Client(void; void) =
      <send_rpc_packet, _> . <receive_result_packet, _> .
      <process_result_packet, _> . Sync_Client()
  INPUT_INTERACTIONS UNI receive_result_packet
  OUTPUT_INTERACTIONS UNI send_rpc_packet

ELEM_TYPE DPM_Type(void)
  BEHAVIOR
    DPM_Beh(void; void) = <send_shutdown, _> . DPM_Beh()
  INPUT_INTERACTIONS void
  OUTPUT_INTERACTIONS UNI send_shutdown

ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    S : Server_Type();
    RCS : Radio_Channel_Type();
    RSC : Radio_Channel_Type();
    C : Sync_Client_Type();
    DPM : DPM_Type()
  ARCHI_ATTACHMENTS
    FROM C.send_rpc_packet TO RCS.get_packet;
    FROM RCS.deliver_packet TO S.receive_rpc_packet;
    FROM S.send_result_packet TO RSC.get_packet;
    FROM RSC.deliver_packet TO C.receive_result_packet;
    FROM DPM.send_shutdown TO S.receive_shutdown
END
)";

TEST(Lexer, TokenizesPunctuationAndIdentifiers) {
    const auto tokens = tokenize("<a, _> . B_1()");
    ASSERT_EQ(tokens.size(), 10u);  // < a , _ > . B_1 ( ) EOF
    EXPECT_EQ(tokens[0].kind, TokenKind::Less);
    EXPECT_EQ(tokens[1].kind, TokenKind::Identifier);
    EXPECT_EQ(tokens[3].kind, TokenKind::Underscore);
    EXPECT_EQ(tokens[6].text, "B_1");
    EXPECT_EQ(tokens.back().kind, TokenKind::EndOfInput);
}

TEST(Lexer, TracksLineAndColumn) {
    const auto tokens = tokenize("a\n  b");
    EXPECT_EQ(tokens[0].line, 1);
    EXPECT_EQ(tokens[1].line, 2);
    EXPECT_EQ(tokens[1].column, 3);
}

TEST(Lexer, LexesNumbersWithDecimals) {
    const auto tokens = tokenize("exp(0.25)");
    EXPECT_EQ(tokens[2].kind, TokenKind::Number);
    EXPECT_EQ(tokens[2].text, "0.25");
}

TEST(Lexer, SkipsLineComments) {
    const auto tokens = tokenize("a // comment , with . stuff\nb");
    ASSERT_EQ(tokens.size(), 3u);
    EXPECT_EQ(tokens[0].text, "a");
    EXPECT_EQ(tokens[1].text, "b");
}

TEST(Lexer, TwoCharOperators) {
    const auto tokens = tokenize("-> == != <= >= && ||");
    EXPECT_EQ(tokens[0].kind, TokenKind::Arrow);
    EXPECT_EQ(tokens[1].kind, TokenKind::EqEq);
    EXPECT_EQ(tokens[2].kind, TokenKind::NotEq);
    EXPECT_EQ(tokens[3].kind, TokenKind::LessEq);
    EXPECT_EQ(tokens[4].kind, TokenKind::GreaterEq);
    EXPECT_EQ(tokens[5].kind, TokenKind::AndAnd);
    EXPECT_EQ(tokens[6].kind, TokenKind::OrOr);
}

TEST(Lexer, RejectsUnknownCharacters) {
    EXPECT_THROW((void)tokenize("a @ b"), ParseError);
}

TEST(Parser, ParsesThePaperRpcSpecification) {
    const adl::ArchiType archi = parse_archi_type(kRpcUntimed);
    EXPECT_EQ(archi.name, "RPC_DPM_Untimed");
    EXPECT_EQ(archi.elem_types.size(), 4u);
    EXPECT_EQ(archi.instances.size(), 5u);
    EXPECT_EQ(archi.attachments.size(), 5u);
    const adl::ElemType* server = archi.find_type("Server_Type");
    ASSERT_NE(server, nullptr);
    EXPECT_EQ(server->behaviors.size(), 5u);
    EXPECT_EQ(server->input_interactions.size(), 2u);
    EXPECT_EQ(server->output_interactions.size(), 1u);
}

TEST(Parser, ParsedSpecIsBisimilarToTheShippedSpec) {
    // The paper's text above and the shipped specs/rpc_untimed.aem must
    // produce strongly bisimilar global systems (they are the same model).
    const adl::ComposedModel parsed =
        adl::compose(parse_archi_type(kRpcUntimed));
    const adl::ComposedModel built = adl::compose(models::archi("rpc_untimed.aem"));
    const auto eq = bisim::strongly_bisimilar(parsed.graph, built.graph);
    EXPECT_TRUE(eq.equivalent);
}

TEST(Parser, ParsesRatesOfEveryKind) {
    const adl::ArchiType archi = parse_archi_type(R"(
ARCHI_TYPE Rates(void)
ARCHI_ELEM_TYPES
ELEM_TYPE T(void)
  BEHAVIOR
    A(void; void) = choice {
      <a1, exp(2.5)> . A(),
      <a2, inf> . A(),
      <a3, inf(2, 0.5)> . A(),
      <a4, det(1.5)> . A(),
      <a5, norm(4, 0.1)> . A(),
      <a6, unif(1, 2)> . A(),
      <a7, erlang(3, 2)> . A(),
      <a8, _> . A()
    }
  INPUT_INTERACTIONS UNI a8
  OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    X : T()
END
)");
    const auto& alts = archi.elem_types[0].behaviors[0].alternatives;
    ASSERT_EQ(alts.size(), 8u);
    EXPECT_TRUE(lts::is_exponential(alts[0].actions[0].rate));
    EXPECT_TRUE(lts::is_immediate(alts[1].actions[0].rate));
    const auto* imm = std::get_if<lts::RateImmediate>(&alts[2].actions[0].rate);
    ASSERT_NE(imm, nullptr);
    EXPECT_EQ(imm->priority, 2);
    EXPECT_DOUBLE_EQ(imm->weight, 0.5);
    EXPECT_TRUE(lts::is_general(alts[3].actions[0].rate));
    EXPECT_TRUE(lts::is_general(alts[4].actions[0].rate));
    EXPECT_TRUE(lts::is_general(alts[5].actions[0].rate));
    EXPECT_TRUE(lts::is_general(alts[6].actions[0].rate));
    EXPECT_TRUE(lts::is_passive(alts[7].actions[0].rate));
}

TEST(Parser, ParsesParameterisedBehavioursWithGuards) {
    const adl::ArchiType archi = parse_archi_type(R"(
ARCHI_TYPE Buffered(void)
ARCHI_ELEM_TYPES
ELEM_TYPE Buffer_Type(void)
  BEHAVIOR
    Buffer(integer n, integer cap; void) = choice {
      cond(n < cap) -> <put, _> . Buffer(n + 1, cap),
      cond(n > 0) -> <get, _> . Buffer(n - 1, cap)
    }
  INPUT_INTERACTIONS UNI put; get
  OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    B : Buffer_Type(0, 4)
END
)");
    const adl::ComposedModel model = adl::compose(archi);
    // put/get are unattached inputs => blocked, but the local state space
    // still unfolds through the guard logic during construction.
    EXPECT_EQ(model.local_state_names(0).size(), 5u);  // occupancy 0..4
    EXPECT_EQ(archi.instances[0].args.size(), 2u);
}

TEST(Parser, ValidatesSemanticsAfterParsing) {
    // Unknown behaviour invoked: parser accepts the syntax, validate throws.
    EXPECT_THROW((void)parse_archi_type(R"(
ARCHI_TYPE Bad(void)
ARCHI_ELEM_TYPES
ELEM_TYPE T(void)
  BEHAVIOR
    A(void; void) = <a, _> . Ghost()
  INPUT_INTERACTIONS void
  OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    X : T()
END
)"),
                 ModelError);
}

TEST(Parser, SyntaxErrorsCarryPositions) {
    try {
        (void)parse_archi_type("ARCHI_TYPE ! oops");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 1);
        EXPECT_GT(e.column(), 1);
    }
}

TEST(Parser, RejectsUnknownRateKind) {
    EXPECT_THROW((void)parse_archi_type(R"(
ARCHI_TYPE Bad(void)
ARCHI_ELEM_TYPES
ELEM_TYPE T(void)
  BEHAVIOR
    A(void; void) = <a, gamma(1, 2)> . A()
  INPUT_INTERACTIONS void
  OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    X : T()
END
)"),
                 ParseError);
}

TEST(Parser, RejectsUnknownParameterName) {
    EXPECT_THROW((void)parse_archi_type(R"(
ARCHI_TYPE Bad(void)
ARCHI_ELEM_TYPES
ELEM_TYPE T(void)
  BEHAVIOR
    A(integer n; void) = <a, _> . A(m + 1)
  INPUT_INTERACTIONS void
  OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    X : T(0)
END
)"),
                 ParseError);
}

TEST(Measures, ParsesThePaperMeasureDefinitions) {
    const auto measures = parse_measures(R"(
MEASURE throughput IS
  ENABLED(C.process_result_packet) -> TRANS_REWARD(1);
MEASURE waiting_time IS
  ENABLED(C.monitor_waiting_client) -> STATE_REWARD(1);
MEASURE energy IS
  ENABLED(S.monitor_idle_server)    -> STATE_REWARD(2)
  ENABLED(S.monitor_busy_server)    -> STATE_REWARD(3)
  ENABLED(S.monitor_awaking_server) -> STATE_REWARD(2)
)");
    ASSERT_EQ(measures.size(), 3u);
    EXPECT_EQ(measures[0].name, "throughput");
    EXPECT_EQ(measures[0].clauses.size(), 1u);
    EXPECT_EQ(measures[0].clauses[0].target, adl::RewardClause::Target::Trans);
    EXPECT_EQ(measures[2].clauses.size(), 3u);
    EXPECT_DOUBLE_EQ(measures[2].clauses[1].reward, 3.0);
    const auto* pred =
        std::get_if<adl::EnabledPredicate>(&measures[2].clauses[0].predicate);
    ASSERT_NE(pred, nullptr);
    EXPECT_EQ(pred->instance, "S");
    EXPECT_EQ(pred->action, "monitor_idle_server");
}

TEST(Measures, ParsesInStatePredicates) {
    const auto measures = parse_measures(R"(
MEASURE energy IS
  IN_STATE(S, Idle_Server) -> STATE_REWARD(2)
  IN_STATE(S, Busy_Server) -> STATE_REWARD(3)
)");
    ASSERT_EQ(measures.size(), 1u);
    ASSERT_EQ(measures[0].clauses.size(), 2u);
    const auto* pred =
        std::get_if<adl::InStatePredicate>(&measures[0].clauses[0].predicate);
    ASSERT_NE(pred, nullptr);
    EXPECT_EQ(pred->state_prefix, "Idle_Server");
}

TEST(Measures, RejectsEmptyInput) {
    EXPECT_THROW((void)parse_measures("   // nothing here\n"), ParseError);
}

TEST(Measures, RejectsTransRewardOnInState) {
    // IN_STATE selects states, not transitions; the measure still parses
    // (target is syntactically valid) but evaluation rejects it -- covered
    // in the adl tests.  Here: missing arrow is a parse error.
    EXPECT_THROW((void)parse_measures("MEASURE m IS ENABLED(A.b) STATE_REWARD(1)"),
                 ParseError);
}

}  // namespace
}  // namespace dpma::aemilia
