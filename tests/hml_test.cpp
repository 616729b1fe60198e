#include <gtest/gtest.h>

#include "bisim/hml.hpp"
#include "bisim/hml_check.hpp"
#include "lts/lts.hpp"

namespace dpma::bisim {
namespace {

using lts::Lts;
using lts::StateId;

TEST(HmlBuilders, TrueIsShared) {
    EXPECT_EQ(hml_true().get(), hml_true().get());
    EXPECT_EQ(hml_true()->kind, Formula::Kind::True);
}

TEST(HmlBuilders, DoubleNegationCancels) {
    const FormulaPtr phi = hml_diamond("a", false, hml_true());
    EXPECT_EQ(hml_not(hml_not(phi)).get(), phi.get());
}

TEST(HmlBuilders, EmptyConjunctionIsTrue) {
    EXPECT_EQ(hml_and({})->kind, Formula::Kind::True);
}

TEST(HmlBuilders, SingletonConjunctionCollapses) {
    const FormulaPtr phi = hml_diamond("a", false, hml_true());
    EXPECT_EQ(hml_and({phi}).get(), phi.get());
}

TEST(HmlBuilders, TrueConjunctsAreDropped) {
    const FormulaPtr phi = hml_diamond("a", false, hml_true());
    const FormulaPtr conj = hml_and({hml_true(), phi, hml_true()});
    EXPECT_EQ(conj.get(), phi.get());
}

TEST(HmlBuilders, DuplicateConjunctsAreDeduplicated) {
    const FormulaPtr phi1 = hml_diamond("a", true, hml_true());
    const FormulaPtr phi2 = hml_diamond("a", true, hml_true());
    const FormulaPtr psi = hml_diamond("b", true, hml_true());
    const FormulaPtr conj = hml_and({phi1, phi2, psi});
    ASSERT_EQ(conj->kind, Formula::Kind::And);
    EXPECT_EQ(conj->children.size(), 2u);
}

TEST(HmlPrinter, TwoTowersSyntaxForWeakDiamond) {
    const FormulaPtr phi =
        hml_diamond("C.send_rpc_packet#RCS.get_packet", true,
                    hml_not(hml_diamond("RSC.deliver_packet#C.receive_result_packet",
                                        true, hml_true())));
    const std::string text = to_two_towers(phi);
    EXPECT_NE(text.find("EXISTS_WEAK_TRANS("), std::string::npos);
    EXPECT_NE(text.find("LABEL(C.send_rpc_packet#RCS.get_packet);"), std::string::npos);
    EXPECT_NE(text.find("REACHED_STATE_SAT("), std::string::npos);
    EXPECT_NE(text.find("NOT("), std::string::npos);
    EXPECT_NE(text.find("TRUE"), std::string::npos);
}

TEST(HmlPrinter, StrongDiamondUsesExistsTrans) {
    const std::string text = to_two_towers(hml_diamond("a", false, hml_true()));
    EXPECT_NE(text.find("EXISTS_TRANS("), std::string::npos);
    EXPECT_EQ(text.find("EXISTS_WEAK_TRANS("), std::string::npos);
}

TEST(HmlPrinter, TauLabelPrintsAsTAU) {
    const std::string text = to_two_towers(hml_diamond("tau", true, hml_true()));
    EXPECT_NE(text.find("TAU;"), std::string::npos);
}

TEST(HmlPrinter, CompactFormIsSingleLine) {
    const FormulaPtr phi = hml_and({hml_diamond("a", true, hml_true()),
                                    hml_not(hml_diamond("b", false, hml_true()))});
    const std::string text = to_compact(phi);
    EXPECT_EQ(text.find('\n'), std::string::npos);
    EXPECT_EQ(text, "(<<a>>tt & ~(<b>tt))");
}

TEST(HmlSize, CountsNodes) {
    EXPECT_EQ(formula_size(hml_true()), 1u);
    EXPECT_EQ(formula_size(hml_not(hml_diamond("a", false, hml_true()))), 3u);
    EXPECT_EQ(formula_size(nullptr), 0u);
}

class HmlCheckFixture : public ::testing::Test {
protected:
    // s0 -a-> s1 -tau-> s2 -b-> s3,  s0 -tau-> s3
    void SetUp() override {
        lts::LtsBuilder builder;
        s0 = builder.add_state();
        s1 = builder.add_state();
        s2 = builder.add_state();
        s3 = builder.add_state();
        builder.add_transition(s0, builder.action("a"), s1);
        builder.add_transition(s1, builder.actions()->tau(), s2);
        builder.add_transition(s2, builder.action("b"), s3);
        builder.add_transition(s0, builder.actions()->tau(), s3);
        builder.set_initial(s0);
        m = std::move(builder).build();
    }
    Lts m;
    StateId s0{}, s1{}, s2{}, s3{};
};

TEST_F(HmlCheckFixture, StrongDiamondSeesOneStep) {
    EXPECT_TRUE(satisfies(m, s0, hml_diamond("a", false, hml_true())));
    EXPECT_FALSE(satisfies(m, s0, hml_diamond("b", false, hml_true())));
}

TEST_F(HmlCheckFixture, StrongDiamondDoesNotSkipTaus) {
    // s1 -tau-> s2 -b-> : strongly, s1 cannot do b.
    EXPECT_FALSE(satisfies(m, s1, hml_diamond("b", false, hml_true())));
}

TEST_F(HmlCheckFixture, WeakDiamondAbsorbsTaus) {
    EXPECT_TRUE(satisfies(m, s1, hml_diamond("b", true, hml_true())));
    // And after a: weak <a><b>tt at s0.
    EXPECT_TRUE(satisfies(
        m, s0, hml_diamond("a", true, hml_diamond("b", true, hml_true()))));
}

TEST_F(HmlCheckFixture, WeakTauDiamondIsReflexive) {
    // <<tau>>phi holds if phi holds here or after taus.
    EXPECT_TRUE(satisfies(m, s0, hml_diamond("tau", true, hml_true())));
    EXPECT_TRUE(satisfies(m, s3, hml_diamond("tau", true, hml_true())));
}

TEST_F(HmlCheckFixture, NegationAndConjunction) {
    const FormulaPtr can_a = hml_diamond("a", true, hml_true());
    const FormulaPtr can_b = hml_diamond("b", true, hml_true());
    EXPECT_TRUE(satisfies(m, s0, hml_and({can_a, hml_not(can_b)})));
    EXPECT_FALSE(satisfies(m, s0, hml_and({can_a, can_b})));
}

TEST_F(HmlCheckFixture, UnknownLabelIsUnsatisfiable) {
    EXPECT_FALSE(satisfies(m, s0, hml_diamond("never_used", true, hml_true())));
    EXPECT_TRUE(satisfies(m, s0, hml_not(hml_diamond("never_used", true, hml_true()))));
}

}  // namespace
}  // namespace dpma::bisim
