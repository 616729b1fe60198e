#include <gtest/gtest.h>

#include "bisim/equivalence.hpp"
#include "bisim/trace_equiv.hpp"
#include "core/error.hpp"
#include "lts/ops.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"
#include "noninterference/noninterference.hpp"

namespace dpma::bisim {
namespace {

using lts::Lts;
using lts::LtsBuilder;
using lts::StateId;

Lts single_action(const char* name) {
    LtsBuilder m;
    const StateId s0 = m.add_state();
    const StateId s1 = m.add_state();
    m.add_transition(s0, m.action(name), s1);
    m.set_initial(s0);
    return std::move(m).build();
}

TEST(TraceEquiv, IdenticalSystemsAreEquivalent) {
    const Lts a = single_action("x");
    const Lts b = single_action("x");
    const auto result = weakly_trace_equivalent(a, b);
    EXPECT_TRUE(result.equivalent);
    EXPECT_TRUE(result.distinguishing_trace.empty());
}

TEST(TraceEquiv, DifferentActionsAreDistinguished) {
    const auto result = weakly_trace_equivalent(single_action("x"), single_action("y"));
    EXPECT_FALSE(result.equivalent);
    ASSERT_EQ(result.distinguishing_trace.size(), 1u);
    // Either side's unique action works as a witness.
    EXPECT_TRUE(result.distinguishing_trace[0] == "x" ||
                result.distinguishing_trace[0] == "y");
}

TEST(TraceEquiv, TauIsInvisible) {
    // tau.a vs a.
    LtsBuilder lhs_builder;
    const StateId l0 = lhs_builder.add_state();
    const StateId l1 = lhs_builder.add_state();
    const StateId l2 = lhs_builder.add_state();
    lhs_builder.add_transition(l0, lhs_builder.actions()->tau(), l1);
    lhs_builder.add_transition(l1, lhs_builder.action("a"), l2);
    lhs_builder.set_initial(l0);
    const Lts lhs = std::move(lhs_builder).build();
    EXPECT_TRUE(weakly_trace_equivalent(lhs, single_action("a")).equivalent);
}

TEST(TraceEquiv, BranchingStructureIsIgnored) {
    // a.(b + c) vs a.b + a.c: NOT bisimilar, but trace equivalent — the
    // canonical separation of the two equivalences.
    LtsBuilder late_builder;
    {
        const StateId s0 = late_builder.add_state();
        const StateId s1 = late_builder.add_state();
        const StateId s2 = late_builder.add_state();
        const StateId s3 = late_builder.add_state();
        late_builder.add_transition(s0, late_builder.action("a"), s1);
        late_builder.add_transition(s1, late_builder.action("b"), s2);
        late_builder.add_transition(s1, late_builder.action("c"), s3);
        late_builder.set_initial(s0);
    }
    const Lts late = std::move(late_builder).build();
    LtsBuilder early_builder;
    {
        const StateId s0 = early_builder.add_state();
        const StateId s1 = early_builder.add_state();
        const StateId s2 = early_builder.add_state();
        const StateId s3 = early_builder.add_state();
        const StateId s4 = early_builder.add_state();
        early_builder.add_transition(s0, early_builder.action("a"), s1);
        early_builder.add_transition(s0, early_builder.action("a"), s2);
        early_builder.add_transition(s1, early_builder.action("b"), s3);
        early_builder.add_transition(s2, early_builder.action("c"), s4);
        early_builder.set_initial(s0);
    }
    const Lts early = std::move(early_builder).build();
    EXPECT_TRUE(weakly_trace_equivalent(late, early).equivalent);
    EXPECT_FALSE(strongly_bisimilar(late, early).equivalent);
    EXPECT_FALSE(weakly_bisimilar(late, early).equivalent);
}

TEST(TraceEquiv, FindsShortestDistinguishingTrace) {
    // Left: a.b.c ; right: a.b (c only after a longer detour is absent).
    LtsBuilder lhs_builder;
    {
        StateId s = lhs_builder.add_state();
        lhs_builder.set_initial(s);
        for (const char* name : {"a", "b", "c"}) {
            const StateId next = lhs_builder.add_state();
            lhs_builder.add_transition(s, lhs_builder.action(name), next);
            s = next;
        }
    }
    const Lts lhs = std::move(lhs_builder).build();
    LtsBuilder rhs_builder;
    {
        StateId s = rhs_builder.add_state();
        rhs_builder.set_initial(s);
        for (const char* name : {"a", "b"}) {
            const StateId next = rhs_builder.add_state();
            rhs_builder.add_transition(s, rhs_builder.action(name), next);
            s = next;
        }
    }
    const Lts rhs = std::move(rhs_builder).build();
    const auto result = weakly_trace_equivalent(lhs, rhs);
    ASSERT_FALSE(result.equivalent);
    EXPECT_TRUE(result.lhs_has_trace);
    ASSERT_EQ(result.distinguishing_trace.size(), 3u);
    EXPECT_EQ(result.distinguishing_trace[0], "a");
    EXPECT_EQ(result.distinguishing_trace[1], "b");
    EXPECT_EQ(result.distinguishing_trace[2], "c");
}

TEST(TraceEquiv, DeadlockIsInvisibleToTraces) {
    // a.b vs a.b + a.DEADLOCK: trace equivalent (prefix-closed languages
    // coincide) yet not weakly bisimilar.
    LtsBuilder safe_builder;
    {
        const StateId s0 = safe_builder.add_state();
        const StateId s1 = safe_builder.add_state();
        const StateId s2 = safe_builder.add_state();
        safe_builder.add_transition(s0, safe_builder.action("a"), s1);
        safe_builder.add_transition(s1, safe_builder.action("b"), s2);
        safe_builder.set_initial(s0);
    }
    const Lts safe = std::move(safe_builder).build();
    LtsBuilder risky_builder;
    {
        const StateId s0 = risky_builder.add_state();
        const StateId s1 = risky_builder.add_state();
        const StateId s2 = risky_builder.add_state();
        const StateId dead = risky_builder.add_state();
        risky_builder.add_transition(s0, risky_builder.action("a"), s1);
        risky_builder.add_transition(s0, risky_builder.action("a"), dead);
        risky_builder.add_transition(s1, risky_builder.action("b"), s2);
        risky_builder.set_initial(s0);
    }
    const Lts risky = std::move(risky_builder).build();
    EXPECT_TRUE(weakly_trace_equivalent(safe, risky).equivalent);
    EXPECT_FALSE(weakly_bisimilar(safe, risky).equivalent);
}

TEST(TraceEquiv, PairBudgetIsEnforced) {
    const Lts a = single_action("x");
    const Lts b = single_action("x");
    EXPECT_THROW((void)weakly_trace_equivalent(a, b, 1), NumericalError);
}

/// Both verdicts on a shipped architecture, its DPM commands as high actions.
std::pair<bool, bool> bisim_and_trace_verdicts(const adl::ArchiType& archi) {
    const adl::ComposedModel model = adl::compose(archi);
    const std::vector<std::string> high = models::high_action_labels(archi);
    return {noninterference::check_dpm_transparency(model, high, "C").noninterfering,
            noninterference::check_dpm_trace_transparency(model, high, "C").noninterfering};
}

TEST(Snni, SimplifiedRpcPassesTraceCheckButFailsBisimulationCheck) {
    // The headline separation: the DPM-induced deadlock of Sect. 3.1 is a
    // branching-time phenomenon.  The trace-based SNNI property is blind to
    // it; the paper's weak-bisimulation check catches it.
    const auto [bisim_ok, trace_ok] =
        bisim_and_trace_verdicts(models::archi("rpc_untimed.aem"));
    EXPECT_FALSE(bisim_ok);
    EXPECT_TRUE(trace_ok);
}

TEST(Snni, RevisedRpcPassesBothChecks) {
    const auto [bisim_ok, trace_ok] =
        bisim_and_trace_verdicts(models::archi("rpc_revised_markov.aem"));
    EXPECT_TRUE(bisim_ok);
    EXPECT_TRUE(trace_ok);
}

TEST(Snni, StreamingPassesBothChecks) {
    const auto [bisim_ok, trace_ok] = bisim_and_trace_verdicts(
        models::with_capacity(models::archi("streaming_markov.aem"), {"AP", "B"}, 2));
    EXPECT_TRUE(bisim_ok);
    EXPECT_TRUE(trace_ok);
}

TEST(Snni, TraceCheckStillCatchesNewLowBehaviour) {
    // A high action that unlocks a *new* low action is caught by both
    // properties (the interference is a trace, not just a deadlock).
    LtsBuilder builder;
    const StateId s0 = builder.add_state();
    const StateId s1 = builder.add_state();
    const StateId s2 = builder.add_state();
    builder.add_transition(s0, builder.action("low_a"), s1);
    builder.add_transition(s0, builder.action("high"), s2);
    builder.add_transition(s2, builder.action("low_b"), s1);
    builder.set_initial(s0);
    const Lts m = std::move(builder).build();
    const auto high = lts::make_action_set(m, {"high"});
    const auto low = lts::make_action_set(m, {"low_a", "low_b"});
    const auto verdict = noninterference::check_traces(m, high, low);
    EXPECT_FALSE(verdict.noninterfering);
    ASSERT_FALSE(verdict.distinguishing_trace.empty());
    EXPECT_EQ(verdict.distinguishing_trace.back(), "low_b");
}

}  // namespace
}  // namespace dpma::bisim
