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
using lts::StateId;

Lts single_action(const char* name) {
    Lts m;
    const StateId s0 = m.add_state();
    const StateId s1 = m.add_state();
    m.add_transition(s0, m.action(name), s1);
    m.set_initial(s0);
    return m;
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
    Lts lhs;
    const StateId l0 = lhs.add_state();
    const StateId l1 = lhs.add_state();
    const StateId l2 = lhs.add_state();
    lhs.add_transition(l0, lhs.actions()->tau(), l1);
    lhs.add_transition(l1, lhs.action("a"), l2);
    lhs.set_initial(l0);
    EXPECT_TRUE(weakly_trace_equivalent(lhs, single_action("a")).equivalent);
}

TEST(TraceEquiv, BranchingStructureIsIgnored) {
    // a.(b + c) vs a.b + a.c: NOT bisimilar, but trace equivalent — the
    // canonical separation of the two equivalences.
    Lts late;
    {
        const StateId s0 = late.add_state();
        const StateId s1 = late.add_state();
        const StateId s2 = late.add_state();
        const StateId s3 = late.add_state();
        late.add_transition(s0, late.action("a"), s1);
        late.add_transition(s1, late.action("b"), s2);
        late.add_transition(s1, late.action("c"), s3);
        late.set_initial(s0);
    }
    Lts early;
    {
        const StateId s0 = early.add_state();
        const StateId s1 = early.add_state();
        const StateId s2 = early.add_state();
        const StateId s3 = early.add_state();
        const StateId s4 = early.add_state();
        early.add_transition(s0, early.action("a"), s1);
        early.add_transition(s0, early.action("a"), s2);
        early.add_transition(s1, early.action("b"), s3);
        early.add_transition(s2, early.action("c"), s4);
        early.set_initial(s0);
    }
    EXPECT_TRUE(weakly_trace_equivalent(late, early).equivalent);
    EXPECT_FALSE(strongly_bisimilar(late, early).equivalent);
    EXPECT_FALSE(weakly_bisimilar(late, early).equivalent);
}

TEST(TraceEquiv, FindsShortestDistinguishingTrace) {
    // Left: a.b.c ; right: a.b (c only after a longer detour is absent).
    Lts lhs;
    {
        StateId s = lhs.add_state();
        lhs.set_initial(s);
        for (const char* name : {"a", "b", "c"}) {
            const StateId next = lhs.add_state();
            lhs.add_transition(s, lhs.action(name), next);
            s = next;
        }
    }
    Lts rhs;
    {
        StateId s = rhs.add_state();
        rhs.set_initial(s);
        for (const char* name : {"a", "b"}) {
            const StateId next = rhs.add_state();
            rhs.add_transition(s, rhs.action(name), next);
            s = next;
        }
    }
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
    Lts safe;
    {
        const StateId s0 = safe.add_state();
        const StateId s1 = safe.add_state();
        const StateId s2 = safe.add_state();
        safe.add_transition(s0, safe.action("a"), s1);
        safe.add_transition(s1, safe.action("b"), s2);
        safe.set_initial(s0);
    }
    Lts risky;
    {
        const StateId s0 = risky.add_state();
        const StateId s1 = risky.add_state();
        const StateId s2 = risky.add_state();
        const StateId dead = risky.add_state();
        risky.add_transition(s0, risky.action("a"), s1);
        risky.add_transition(s0, risky.action("a"), dead);
        risky.add_transition(s1, risky.action("b"), s2);
        risky.set_initial(s0);
    }
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
    Lts m;
    const StateId s0 = m.add_state();
    const StateId s1 = m.add_state();
    const StateId s2 = m.add_state();
    m.add_transition(s0, m.action("low_a"), s1);
    m.add_transition(s0, m.action("high"), s2);
    m.add_transition(s2, m.action("low_b"), s1);
    m.set_initial(s0);
    const auto high = lts::make_action_set(m, {"high"});
    const auto low = lts::make_action_set(m, {"low_a", "low_b"});
    const auto verdict = noninterference::check_traces(m, high, low);
    EXPECT_FALSE(verdict.noninterfering);
    ASSERT_FALSE(verdict.distinguishing_trace.empty());
    EXPECT_EQ(verdict.distinguishing_trace.back(), "low_b");
}

}  // namespace
}  // namespace dpma::bisim
