#include <gtest/gtest.h>

#include "core/error.hpp"
#include "lts/lts.hpp"
#include "lts/ops.hpp"

namespace dpma::lts {
namespace {

/// a -> b -> c with a tau detour.
Lts make_chain() {
    LtsBuilder m;
    const StateId s0 = m.add_state();
    const StateId s1 = m.add_state();
    const StateId s2 = m.add_state();
    m.add_transition(s0, m.action("a"), s1);
    m.add_transition(s1, m.action("b"), s2);
    m.add_transition(s0, m.actions()->tau(), s2);
    m.set_initial(s0);
    return std::move(m).build();
}

TEST(ActionTable, TauIsPreInternedAsZero) {
    ActionTable table;
    EXPECT_EQ(table.tau(), 0u);
    EXPECT_EQ(table.name(table.tau()), "tau");
    EXPECT_EQ(table.intern("tau"), table.tau());
}

TEST(Lts, CountsStatesAndTransitions) {
    const Lts m = make_chain();
    EXPECT_EQ(m.num_states(), 3u);
    EXPECT_EQ(m.num_transitions(), 3u);
    EXPECT_EQ(m.initial(), 0u);
    EXPECT_EQ(m.out(0).size(), 2u);
    EXPECT_EQ(m.out(2).size(), 0u);
}

TEST(Lts, RejectsOutOfRangeEndpoints) {
    LtsBuilder builder;
    const StateId s = builder.add_state();
    EXPECT_THROW(builder.add_transition(s, builder.action("a"), 5), Error);
    EXPECT_THROW(builder.set_initial(9), Error);
    const Lts m = std::move(builder).build();
    EXPECT_THROW((void)m.out(1), Error);
}

TEST(Lts, MutateRatesReplacesAnnotation) {
    LtsBuilder builder;
    const StateId s0 = builder.add_state();
    const StateId s1 = builder.add_state();
    const ActionId a = builder.action("a");
    builder.add_transition(s0, a, s1, RateExp{2.0});
    builder.add_transition(s1, builder.action("b"), s0, RateExp{3.0});
    Lts m = std::move(builder).build();
    m.mutate_rates([a](ActionId action, Rate& rate) {
        if (action == a) rate = RateExp{5.0};
    });
    EXPECT_EQ(m.out(s0)[0].rate, Rate{RateExp{5.0}});
    EXPECT_EQ(m.out(s1)[0].rate, Rate{RateExp{3.0}});
}

TEST(Lts, CopiesAreIndependentUnderMutateRates) {
    const Lts m = make_chain();
    Lts copy = m;
    EXPECT_NE(copy.transitions().data(), m.transitions().data());
    copy.mutate_rates([](ActionId, Rate& rate) { rate = RateExp{9.0}; });
    for (const Transition& t : copy.transitions()) EXPECT_EQ(t.rate, Rate{RateExp{9.0}});
    for (const Transition& t : m.transitions()) EXPECT_EQ(t.rate, Rate{RateUnspecified{}});
    // The structure is shared by value: same rows, same targets.
    ASSERT_EQ(copy.num_states(), m.num_states());
    for (StateId s = 0; s < m.num_states(); ++s) {
        ASSERT_EQ(copy.out(s).size(), m.out(s).size());
        for (std::size_t k = 0; k < m.out(s).size(); ++k) {
            EXPECT_EQ(copy.out(s)[k].action, m.out(s)[k].action);
            EXPECT_EQ(copy.out(s)[k].target, m.out(s)[k].target);
        }
    }
}

TEST(LtsBuilder, KeepsInsertionOrderWithinASource) {
    // Sources arrive out of order (2, 0, 2, 1, 0); each state keeps its
    // transitions in the order they were added.
    LtsBuilder builder;
    for (int i = 0; i < 3; ++i) builder.add_state();
    const ActionId a = builder.action("a");
    const ActionId b = builder.action("b");
    const ActionId c = builder.action("c");
    builder.add_transition(2, a, 0);
    builder.add_transition(0, b, 1);
    builder.add_transition(2, c, 1);
    builder.add_transition(1, a, 2);
    builder.add_transition(0, a, 2);
    builder.set_initial(0);
    const Lts m = std::move(builder).build();

    ASSERT_EQ(m.num_transitions(), 5u);
    const std::vector<std::uint32_t> offsets(m.offsets().begin(), m.offsets().end());
    EXPECT_EQ(offsets, (std::vector<std::uint32_t>{0, 2, 3, 5}));
    ASSERT_EQ(m.out(0).size(), 2u);
    EXPECT_EQ(m.out(0)[0].action, b);
    EXPECT_EQ(m.out(0)[1].action, a);
    ASSERT_EQ(m.out(1).size(), 1u);
    EXPECT_EQ(m.out(1)[0].target, 2u);
    ASSERT_EQ(m.out(2).size(), 2u);
    EXPECT_EQ(m.out(2)[0].action, a);
    EXPECT_EQ(m.out(2)[1].action, c);
    EXPECT_EQ(m.transitions().data() + 2, m.out(1).data());
}

TEST(Lts, DumpMentionsActionsAndRates) {
    LtsBuilder builder;
    const StateId s0 = builder.add_state();
    builder.add_transition(s0, builder.action("ping"), s0, RateExp{1.5});
    builder.set_initial(s0);
    const std::string dump = std::move(builder).build().dump();
    EXPECT_NE(dump.find("ping"), std::string::npos);
    EXPECT_NE(dump.find("exp(1.5"), std::string::npos);
}

TEST(RatePredicates, ClassifyVariants) {
    EXPECT_TRUE(is_passive(Rate{RatePassive{}}));
    EXPECT_TRUE(is_immediate(Rate{RateImmediate{1, 2.0}}));
    EXPECT_TRUE(is_exponential(Rate{RateExp{3.0}}));
    EXPECT_TRUE(is_general(Rate{RateGeneral{Dist::deterministic(1.0)}}));
    EXPECT_TRUE(is_timed(Rate{RateExp{3.0}}));
    EXPECT_TRUE(is_timed(Rate{RateGeneral{Dist::deterministic(1.0)}}));
    EXPECT_FALSE(is_timed(Rate{RateImmediate{}}));
    EXPECT_FALSE(is_timed(Rate{RateUnspecified{}}));
}

TEST(Hide, RelabelsToTauAndKeepsRates) {
    Lts m = make_chain();
    const Lts hidden = hide(m, {m.actions()->find("a")});
    EXPECT_EQ(hidden.out(0)[0].action, m.actions()->tau());
    EXPECT_EQ(hidden.out(1)[0].action, m.actions()->find("b"));
    EXPECT_EQ(hidden.num_transitions(), 3u);
}

TEST(Restrict, RemovesMatchingTransitions) {
    Lts m = make_chain();
    const Lts restricted = restrict_actions(m, {m.actions()->find("a")});
    EXPECT_EQ(restricted.num_transitions(), 2u);
    EXPECT_TRUE(restricted.out(0).size() == 1u);  // only the tau remains
}

TEST(ReachablePart, PrunesUnreachableStates) {
    LtsBuilder builder;
    const StateId orphan = builder.add_state();
    const StateId s1 = builder.add_state();
    const StateId s0 = builder.add_state();
    builder.add_transition(orphan, builder.action("lost"), s0);
    builder.add_transition(s0, builder.action("a"), s1);
    builder.set_initial(s0);
    const Lts pruned = reachable_part(std::move(builder).build());
    EXPECT_EQ(pruned.num_states(), 2u);
    EXPECT_EQ(pruned.initial(), 0u);
    ASSERT_EQ(pruned.out(0).size(), 1u);
    EXPECT_EQ(pruned.actions()->name(pruned.out(0)[0].action), "a");
    EXPECT_EQ(pruned.out(0)[0].target, 1u);
    EXPECT_EQ(pruned.num_transitions(), 1u);
}

TEST(ReachablePart, KeepsAllTransitionsAmongReachable) {
    Lts m = make_chain();
    const Lts pruned = reachable_part(m);
    EXPECT_EQ(pruned.num_states(), m.num_states());
    EXPECT_EQ(pruned.num_transitions(), m.num_transitions());
}

TEST(DeadlockStates, FindsSinks) {
    const Lts m = make_chain();
    const auto sinks = deadlock_states(m);
    ASSERT_EQ(sinks.size(), 1u);
    EXPECT_EQ(sinks[0], 2u);
}

TEST(Saturate, AddsReflexiveTau) {
    LtsBuilder m;
    const StateId s0 = m.add_state();
    m.set_initial(s0);
    const ActionId tau = m.actions()->tau();
    const Lts sat = saturate(std::move(m).build());
    ASSERT_EQ(sat.out(s0).size(), 1u);
    EXPECT_EQ(sat.out(s0)[0].action, tau);
    EXPECT_EQ(sat.out(s0)[0].target, s0);
}

TEST(Saturate, ComputesWeakVisibleMoves) {
    // s0 -tau-> s1 -a-> s2 -tau-> s3: s0 must get a weak a to both s2 and s3.
    LtsBuilder m;
    const StateId s0 = m.add_state();
    const StateId s1 = m.add_state();
    const StateId s2 = m.add_state();
    const StateId s3 = m.add_state();
    const ActionId tau = m.actions()->tau();
    const ActionId a = m.action("a");
    m.add_transition(s0, tau, s1);
    m.add_transition(s1, a, s2);
    m.add_transition(s2, tau, s3);
    m.set_initial(s0);

    const Lts sat = saturate(std::move(m).build());
    bool weak_a_to_s2 = false;
    bool weak_a_to_s3 = false;
    for (const Transition& t : sat.out(s0)) {
        if (t.action == a && t.target == s2) weak_a_to_s2 = true;
        if (t.action == a && t.target == s3) weak_a_to_s3 = true;
    }
    EXPECT_TRUE(weak_a_to_s2);
    EXPECT_TRUE(weak_a_to_s3);
}

TEST(Saturate, TauChainsBecomeDirectWeakTaus) {
    LtsBuilder m;
    const StateId s0 = m.add_state();
    const StateId s1 = m.add_state();
    const StateId s2 = m.add_state();
    const ActionId tau = m.actions()->tau();
    m.add_transition(s0, tau, s1);
    m.add_transition(s1, tau, s2);
    m.set_initial(s0);
    const Lts sat = saturate(std::move(m).build());
    bool direct = false;
    for (const Transition& t : sat.out(s0)) {
        if (t.action == tau && t.target == s2) direct = true;
    }
    EXPECT_TRUE(direct);
}

TEST(DisjointUnion, MergesActionTablesByName) {
    LtsBuilder a;
    const StateId a0 = a.add_state();
    a.add_transition(a0, a.action("ping"), a0);
    a.set_initial(a0);

    LtsBuilder b;  // independent table: "pong" before "ping"
    const StateId b0 = b.add_state();
    b.add_transition(b0, b.action("pong"), b0);
    b.add_transition(b0, b.action("ping"), b0);
    b.set_initial(b0);

    const UnionResult u = disjoint_union(std::move(a).build(), std::move(b).build());
    EXPECT_EQ(u.combined.num_states(), 2u);
    EXPECT_EQ(u.initial_lhs, 0u);
    EXPECT_EQ(u.initial_rhs, 1u);
    // Both ping transitions must carry the same merged id.
    EXPECT_EQ(u.combined.out(u.initial_lhs)[0].action,
              u.combined.out(u.initial_rhs)[1].action);
}

TEST(MakeActionSet, InternsNames) {
    Lts m = make_chain();
    const ActionSet set = make_action_set(m, {"a", "brand_new"});
    EXPECT_EQ(set.size(), 2u);
    EXPECT_TRUE(set.contains(m.actions()->find("a")));
    EXPECT_TRUE(set.contains(m.actions()->find("brand_new")));
}

}  // namespace
}  // namespace dpma::lts
