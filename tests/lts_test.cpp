#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

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
    EXPECT_EQ(m.rate(m.out(s0)[0]), Rate{RateExp{5.0}});
    EXPECT_EQ(m.rate(m.out(s1)[0]), Rate{RateExp{3.0}});
}

TEST(Lts, CopiesAreIndependentUnderMutateRates) {
    const Lts m = make_chain();
    Lts copy = m;
    // One CSR behind both: a copy owns only its slot table.
    EXPECT_EQ(copy.transitions().data(), m.transitions().data());
    EXPECT_EQ(copy.offsets().data(), m.offsets().data());
    EXPECT_NE(copy.slots().data(), m.slots().data());
    copy.mutate_rates([](ActionId, Rate& rate) { rate = RateExp{9.0}; });
    for (const Transition& t : copy.transitions()) EXPECT_EQ(copy.rate(t), Rate{RateExp{9.0}});
    for (const Transition& t : m.transitions()) EXPECT_EQ(m.rate(t), Rate{RateUnspecified{}});
    EXPECT_EQ(copy.transitions().data(), m.transitions().data());
}

TEST(LtsBuilder, InternsOneSlotPerActionAndRate) {
    LtsBuilder builder;
    for (int i = 0; i < 3; ++i) builder.add_state();
    const ActionId a = builder.action("a");
    const ActionId b = builder.action("b");
    builder.add_transition(0, a, 1, RateExp{2.0});
    builder.add_transition(1, a, 2, RateExp{2.0});  // same pair: same slot
    builder.add_transition(2, b, 0, RateExp{2.0});  // same rate, other action
    builder.add_transition(2, a, 0, RateExp{4.0});
    builder.add_transition(0, b, 2);
    builder.set_initial(0);
    Lts m = std::move(builder).build();

    ASSERT_EQ(m.num_transitions(), 5u);
    ASSERT_EQ(m.slots().size(), 4u);
    EXPECT_EQ(m.out(0)[0].slot, m.out(1)[0].slot);
    EXPECT_NE(m.out(0)[0].slot, m.out(2)[0].slot);
    for (const Transition& t : m.transitions()) {
        EXPECT_EQ(m.slots()[t.slot].action, t.action);
    }
    EXPECT_EQ(m.rate(m.out(2)[0]), Rate{RateExp{2.0}});
    EXPECT_EQ(m.rate(m.out(2)[1]), Rate{RateExp{4.0}});
    EXPECT_EQ(m.rate(m.out(0)[1]), Rate{RateUnspecified{}});

    // Slots are numbered in order of first use in the CSR, so the builder's
    // out-of-order sources are renumbered: state 0's two slots come first.
    EXPECT_EQ(m.out(0)[0].slot, 0u);
    EXPECT_EQ(m.out(0)[1].slot, 1u);

    std::vector<std::pair<ActionId, Rate>> visited;
    m.mutate_rates([&](ActionId action, Rate& rate) { visited.emplace_back(action, rate); });
    EXPECT_EQ(visited.size(), m.slots().size());
    std::vector<std::pair<ActionId, Rate>> want;
    for (const RateSlot& slot : m.slots()) want.emplace_back(slot.action, slot.rate);
    EXPECT_EQ(visited, want);
}

TEST(LtsBuilder, BuildDropsSlotsNoTransitionUses) {
    LtsBuilder builder;
    const StateId s0 = builder.add_state();
    const ActionId a = builder.action("a");
    (void)builder.intern_slot(a, RateExp{1.0});
    const SlotId used = builder.intern_slot(a, RateExp{2.0});
    builder.add_slot_transition(s0, used, s0);
    builder.set_initial(s0);
    const Lts m = std::move(builder).build();
    ASSERT_EQ(m.slots().size(), 1u);
    EXPECT_EQ(m.out(s0)[0].slot, 0u);
    EXPECT_EQ(m.rate(m.out(s0)[0]), Rate{RateExp{2.0}});
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

/// The transitions of \p state as "action->target" strings, in order.
std::vector<std::string> edges_of(const Lts& model, StateId state) {
    std::vector<std::string> out;
    for (const Transition& t : model.out(state)) {
        out.push_back(model.actions()->name(t.action) + "->" + std::to_string(t.target));
    }
    return out;
}

TEST(CollapseTauSccs, DeduplicatesCondensedEdgesInFirstSeenOrder) {
    // Tau-SCC {s0, s1}: its members' edges are taken in member order and a
    // repeated (action, target) is dropped, whichever member repeats it.
    {
        LtsBuilder m;
        const ActionId a = m.action("a");
        const ActionId b = m.action("b");
        const ActionId c = m.action("c");
        const ActionId tau = m.actions()->tau();
        const StateId s0 = m.add_state();
        const StateId s1 = m.add_state();
        const StateId t = m.add_state();
        const StateId u = m.add_state();
        m.add_transition(s0, tau, s1);
        m.add_transition(s0, b, t);
        m.add_transition(s0, a, u);
        m.add_transition(s0, a, t);
        m.add_transition(s1, tau, s0);
        m.add_transition(s1, a, u);
        m.add_transition(s1, b, t);
        m.add_transition(s1, c, u);
        m.add_transition(s1, tau, t);
        m.set_initial(s0);
        const TauCollapseResult r = collapse_tau_sccs(std::move(m).build());
        ASSERT_EQ(r.collapsed.num_states(), 3u);
        const std::string rt = std::to_string(r.representative_of[t]);
        const std::string ru = std::to_string(r.representative_of[u]);
        EXPECT_EQ(r.representative_of[s0], r.representative_of[s1]);
        EXPECT_EQ(edges_of(r.collapsed, r.representative_of[s0]),
                  (std::vector<std::string>{"b->" + rt, "a->" + ru, "a->" + rt, "c->" + ru,
                                            "tau->" + rt}));
    }
    // A 40-state tau ring with 80 candidate edges: still first-seen order,
    // although the action ids sort the other way.
    {
        LtsBuilder m;
        std::vector<ActionId> bs(7);
        for (int i = 6; i >= 0; --i) bs[i] = m.action("b" + std::to_string(i));
        const ActionId a = m.action("a");
        const ActionId tau = m.actions()->tau();
        std::vector<StateId> ring(40);
        for (StateId& s : ring) s = m.add_state();
        const StateId sink = m.add_state();
        const StateId other = m.add_state();
        for (std::size_t i = 0; i < ring.size(); ++i) {
            m.add_transition(ring[i], tau, ring[(i + 1) % ring.size()]);
            m.add_transition(ring[i], a, sink);
            m.add_transition(ring[i], bs[i % bs.size()], other);
        }
        m.set_initial(ring[0]);
        const TauCollapseResult r = collapse_tau_sccs(std::move(m).build());
        ASSERT_EQ(r.collapsed.num_states(), 3u);
        std::vector<std::string> expected{"a->" + std::to_string(r.representative_of[sink])};
        for (int i = 0; i < 7; ++i) {
            expected.push_back("b" + std::to_string(i) + "->" +
                               std::to_string(r.representative_of[other]));
        }
        EXPECT_EQ(edges_of(r.collapsed, r.representative_of[ring[0]]), expected);
    }
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
