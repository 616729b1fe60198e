#include <gtest/gtest.h>

#include "bisim/equivalence.hpp"
#include "bisim/hml_check.hpp"
#include "bisim/partition.hpp"
#include "core/error.hpp"
#include "lts/ops.hpp"

namespace dpma::bisim {
namespace {

using lts::Lts;
using lts::LtsBuilder;
using lts::StateId;

/// The classic CCS example: a.(b + c) vs a.b + a.c — trace equivalent but
/// not bisimilar.
Lts branching_late() {  // a.(b + c)
    LtsBuilder m;
    const StateId s0 = m.add_state();
    const StateId s1 = m.add_state();
    const StateId s2 = m.add_state();
    const StateId s3 = m.add_state();
    m.add_transition(s0, m.action("a"), s1);
    m.add_transition(s1, m.action("b"), s2);
    m.add_transition(s1, m.action("c"), s3);
    m.set_initial(s0);
    return std::move(m).build();
}

Lts branching_early() {  // a.b + a.c
    LtsBuilder m;
    const StateId s0 = m.add_state();
    const StateId s1 = m.add_state();
    const StateId s2 = m.add_state();
    const StateId s3 = m.add_state();
    const StateId s4 = m.add_state();
    m.add_transition(s0, m.action("a"), s1);
    m.add_transition(s0, m.action("a"), s2);
    m.add_transition(s1, m.action("b"), s3);
    m.add_transition(s2, m.action("c"), s4);
    m.set_initial(s0);
    return std::move(m).build();
}

/// A two-state toggle: a.b.a.b...
Lts toggle() {
    LtsBuilder m;
    const StateId s0 = m.add_state();
    const StateId s1 = m.add_state();
    m.add_transition(s0, m.action("a"), s1);
    m.add_transition(s1, m.action("b"), s0);
    m.set_initial(s0);
    return std::move(m).build();
}

/// The same toggle "unrolled" to four states (bisimilar to toggle()).
Lts toggle_unrolled() {
    LtsBuilder m;
    const StateId s0 = m.add_state();
    const StateId s1 = m.add_state();
    const StateId s2 = m.add_state();
    const StateId s3 = m.add_state();
    m.add_transition(s0, m.action("a"), s1);
    m.add_transition(s1, m.action("b"), s2);
    m.add_transition(s2, m.action("a"), s3);
    m.add_transition(s3, m.action("b"), s0);
    m.set_initial(s0);
    return std::move(m).build();
}

TEST(StrongBisim, UnrolledCycleIsBisimilar) {
    const auto result = strongly_bisimilar(toggle(), toggle_unrolled());
    EXPECT_TRUE(result.equivalent);
    EXPECT_EQ(result.distinguishing, nullptr);
}

TEST(StrongBisim, BranchingTimeDistinguishesClassicExample) {
    const auto result = strongly_bisimilar(branching_late(), branching_early());
    EXPECT_FALSE(result.equivalent);
    ASSERT_NE(result.distinguishing, nullptr);
}

TEST(StrongBisim, DistinguishingFormulaIsVerifiedByModelChecker) {
    const Lts lhs = branching_late();
    const Lts rhs = branching_early();
    const auto result = strongly_bisimilar(lhs, rhs);
    ASSERT_FALSE(result.equivalent);
    // The formula must hold in lhs's initial state and fail in rhs's.
    // (Formula was generated on the disjoint union; check on the union too.)
    const lts::UnionResult u = lts::disjoint_union(lhs, rhs);
    EXPECT_TRUE(satisfies(u.combined, u.initial_lhs, result.distinguishing));
    EXPECT_FALSE(satisfies(u.combined, u.initial_rhs, result.distinguishing));
}

TEST(StrongBisim, DifferentAlphabetsAreDistinguished) {
    LtsBuilder a_builder;
    const StateId a0 = a_builder.add_state();
    a_builder.add_transition(a0, a_builder.action("x"), a0);
    a_builder.set_initial(a0);
    const Lts a = std::move(a_builder).build();
    LtsBuilder b_builder;
    const StateId b0 = b_builder.add_state();
    b_builder.add_transition(b0, b_builder.action("y"), b0);
    b_builder.set_initial(b0);
    const Lts b = std::move(b_builder).build();
    const auto result = strongly_bisimilar(a, b);
    EXPECT_FALSE(result.equivalent);
}

TEST(WeakBisim, TauPrefixIsInvisible) {
    // tau.a ~weak~ a
    LtsBuilder lhs_builder;
    const StateId l0 = lhs_builder.add_state();
    const StateId l1 = lhs_builder.add_state();
    const StateId l2 = lhs_builder.add_state();
    lhs_builder.add_transition(l0, lhs_builder.actions()->tau(), l1);
    lhs_builder.add_transition(l1, lhs_builder.action("a"), l2);
    lhs_builder.set_initial(l0);
    const Lts lhs = std::move(lhs_builder).build();

    LtsBuilder rhs_builder;
    const StateId r0 = rhs_builder.add_state();
    const StateId r1 = rhs_builder.add_state();
    rhs_builder.add_transition(r0, rhs_builder.action("a"), r1);
    rhs_builder.set_initial(r0);
    const Lts rhs = std::move(rhs_builder).build();

    EXPECT_TRUE(weakly_bisimilar(lhs, rhs).equivalent);
    EXPECT_FALSE(strongly_bisimilar(lhs, rhs).equivalent);
}

TEST(WeakBisim, TauBranchingToDistinctCapabilitiesIsObservable) {
    // a + tau.b is NOT weakly bisimilar to a + b: the left can silently
    // commit to b, losing the a-capability.
    LtsBuilder lhs_builder;
    {
        const StateId s0 = lhs_builder.add_state();
        const StateId s1 = lhs_builder.add_state();
        const StateId s2 = lhs_builder.add_state();
        const StateId s3 = lhs_builder.add_state();
        lhs_builder.add_transition(s0, lhs_builder.action("a"), s1);
        lhs_builder.add_transition(s0, lhs_builder.actions()->tau(), s2);
        lhs_builder.add_transition(s2, lhs_builder.action("b"), s3);
        lhs_builder.set_initial(s0);
    }
    const Lts lhs = std::move(lhs_builder).build();
    LtsBuilder rhs_builder;
    {
        const StateId s0 = rhs_builder.add_state();
        const StateId s1 = rhs_builder.add_state();
        const StateId s2 = rhs_builder.add_state();
        rhs_builder.add_transition(s0, rhs_builder.action("a"), s1);
        rhs_builder.add_transition(s0, rhs_builder.action("b"), s2);
        rhs_builder.set_initial(s0);
    }
    const Lts rhs = std::move(rhs_builder).build();
    const auto result = weakly_bisimilar(lhs, rhs);
    EXPECT_FALSE(result.equivalent);
    ASSERT_NE(result.distinguishing, nullptr);
    const lts::UnionResult u = lts::disjoint_union(lhs, rhs);
    EXPECT_TRUE(satisfies(u.combined, u.initial_lhs, result.distinguishing));
    EXPECT_FALSE(satisfies(u.combined, u.initial_rhs, result.distinguishing));
}

TEST(WeakBisim, TauLoopIsWeaklyEquivalentToNothing) {
    // A pure tau self-loop vs a deadlocked state (weak bisim ignores
    // divergence).
    LtsBuilder lhs_builder;
    const StateId l0 = lhs_builder.add_state();
    lhs_builder.add_transition(l0, lhs_builder.actions()->tau(), l0);
    lhs_builder.set_initial(l0);
    const Lts lhs = std::move(lhs_builder).build();
    LtsBuilder rhs_builder;
    rhs_builder.set_initial(rhs_builder.add_state());
    const Lts rhs = std::move(rhs_builder).build();
    EXPECT_TRUE(weakly_bisimilar(lhs, rhs).equivalent);
}

TEST(Refinement, StablePartitionIsCoarsestBisimulation) {
    const Lts m = toggle_unrolled();
    const RefinementResult r = refine_strong(m);
    // States 0/2 and 1/3 must coincide.
    EXPECT_EQ(r.final_blocks()[0], r.final_blocks()[2]);
    EXPECT_EQ(r.final_blocks()[1], r.final_blocks()[3]);
    EXPECT_NE(r.final_blocks()[0], r.final_blocks()[1]);
}

TEST(Refinement, SeparationRoundIsMonotone) {
    const Lts lhs = branching_late();
    const Lts rhs = branching_early();
    const lts::UnionResult u = lts::disjoint_union(lhs, rhs);
    const RefinementResult r = refine_strong(u.combined);
    const std::size_t round = r.separation_round(u.initial_lhs, u.initial_rhs);
    EXPECT_GE(round, 1u);
    // Once separated, states stay separated in all later rounds.
    for (std::size_t k = round; k < r.rounds.size(); ++k) {
        EXPECT_NE(r.rounds[k][u.initial_lhs], r.rounds[k][u.initial_rhs]);
    }
}

TEST(Branching, RejectsTauEdgesThatDoNotDescend) {
    // refine_branching walks states by ascending id and needs every
    // tau-successor signed first; an ascending tau edge must be refused.
    LtsBuilder builder;
    const StateId s0 = builder.add_state();
    const StateId s1 = builder.add_state();
    builder.add_transition(s0, builder.actions()->tau(), s1);
    builder.add_transition(s1, builder.action("a"), s1);
    builder.set_initial(s0);
    const Lts m = std::move(builder).build();
    EXPECT_THROW((void)refine_branching(m), Error);
    // The tau-SCC collapse numbers states so that the same system passes.
    const std::vector<BlockId> blocks =
        refine_branching(lts::collapse_tau_sccs(m).collapsed);
    EXPECT_EQ(blocks.size(), 2u);
    // s0 -tau-> s1 is inert: both states offer only a, so one block.
    EXPECT_EQ(blocks[0], blocks[1]);
}

TEST(Quotient, IsBisimilarToTheOriginal) {
    const Lts m = toggle_unrolled();
    const RefinementResult r = refine_strong(m);
    const Lts q = quotient(m, r.final_blocks());
    EXPECT_EQ(q.num_states(), 2u);
    EXPECT_TRUE(strongly_bisimilar(m, q).equivalent);
}

TEST(Quotient, PreservesDeterministicStructure) {
    const Lts m = toggle();
    const RefinementResult r = refine_strong(m);
    const Lts q = quotient(m, r.final_blocks());
    EXPECT_EQ(q.num_states(), 2u);
    EXPECT_EQ(q.num_transitions(), 2u);
}

TEST(Quotient, CollapsesBisimilarBranches) {
    // a.b + a.b has two bisimilar a-successors; quotient collapses them.
    LtsBuilder builder;
    const StateId s0 = builder.add_state();
    const StateId s1 = builder.add_state();
    const StateId s2 = builder.add_state();
    const StateId s3 = builder.add_state();
    const StateId s4 = builder.add_state();
    builder.add_transition(s0, builder.action("a"), s1);
    builder.add_transition(s0, builder.action("a"), s2);
    builder.add_transition(s1, builder.action("b"), s3);
    builder.add_transition(s2, builder.action("b"), s4);
    builder.set_initial(s0);
    const Lts m = std::move(builder).build();
    const Lts q = quotient(m, refine_strong(m).final_blocks());
    EXPECT_EQ(q.num_states(), 3u);
    EXPECT_TRUE(strongly_bisimilar(m, q).equivalent);
}

/// Property sweep: random-ish LTS must always be bisimilar to its quotient,
/// and the quotient must be minimal (refining it again splits nothing).
class QuotientProperty : public ::testing::TestWithParam<int> {};

TEST_P(QuotientProperty, QuotientIsBisimilarAndMinimal) {
    const int seed = GetParam();
    // Deterministic pseudo-random LTS from the seed.
    LtsBuilder builder;
    const int n = 5 + seed % 11;
    std::vector<StateId> states;
    for (int i = 0; i < n; ++i) states.push_back(builder.add_state());
    const char* names[] = {"a", "b", "c", "tau"};
    unsigned x = static_cast<unsigned>(seed) * 2654435761u + 1u;
    const auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        return x;
    };
    for (int i = 0; i < 3 * n; ++i) {
        const StateId from = states[next() % n];
        const StateId to = states[next() % n];
        const char* name = names[next() % 4];
        builder.add_transition(from, builder.action(name), to);
    }
    builder.set_initial(states[0]);
    const Lts m = std::move(builder).build();

    const RefinementResult r = refine_strong(m);
    const Lts q = quotient(m, r.final_blocks());
    EXPECT_TRUE(strongly_bisimilar(m, q).equivalent) << "seed " << seed;

    const RefinementResult r2 = refine_strong(q);
    std::size_t blocks = 0;
    for (BlockId b : r2.final_blocks()) blocks = std::max<std::size_t>(blocks, b + 1);
    EXPECT_EQ(blocks, q.num_states()) << "quotient not minimal, seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuotientProperty, ::testing::Range(0, 20));

}  // namespace
}  // namespace dpma::bisim
