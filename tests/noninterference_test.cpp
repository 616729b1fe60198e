#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "adl/compose.hpp"
#include "bisim/hml.hpp"
#include "bisim/hml_check.hpp"
#include "lts/lts.hpp"
#include "lts/ops.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"
#include "noninterference/noninterference.hpp"

namespace dpma::noninterference {
namespace {

using lts::Lts;
using lts::LtsBuilder;
using lts::StateId;

/// A system where a high action changes what the low user can observe:
///   s0 -low_a-> .   and   s0 -high-> s2 -low_b-> .
/// Hiding high lets the low observer reach low_b (after a tau); removing
/// high does not.  Classic interference.
Lts interfering_system() {
    LtsBuilder m;
    const StateId s0 = m.add_state();
    const StateId s1 = m.add_state();
    const StateId s2 = m.add_state();
    const StateId s3 = m.add_state();
    m.add_transition(s0, m.action("low_a"), s1);
    m.add_transition(s0, m.action("high"), s2);
    m.add_transition(s2, m.action("low_b"), s3);
    m.set_initial(s0);
    return std::move(m).build();
}

/// The high action only causes internal rearrangement; the low view is
/// unchanged: s0 -high-> s1, both states offer exactly low_a to the same
/// continuation.
Lts transparent_system() {
    LtsBuilder m;
    const StateId s0 = m.add_state();
    const StateId s1 = m.add_state();
    const StateId s2 = m.add_state();
    m.add_transition(s0, m.action("high"), s1);
    m.add_transition(s0, m.action("low_a"), s2);
    m.add_transition(s1, m.action("low_a"), s2);
    m.add_transition(s2, m.action("low_a"), s2);
    m.set_initial(s0);
    return std::move(m).build();
}

TEST(Noninterference, DetectsInterference) {
    Lts m = interfering_system();
    const Result r = check(m, lts::make_action_set(m, {"high"}));
    EXPECT_FALSE(r.noninterfering);
    ASSERT_NE(r.formula, nullptr);
    // The diagnostic must mention the capability the restricted system lacks.
    EXPECT_NE(bisim::to_compact(r.formula).find("low_b"), std::string::npos);
}

TEST(Noninterference, AcceptsTransparentHighActions) {
    Lts m = transparent_system();
    const Result r = check(m, lts::make_action_set(m, {"high"}));
    EXPECT_TRUE(r.noninterfering);
    EXPECT_EQ(r.formula, nullptr);
}

TEST(Noninterference, ReportsStateCounts) {
    Lts m = interfering_system();
    const Result r = check(m, lts::make_action_set(m, {"high"}));
    EXPECT_EQ(r.hidden_states, 4u);     // all states reachable when hidden
    EXPECT_EQ(r.restricted_states, 2u); // s2/s3 unreachable when restricted
}

TEST(Noninterference, ObserverRelativeCheckHidesThirdParties) {
    // A "server" action distinguishes the two sides unless it is hidden as
    // non-low: s0 -high-> s1 -server-> s2 -low_a-> ...; without high the
    // low view is just low_a as well (via another path).
    LtsBuilder builder;
    const StateId s0 = builder.add_state();
    const StateId s1 = builder.add_state();
    const StateId s2 = builder.add_state();
    builder.add_transition(s0, builder.action("high"), s1);
    builder.add_transition(s1, builder.action("server_work"), s2);
    builder.add_transition(s0, builder.action("low_a"), s2);
    builder.add_transition(s1, builder.action("low_a"), s2);
    builder.add_transition(s2, builder.action("low_a"), s2);
    builder.set_initial(s0);
    const Lts m = std::move(builder).build();

    const auto high = lts::make_action_set(m, {"high"});
    const auto low = lts::make_action_set(m, {"low_a"});
    // Classic check fails: the hidden side exposes server_work.
    EXPECT_FALSE(check(m, high).noninterfering);
    // The observer-relative check passes: server_work is not low-visible.
    EXPECT_TRUE(check(m, high, low).noninterfering);
}

TEST(Noninterference, FormulaDistinguishesTheTwoViews) {
    Lts m = interfering_system();
    const auto high = lts::make_action_set(m, {"high"});
    const Result r = check(m, high);
    ASSERT_FALSE(r.noninterfering);
    // Re-create the two views exactly as the checker does and verify the
    // formula's verdict on both.
    const Lts hidden = lts::reachable_part(lts::hide(m, high));
    const Lts restricted = lts::reachable_part(lts::restrict_actions(m, high));
    const lts::UnionResult u = lts::disjoint_union(hidden, restricted);
    EXPECT_TRUE(bisim::satisfies(u.combined, u.initial_lhs, r.formula));
    EXPECT_FALSE(bisim::satisfies(u.combined, u.initial_rhs, r.formula));
}

TEST(Noninterference, UnknownLowInstanceIsAModelErrorNamingIt) {
    // An observer that owns no action would see nothing on either side, so
    // both checks must refuse it instead of passing.
    const adl::ArchiType archi = models::archi("rpc_untimed.aem");
    const adl::ComposedModel model = adl::compose(archi);
    const std::vector<std::string> high = models::high_action_labels(archi);
    try {
        (void)check_dpm_transparency(model, high, "NOSUCH");
        ADD_FAILURE() << "bisimulation check accepted an unknown low instance";
    } catch (const ModelError& e) {
        EXPECT_NE(std::string(e.what()).find("NOSUCH"), std::string::npos) << e.what();
    }
    try {
        (void)check_dpm_trace_transparency(model, high, "NOSUCH");
        ADD_FAILURE() << "trace check accepted an unknown low instance";
    } catch (const ModelError& e) {
        EXPECT_NE(std::string(e.what()).find("NOSUCH"), std::string::npos) << e.what();
    }
}

TEST(Noninterference, UnknownHighLabelIsAModelError) {
    const adl::ComposedModel model = adl::compose(models::archi("rpc_untimed.aem"));
    EXPECT_THROW((void)check_dpm_transparency(model, {"DPM.no_such#S.command"}, "C"),
                 ModelError);
    EXPECT_THROW((void)check_dpm_trace_transparency(model, {"DPM.no_such#S.command"}, "C"),
                 ModelError);
}

}  // namespace
}  // namespace dpma::noninterference
