#include <gtest/gtest.h>

#include <cmath>

#include "adl/compose.hpp"
#include "core/error.hpp"
#include "lts/dot.hpp"
#include "bisim/equivalence.hpp"
#include "lts/ops.hpp"
#include "models/specs.hpp"
#include "sim/gsmp.hpp"

namespace dpma::sim {
namespace {


/// Deterministic work/rest cycle with unit power while working.
adl::ArchiType cycle_model(double work, double rest) {
    adl::ArchiType archi;
    archi.name = "Cycle";
    adl::ElemType t;
    t.name = "T";
    t.behaviors = {
        adl::BehaviorDef{"Working", {},
            {{nullptr,
              {{"finish", lts::RateGeneral{Dist::deterministic(work)}}},
              {"Resting", {}}}}},
        adl::BehaviorDef{"Resting", {},
            {{nullptr,
              {{"restart", lts::RateGeneral{Dist::deterministic(rest)}}},
              {"Working", {}}}}},
    };
    archi.elem_types = {t};
    archi.instances = {adl::Instance{"X", "T", {}}};
    return archi;
}

std::vector<adl::Measure> cycle_measures() {
    adl::Measure energy{"energy", {adl::state_reward_in("X", "Working", 2.0)}};
    adl::Measure cycles{"cycles", {adl::trans_reward("X", "finish", 1.0)}};
    return {energy, cycles};
}

TEST(RunUntil, FindsExactCrossingInsideAState) {
    // Work 3 units at power 2, rest 2 units at power 0.  Accumulated energy
    // reaches 10 after 2.5 cycles of work: t = 3+2+3+2+2 = 12... precisely:
    // energy 6 at t=3, 6 at t=5, 12 at t=8 -> crossing of 10 at t = 5 + 4/2 = 7.
    const adl::ComposedModel model = adl::compose(cycle_model(3.0, 2.0));
    const Simulator simulator(model, cycle_measures());
    SimOptions options;
    options.horizon = 1000.0;
    options.seed = 1;
    const DepletionResult result = simulator.run_until(0, 10.0, options);
    EXPECT_TRUE(result.depleted);
    EXPECT_NEAR(result.time, 7.0, 1e-9);
    EXPECT_NEAR(result.totals[0], 10.0, 1e-9);
    // One full work period finished by then.
    EXPECT_NEAR(result.totals[1], 1.0, 1e-12);
}

TEST(RunUntil, TransRewardCrossesAtFiringInstant) {
    const adl::ComposedModel model = adl::compose(cycle_model(3.0, 2.0));
    const Simulator simulator(model, cycle_measures());
    SimOptions options;
    options.horizon = 1000.0;
    options.seed = 1;
    // Third completed work period fires at t = 3 + 5 + 5 = 13.
    const DepletionResult result = simulator.run_until(1, 3.0, options);
    EXPECT_TRUE(result.depleted);
    EXPECT_NEAR(result.time, 13.0, 1e-9);
}

TEST(RunUntil, ReportsNonDepletionWithinHorizon) {
    const adl::ComposedModel model = adl::compose(cycle_model(3.0, 2.0));
    const Simulator simulator(model, cycle_measures());
    SimOptions options;
    options.horizon = 4.0;  // energy reaches only 6+... at t=4: 2*3=6 < 100
    options.seed = 1;
    const DepletionResult result = simulator.run_until(0, 100.0, options);
    EXPECT_FALSE(result.depleted);
}

TEST(RunUntil, RejectsWarmup) {
    const adl::ComposedModel model = adl::compose(cycle_model(3.0, 2.0));
    const Simulator simulator(model, cycle_measures());
    SimOptions options;
    options.horizon = 10.0;
    options.warmup = 1.0;
    EXPECT_THROW((void)simulator.run_until(0, 5.0, options), Error);
}

TEST(RunUntil, DepletionEstimateMatchesFluidLimitForLargeCapacity) {
    // Exponential work/rest: average power = 2 * E[work]/(E[work]+E[rest]).
    adl::ArchiType archi;
    archi.name = "ExpCycle";
    adl::ElemType t;
    t.name = "T";
    t.behaviors = {
        adl::BehaviorDef{"Working", {},
            {{nullptr, {{"finish", lts::RateExp{1.0}}}, {"Resting", {}}}}},
        adl::BehaviorDef{"Resting", {},
            {{nullptr, {{"restart", lts::RateExp{2.0}}}, {"Working", {}}}}},
    };
    archi.elem_types = {t};
    archi.instances = {adl::Instance{"X", "T", {}}};
    const adl::ComposedModel model = adl::compose(archi);
    const Simulator simulator(model, cycle_measures());
    SimOptions options;
    options.horizon = 100000.0;
    options.seed = 5;
    const double capacity = 2000.0;
    const Estimate estimate =
        simulate_depletion(simulator, 0, capacity, options, 20, 0.90);
    // Average power: P(working) = (1)/(1 + 0.5) = 2/3; power = 4/3.
    const double fluid = capacity / (4.0 / 3.0);
    EXPECT_NEAR(estimate.mean, fluid, 0.03 * fluid);
}

TEST(Trace, RecordsTimeOrderedEventsWithValidLabels) {
    const adl::ComposedModel model = adl::compose(models::archi("rpc_general.aem"));
    const Simulator simulator(model, models::measures("rpc_measures.msr"));
    SimOptions options;
    options.horizon = 200.0;
    options.seed = 3;
    std::vector<TraceEvent> trace;
    const RunResult run = simulator.run(options, &trace);
    EXPECT_EQ(trace.size(), run.events);
    ASSERT_FALSE(trace.empty());
    for (std::size_t i = 1; i < trace.size(); ++i) {
        EXPECT_LE(trace[i - 1].time, trace[i].time);
    }
    for (const TraceEvent& e : trace) {
        EXPECT_LT(e.action, model.graph.actions()->size());
        EXPECT_LT(e.target, model.graph.num_states());
    }
}

TEST(Trace, WarmupEventsAreExcluded) {
    const adl::ComposedModel model = adl::compose(models::archi("rpc_general.aem"));
    const Simulator simulator(model, models::measures("rpc_measures.msr"));
    SimOptions options;
    options.warmup = 100.0;
    options.horizon = 100.0;
    options.seed = 3;
    std::vector<TraceEvent> trace;
    (void)simulator.run(options, &trace);
    for (const TraceEvent& e : trace) {
        EXPECT_GE(e.time, 100.0);
        EXPECT_LE(e.time, 200.0);
    }
}

TEST(Dot, RendersStatesEdgesAndInitialMarker) {
    lts::LtsBuilder builder;
    const auto s0 = builder.add_state();
    const auto s1 = builder.add_state();
    builder.add_transition(s0, builder.action("go"), s1, lts::RateExp{2.0});
    builder.add_transition(s1, builder.actions()->tau(), s0);
    builder.set_initial(s0);
    const lts::Lts m = std::move(builder).build();
    const std::string dot = lts::to_dot(m);
    EXPECT_NE(dot.find("digraph lts"), std::string::npos);
    EXPECT_NE(dot.find("doublecircle"), std::string::npos);
    EXPECT_NE(dot.find("s0 [shape=doublecircle, label=\"0\"]"), std::string::npos);
    EXPECT_NE(dot.find("s1 [label=\"1\"]"), std::string::npos);
    EXPECT_NE(dot.find("go, exp"), std::string::npos);
    EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

TEST(Dot, HonoursOptions) {
    lts::LtsBuilder builder;
    const auto s0 = builder.add_state();
    builder.add_transition(s0, builder.action("go"), s0, lts::RateExp{2.0});
    builder.set_initial(s0);
    const lts::Lts m = std::move(builder).build();
    lts::DotOptions options;
    EXPECT_NE(lts::to_dot(m, options).find("go, exp"), std::string::npos);
    options.show_rates = false;
    const std::string dot = lts::to_dot(m, options);
    EXPECT_EQ(dot.find("exp"), std::string::npos);
    EXPECT_NE(dot.find("label=\"go\""), std::string::npos);
}

TEST(Dot, RefusesOversizedSystems) {
    lts::LtsBuilder builder;
    for (int i = 0; i < 10; ++i) builder.add_state();
    builder.set_initial(0);
    const lts::Lts m = std::move(builder).build();
    lts::DotOptions options;
    options.max_states = 5;
    EXPECT_THROW((void)lts::to_dot(m, options), Error);
}

TEST(CollapseTauSccs, MergesMutuallyTauReachableStates) {
    lts::LtsBuilder builder;
    const auto s0 = builder.add_state();
    const auto s1 = builder.add_state();
    const auto s2 = builder.add_state();
    const auto tau = builder.actions()->tau();
    builder.add_transition(s0, tau, s1);
    builder.add_transition(s1, tau, s0);  // {s0, s1} is a tau-SCC
    builder.add_transition(s1, builder.action("a"), s2);
    builder.set_initial(s0);
    const lts::Lts m = std::move(builder).build();
    const lts::TauCollapseResult result = lts::collapse_tau_sccs(m);
    EXPECT_EQ(result.collapsed.num_states(), 2u);
    EXPECT_EQ(result.representative_of[s0], result.representative_of[s1]);
    EXPECT_NE(result.representative_of[s0], result.representative_of[s2]);
}

TEST(CollapseTauSccs, KeepsVisibleSelfLoops) {
    lts::LtsBuilder builder;
    const auto s0 = builder.add_state();
    builder.add_transition(s0, builder.action("ping"), s0);
    builder.add_transition(s0, builder.actions()->tau(), s0);
    builder.set_initial(s0);
    const lts::Lts m = std::move(builder).build();
    const lts::TauCollapseResult result = lts::collapse_tau_sccs(m);
    EXPECT_EQ(result.collapsed.num_states(), 1u);
    // The visible self-loop survives; the tau self-loop does not.
    ASSERT_EQ(result.collapsed.out(0).size(), 1u);
    EXPECT_EQ(result.collapsed.out(0)[0].action, m.actions()->find("ping"));
}

TEST(CollapseTauSccs, PreservesWeakBisimilarity) {
    const adl::ComposedModel model = adl::compose(models::archi("rpc_revised_markov.aem"));
    lts::ActionSet dpm_actions;
    for (auto a : adl::actions_of_instance(model, "DPM")) dpm_actions.insert(a);
    const lts::Lts hidden = lts::hide(model.graph, dpm_actions);
    const lts::TauCollapseResult collapsed = lts::collapse_tau_sccs(hidden);
    EXPECT_LE(collapsed.collapsed.num_states(), hidden.num_states());
    EXPECT_TRUE(bisim::weakly_bisimilar(hidden, collapsed.collapsed).equivalent);
}

}  // namespace
}  // namespace dpma::sim
