#include <gtest/gtest.h>

#include <cmath>

#include "adl/compose.hpp"
#include "core/error.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "sim/gsmp.hpp"
#include "sim/rng.hpp"

namespace dpma::sim {
namespace {


TEST(Rng, IsDeterministicPerSeed) {
    Rng a(123), b(123), c(124);
    EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
    EXPECT_NE(a.uniform01(), c.uniform01());
}

TEST(Rng, Uniform01StaysInRange) {
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform01();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowIsUnbiasedEnough) {
    Rng rng(5);
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 30000; ++i) ++counts[rng.below(3)];
    for (int c : counts) EXPECT_NEAR(c, 10000, 400);
}

TEST(Rng, DerivedSeedsDiffer) {
    EXPECT_NE(Rng::derive_seed(1, 0), Rng::derive_seed(1, 1));
    EXPECT_NE(Rng::derive_seed(1, 0), Rng::derive_seed(2, 0));
}

struct DistCase {
    Dist dist;
    double mean;
    double variance;
    const char* name;
};

class DistributionMoments : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributionMoments, SampleMomentsMatchAnalytic) {
    const DistCase& c = GetParam();
    Rng rng(20250705);
    const int n = 200000;
    double sum = 0.0, sum2 = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.sample(c.dist);
        EXPECT_GE(x, 0.0);
        sum += x;
        sum2 += x * x;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, c.mean, 5.0 * std::sqrt(std::max(c.variance, 1e-12) / n) + 1e-9)
        << c.name;
    if (c.variance > 0.0) {
        EXPECT_NEAR(var, c.variance, 0.05 * c.variance + 1e-9) << c.name;
    } else {
        EXPECT_NEAR(var, 0.0, 1e-12) << c.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Families, DistributionMoments,
    ::testing::Values(
        DistCase{Dist::exponential(2.0), 0.5, 0.25, "exp"},
        DistCase{Dist::deterministic(3.0), 3.0, 0.0, "det"},
        DistCase{Dist::uniform(1.0, 5.0), 3.0, 16.0 / 12.0, "unif"},
        DistCase{Dist::normal(10.0, 0.5), 10.0, 0.25, "norm"},
        DistCase{Dist::erlang(4, 2.0), 2.0, 1.0, "erlang"},
        DistCase{Dist::weibull(1.0, 2.0), 2.0, 4.0, "weibull_exp"},
        DistCase{Dist::lognormal(0.0, 0.25),
                 std::exp(0.03125),
                 (std::exp(0.0625) - 1.0) * std::exp(0.0625), "lognorm"}),
    [](const ::testing::TestParamInfo<DistCase>& info) { return info.param.name; });

/// Single-component cycle: work (exp) then rest (exp).  Its CTMC is the
/// two-state chain, giving exact targets for the simulator's estimates.
adl::ArchiType two_phase(lts::Rate work, lts::Rate rest) {
    adl::ArchiType archi;
    archi.name = "TwoPhase";
    adl::ElemType t;
    t.name = "T";
    t.behaviors = {
        adl::BehaviorDef{"Working", {}, {{nullptr, {{"finish", work}}, {"Resting", {}}}}},
        adl::BehaviorDef{"Resting", {}, {{nullptr, {{"restart", rest}}, {"Working", {}}}}},
    };
    archi.elem_types = {t};
    archi.instances = {adl::Instance{"X", "T", {}}};
    return archi;
}

std::vector<adl::Measure> two_phase_measures() {
    adl::Measure p_work{"p_working", {adl::state_reward_in("X", "Working", 1.0)}};
    adl::Measure throughput{"throughput", {adl::trans_reward("X", "finish", 1.0)}};
    return {p_work, throughput};
}

TEST(Simulator, MatchesCtmcOnExponentialModel) {
    const adl::ComposedModel model =
        adl::compose(two_phase(lts::RateExp{2.0}, lts::RateExp{1.0}));
    const Simulator simulator(model, two_phase_measures());
    SimOptions options;
    options.warmup = 50.0;
    options.horizon = 5000.0;
    options.seed = 11;
    const auto estimates = simulate_replications(simulator, options, 20, 0.95);
    // CTMC: p(Working) = (1/2) / (1/2 + 1) = 1/3; throughput = 1/1.5.
    EXPECT_NEAR(estimates[0].mean, 1.0 / 3.0, 4 * estimates[0].half_width + 0.003);
    EXPECT_NEAR(estimates[1].mean, 2.0 / 3.0, 4 * estimates[1].half_width + 0.005);
    EXPECT_GT(estimates[0].half_width, 0.0);
}

TEST(Simulator, DeterministicCycleIsExact) {
    const adl::ComposedModel model =
        adl::compose(two_phase(lts::RateGeneral{Dist::deterministic(2.0)},
                               lts::RateGeneral{Dist::deterministic(3.0)}));
    const Simulator simulator(model, two_phase_measures());
    SimOptions options;
    options.warmup = 10.0;
    options.horizon = 5000.0;
    options.seed = 3;
    const RunResult run = simulator.run(options);
    EXPECT_NEAR(run.values[0], 0.4, 1e-3);        // 2 / (2+3)
    EXPECT_NEAR(run.values[1], 0.2, 1e-3);        // one finish per 5 time units
}

TEST(Simulator, SameSeedSameResult) {
    const adl::ComposedModel model =
        adl::compose(two_phase(lts::RateExp{2.0}, lts::RateExp{1.0}));
    const Simulator simulator(model, two_phase_measures());
    SimOptions options;
    options.horizon = 100.0;
    options.seed = 77;
    const RunResult a = simulator.run(options);
    const RunResult b = simulator.run(options);
    EXPECT_EQ(a.values, b.values);
    EXPECT_EQ(a.events, b.events);
}

TEST(Simulator, RejectsFunctionalModels) {
    const adl::ComposedModel model =
        adl::compose(two_phase(lts::RateUnspecified{}, lts::RateExp{1.0}));
    EXPECT_THROW(Simulator(model, two_phase_measures()), ModelError);
}

TEST(Simulator, RejectsNonPositiveHorizon) {
    const adl::ComposedModel model =
        adl::compose(two_phase(lts::RateExp{2.0}, lts::RateExp{1.0}));
    const Simulator simulator(model, two_phase_measures());
    SimOptions options;
    options.horizon = 0.0;
    EXPECT_THROW((void)simulator.run(options), Error);
}

TEST(Simulator, DetectsImmediateLivelock) {
    adl::ArchiType archi;
    archi.name = "Livelock";
    adl::ElemType t;
    t.name = "T";
    t.behaviors = {
        adl::BehaviorDef{"A", {}, {{nullptr, {{"ping", lts::RateImmediate{}}}, {"B", {}}}}},
        adl::BehaviorDef{"B", {}, {{nullptr, {{"pong", lts::RateImmediate{}}}, {"A", {}}}}},
    };
    archi.elem_types = {t};
    archi.instances = {adl::Instance{"X", "T", {}}};
    const adl::ComposedModel model = adl::compose(archi);
    const Simulator simulator(model, {});
    SimOptions options;
    options.horizon = 1.0;
    options.max_immediate_burst = 1000;
    EXPECT_THROW((void)simulator.run(options), NumericalError);
}

TEST(Simulator, DeadlockedModelSpendsAllTimeInSink) {
    adl::ArchiType archi;
    archi.name = "Sink";
    adl::ElemType t;
    t.name = "T";
    t.behaviors = {
        adl::BehaviorDef{"Go", {}, {{nullptr, {{"once", lts::RateExp{100.0}}}, {"Stop", {}}}}},
        adl::BehaviorDef{"Stop", {}, {{nullptr, {{"in", lts::RatePassive{}}}, {"Stop", {}}}}},
    };
    t.input_interactions = {"in"};  // unattached: Stop deadlocks
    archi.elem_types = {t};
    archi.instances = {adl::Instance{"X", "T", {}}};
    const adl::ComposedModel model = adl::compose(archi);

    adl::Measure stopped{"p_stop", {adl::state_reward_in("X", "Stop", 1.0)}};
    const Simulator simulator(model, {stopped});
    SimOptions options;
    options.horizon = 1000.0;
    options.seed = 5;
    const RunResult run = simulator.run(options);
    EXPECT_GT(run.values[0], 0.99);
}

TEST(Simulator, ImmediatePrioritiesPreemptLowerOnes) {
    adl::ArchiType archi;
    archi.name = "Prio";
    adl::ElemType t;
    t.name = "T";
    t.behaviors = {
        adl::BehaviorDef{"S", {}, {{nullptr, {{"tick", lts::RateExp{1.0}}}, {"Pick", {}}}}},
        adl::BehaviorDef{"Pick", {},
            {{nullptr, {{"low", lts::RateImmediate{1, 1.0}}}, {"S", {}}},
             {nullptr, {{"high", lts::RateImmediate{2, 1.0}}}, {"S", {}}}}},
    };
    archi.elem_types = {t};
    archi.instances = {adl::Instance{"X", "T", {}}};
    const adl::ComposedModel model = adl::compose(archi);
    adl::Measure low{"low", {adl::trans_reward("X", "low", 1.0)}};
    adl::Measure high{"high", {adl::trans_reward("X", "high", 1.0)}};
    const Simulator simulator(model, {low, high});
    SimOptions options;
    options.horizon = 500.0;
    options.seed = 1;
    const RunResult run = simulator.run(options);
    EXPECT_DOUBLE_EQ(run.values[0], 0.0);
    EXPECT_GT(run.values[1], 0.5);
}

TEST(Simulator, ImmediateWeightsSplitProportionally) {
    adl::ArchiType archi;
    archi.name = "Weights";
    adl::ElemType t;
    t.name = "T";
    t.behaviors = {
        adl::BehaviorDef{"S", {}, {{nullptr, {{"tick", lts::RateExp{1.0}}}, {"Pick", {}}}}},
        adl::BehaviorDef{"Pick", {},
            {{nullptr, {{"rare", lts::RateImmediate{1, 0.1}}}, {"S", {}}},
             {nullptr, {{"common", lts::RateImmediate{1, 0.9}}}, {"S", {}}}}},
    };
    archi.elem_types = {t};
    archi.instances = {adl::Instance{"X", "T", {}}};
    const adl::ComposedModel model = adl::compose(archi);
    adl::Measure rare{"rare", {adl::trans_reward("X", "rare", 1.0)}};
    adl::Measure common{"common", {adl::trans_reward("X", "common", 1.0)}};
    const Simulator simulator(model, {rare, common});
    SimOptions options;
    options.horizon = 50000.0;
    options.seed = 99;
    const RunResult run = simulator.run(options);
    const double ratio = run.values[0] / (run.values[0] + run.values[1]);
    EXPECT_NEAR(ratio, 0.1, 0.01);
}

TEST(Replications, ConfidenceNarrowsWithMoreRuns) {
    const adl::ComposedModel model =
        adl::compose(two_phase(lts::RateExp{2.0}, lts::RateExp{1.0}));
    const Simulator simulator(model, two_phase_measures());
    SimOptions options;
    options.horizon = 200.0;
    options.seed = 17;
    const auto few = simulate_replications(simulator, options, 5, 0.90);
    const auto many = simulate_replications(simulator, options, 40, 0.90);
    EXPECT_LT(many[0].half_width, few[0].half_width);
    EXPECT_EQ(many[0].samples.size(), 40u);
}

/// Cross-validation in the spirit of Fig. 5: a GSMP simulation with all
/// delays exponential must agree with the CTMC solution of the same model.
TEST(Validation, GsmpWithExponentialDelaysMatchesCtmc) {
    const adl::ArchiType archi = two_phase(lts::RateExp{0.8}, lts::RateExp{2.4});
    const adl::ComposedModel model = adl::compose(archi);

    const ctmc::MarkovModel markov = ctmc::build_markov(model);
    const auto pi = ctmc::steady_state(markov.chain);
    const auto measures = two_phase_measures();
    const double exact_p =
        ctmc::evaluate_measure(markov, model, pi, measures[0]);
    const double exact_tput =
        ctmc::evaluate_measure(markov, model, pi, measures[1]);

    const Simulator simulator(model, measures);
    SimOptions options;
    options.warmup = 100.0;
    options.horizon = 4000.0;
    options.seed = 2024;
    const auto estimates = simulate_replications(simulator, options, 30, 0.90);
    EXPECT_NEAR(estimates[0].mean, exact_p, 5 * estimates[0].half_width + 1e-3);
    EXPECT_NEAR(estimates[1].mean, exact_tput, 5 * estimates[1].half_width + 1e-3);
}

}  // namespace
}  // namespace dpma::sim
