#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "adl/compose.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "core/error.hpp"
#include "models/specs.hpp"

namespace dpma::ctmc {
namespace {

Ctmc random_chain(int seed, std::size_t n) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 31337 + 5);
    std::uniform_real_distribution<double> rate(0.2, 3.0);
    std::vector<Ctmc::Triplet> rates;
    for (std::size_t i = 0; i < n; ++i) {
        rates.push_back({static_cast<TangibleId>(i),
                         static_cast<TangibleId>((i + 1) % n), rate(rng)});
        rates.push_back({static_cast<TangibleId>(i),
                         static_cast<TangibleId>((i + n / 2) % n), rate(rng)});
    }
    return Ctmc(n, rates);
}

class TransientProperties : public ::testing::TestWithParam<int> {};

TEST_P(TransientProperties, DistributionStaysNormalisedOverTime) {
    const Ctmc chain = random_chain(GetParam(), 9);
    for (const double t : {0.0, 0.1, 1.0, 10.0, 50.0}) {
        const auto pi = transient(chain, {{0, 1.0}}, t);
        double total = 0.0;
        for (double p : pi) {
            EXPECT_GE(p, -1e-12);
            total += p;
        }
        EXPECT_NEAR(total, 1.0, 1e-9) << "t=" << t;
    }
}

TEST_P(TransientProperties, ChapmanKolmogorovCompositionHolds) {
    // pi(s+t) computed in one step must equal propagating pi(s) for t more.
    const Ctmc chain = random_chain(GetParam(), 7);
    const double s = 0.8, t = 1.7;
    const auto direct = transient(chain, {{0, 1.0}}, s + t);
    const auto at_s = transient(chain, {{0, 1.0}}, s);
    std::vector<std::pair<TangibleId, double>> intermediate;
    for (TangibleId i = 0; i < chain.num_states(); ++i) {
        if (at_s[i] > 0.0) intermediate.emplace_back(i, at_s[i]);
    }
    const auto composed = transient(chain, intermediate, t);
    for (std::size_t i = 0; i < direct.size(); ++i) {
        EXPECT_NEAR(direct[i], composed[i], 1e-8) << "state " << i;
    }
}

TEST_P(TransientProperties, ConvergesToTheSteadyState) {
    const Ctmc chain = random_chain(GetParam(), 8);
    const auto pi_inf = steady_state(chain);
    const auto pi_t = transient(chain, {{0, 1.0}}, 500.0);
    for (std::size_t i = 0; i < pi_inf.size(); ++i) {
        EXPECT_NEAR(pi_t[i], pi_inf[i], 1e-6) << "state " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransientProperties, ::testing::Range(0, 8));

TEST(TransientRpc, SleepProbabilityRampsUpTowardsSteadyState) {
    // From a cold start the rpc server has never slept; P(sleeping at t)
    // ramps up towards its steady-state value (with a tiny damped
    // overshoot near convergence, so monotonicity is asserted only up to a
    // small slack).
    const adl::ComposedModel model = adl::compose(models::archi("rpc_revised_markov.aem"));
    const MarkovModel markov = build_markov(model);
    double previous = -1.0;
    double last = 0.0;
    for (const double t : {0.5, 2.0, 8.0, 32.0, 128.0}) {
        const auto pi = transient(markov.chain, markov.initial_distribution, t);
        const double sleeping = state_probability(
            markov, model, pi, adl::InStatePredicate{"S", "Sleeping_Server"});
        EXPECT_GE(sleeping, previous - 1e-3) << "t=" << t;
        previous = sleeping;
        last = sleeping;
    }
    const auto pi_inf = steady_state(markov.chain);
    const double sleeping_inf = state_probability(
        markov, model, pi_inf, adl::InStatePredicate{"S", "Sleeping_Server"});
    EXPECT_NEAR(last, sleeping_inf, 1e-3);
}

TEST(TransientRpc, InitialDistributionIsRespected) {
    const adl::ComposedModel model = adl::compose(models::archi("rpc_revised_markov.aem"));
    const MarkovModel markov = build_markov(model);
    const auto pi0 = transient(markov.chain, markov.initial_distribution, 0.0);
    double mass_on_initial = 0.0;
    for (const auto& [state, p] : markov.initial_distribution) {
        mass_on_initial += pi0[state];
        EXPECT_NEAR(pi0[state], p, 1e-12);
    }
    EXPECT_NEAR(mass_on_initial, 1.0, 1e-12);
}


TEST(TransientEdges, TimeZeroNormalisesTheInitialDistribution) {
    // t = 0 must return the initial distribution itself — normalised, since
    // callers may pass unnormalised weights.
    const Ctmc chain = random_chain(1, 5);
    const auto pi = transient(chain, {{0, 2.0}, {3, 2.0}}, 0.0);
    EXPECT_NEAR(pi[0], 0.5, 1e-12);
    EXPECT_NEAR(pi[3], 0.5, 1e-12);
    EXPECT_DOUBLE_EQ(pi[1], 0.0);
    EXPECT_DOUBLE_EQ(pi[2], 0.0);
    EXPECT_DOUBLE_EQ(pi[4], 0.0);
}

TEST(TransientEdges, AbsorbingOnlyChainIsAFixedPoint) {
    // A chain with no transitions at all (every state absorbing) must leave
    // the distribution untouched for any horizon — the uniformisation rate
    // is floored, not divided by zero.
    const Ctmc chain(3);
    for (const double t : {0.0, 1.0, 1e6}) {
        const auto pi = transient(chain, {{1, 1.0}}, t);
        EXPECT_NEAR(pi[0], 0.0, 1e-12) << "t=" << t;
        EXPECT_NEAR(pi[1], 1.0, 1e-12) << "t=" << t;
        EXPECT_NEAR(pi[2], 0.0, 1e-12) << "t=" << t;
    }
}

TEST(TransientEdges, AbsorptionMatchesTheExponentialClosedForm) {
    const double a = 0.6;
    const Ctmc chain(2, {
        {0, 1, a},  // state 1 is absorbing
    });
    for (const double t : {0.1, 0.5, 3.0, 50.0}) {
        const auto pi = transient(chain, {{0, 1.0}}, t);
        EXPECT_NEAR(pi[1], 1.0 - std::exp(-a * t), 1e-10) << "t=" << t;
        EXPECT_NEAR(pi[0] + pi[1], 1.0, 1e-10) << "t=" << t;
    }
}

TEST(TransientEdges, VeryLargeUniformisationHorizonStaysNormalised) {
    // q*t ~ 1e5: the Poisson weights are evaluated in log space, so the
    // early terms underflow to exactly zero instead of poisoning the sum;
    // the result must still be a distribution and must have converged to
    // the steady state.
    const Ctmc chain = random_chain(2, 6);
    const auto pi_t = transient(chain, {{0, 1.0}}, 20000.0);
    double total = 0.0;
    for (const double p : pi_t) {
        EXPECT_GE(p, -1e-12);
        total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    const auto pi_inf = steady_state(chain);
    for (std::size_t i = 0; i < pi_inf.size(); ++i) {
        EXPECT_NEAR(pi_t[i], pi_inf[i], 1e-8) << "state " << i;
    }
}

TEST(AccumulatedReward, ConstantRewardIntegratesToRateTimesTime) {
    const Ctmc chain = random_chain(3, 6);
    const std::vector<double> rewards(6, 2.5);
    const double value = accumulated_reward(chain, {{0, 1.0}}, rewards, 4.0);
    EXPECT_NEAR(value, 2.5 * 4.0, 1e-8);
}

TEST(AccumulatedReward, TwoStateClosedForm) {
    // 0 -(a)-> 1 absorbing-ish? use 0 <-> 1 and integrate P(in 0).
    // P(X_s = 0 | X_0 = 0) = mu/(a+mu) + a/(a+mu) e^{-(a+mu)s}
    const double a = 1.2, mu = 0.7, t = 2.3;
    const Ctmc chain(2, {{0, 1, a}, {1, 0, mu}});
    const std::vector<double> rewards{1.0, 0.0};  // reward = indicator of 0
    const double value = accumulated_reward(chain, {{0, 1.0}}, rewards, t);
    const double s = a + mu;
    const double expected = mu / s * t + a / (s * s) * (1.0 - std::exp(-s * t));
    EXPECT_NEAR(value, expected, 1e-8);
}

TEST(AccumulatedReward, LongHorizonStopsOnTheTailBound) {
    // lt = 4.2e6: rounding keeps 1 - cdf above any fixed target, so the
    // series must stop on the subtraction-free tail bound past the mode
    // instead of running to its safety cap and summing rounding noise.
    const double t = 2e6;
    const Ctmc chain(2, {{0, 1, 1.0}, {1, 0, 2.0}});
    const double value = accumulated_reward(chain, {{0, 1.0}}, {1.0, 0.0}, t);
    const double expected = 2.0 / 3.0 + 1.0 / (9.0 * t);
    EXPECT_NEAR(value / t, expected, 1e-8 * expected);
    const auto pi = transient(chain, {{0, 1.0}}, t);
    EXPECT_NEAR(pi[0], 2.0 / 3.0, 1e-9);
}

TEST(AccumulatedReward, GrowsLinearlyOnceStationary) {
    const Ctmc chain = random_chain(5, 8);
    std::vector<double> rewards(8, 0.0);
    rewards[2] = 3.0;
    rewards[5] = 1.0;
    const auto pi = steady_state(chain);
    const double rate = 3.0 * pi[2] + 1.0 * pi[5];
    const double at_100 = accumulated_reward(chain, {{0, 1.0}}, rewards, 100.0);
    const double at_200 = accumulated_reward(chain, {{0, 1.0}}, rewards, 200.0);
    EXPECT_NEAR(at_200 - at_100, 100.0 * rate, 0.01 * 100.0 * rate + 1e-6);
}

TEST(AccumulatedReward, ColdStartEnergyOfTheRpcServer) {
    // Energy spent in the first 50 ms from a cold start exceeds the
    // steady-state rate times 50 ms (the server has not started sleeping
    // yet, so it burns idle/busy power the whole time).
    const adl::ComposedModel model = adl::compose(models::archi("rpc_revised_markov.aem"));
    const MarkovModel markov = build_markov(model);
    std::vector<double> rewards(markov.chain.num_states(), 0.0);
    const auto add_mask = [&](const char* prefix, double watts) {
        const auto mask =
            adl::state_mask(model, adl::InStatePredicate{"S", prefix});
        for (TangibleId t = 0; t < markov.chain.num_states(); ++t) {
            if (mask[markov.orig_of[t]]) rewards[t] += watts;
        }
    };
    add_mask("Idle_Server", 2.0);
    add_mask("Busy_Server", 3.0);
    add_mask("Responding_Server", 3.0);
    add_mask("Awaking_Server", 2.0);

    const double cold = accumulated_reward(markov.chain,
                                           markov.initial_distribution, rewards, 50.0);
    const auto pi = steady_state(markov.chain);
    double stationary_rate = 0.0;
    for (TangibleId t = 0; t < markov.chain.num_states(); ++t) {
        stationary_rate += pi[t] * rewards[t];
    }
    EXPECT_GT(cold, stationary_rate * 50.0);
    EXPECT_LT(cold, 3.0 * 50.0);  // bounded by the maximum power
}

TEST(AccumulatedReward, TimeZeroAccruesNothing) {
    const Ctmc chain = random_chain(4, 5);
    const std::vector<double> rewards(5, 3.0);
    EXPECT_DOUBLE_EQ(accumulated_reward(chain, {{0, 1.0}}, rewards, 0.0), 0.0);
}

TEST(AccumulatedReward, AbsorbingChainAccruesItsStateRewardLinearly) {
    const Ctmc chain(2);  // no transitions: both states absorbing
    const std::vector<double> rewards{4.0, 7.0};
    // Tolerance: with no exits the uniformisation rate is floored, so the
    // series truncates after a couple of terms — exact up to that truncation.
    EXPECT_NEAR(accumulated_reward(chain, {{1, 1.0}}, rewards, 3.0), 21.0, 1e-5);
    EXPECT_NEAR(accumulated_reward(chain, {{0, 1.0}, {1, 1.0}}, rewards, 2.0),
                11.0, 1e-5);  // unnormalised initial mass is normalised first
}

TEST(AccumulatedReward, RejectsMismatchedRewardVector) {
    const Ctmc chain(2, {{0, 1, 1.0}, {1, 0, 1.0}});
    EXPECT_THROW((void)accumulated_reward(chain, {{0, 1.0}}, {1.0}, 1.0), Error);
}

}  // namespace
}  // namespace dpma::ctmc
