#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <random>
#include <string>

#include "adl/compose.hpp"
#include "core/stats_math.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "core/error.hpp"
#include "models/specs.hpp"
#include "obs/json_parse.hpp"
#include "obs/trace.hpp"

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

// ---------------------------------------------------------------------------
// The gather kernel against the push series it replaced
// ---------------------------------------------------------------------------

/// The uniformisation series in push form, as transient() and
/// accumulated_reward() ran it before the gather kernel: each step zero-fills
/// the output, divides v / lambda per state and scatters the rows, and the
/// reward takes a compensated dot v_k . r on every term.  The reference for
/// the differential tests below; its results agree with the library's to
/// rounding, not bit for bit (the library multiplies by rate / lambda).
struct PushSeries {
    std::vector<double> pi;
    double reward = 0.0;
    std::size_t pi_terms = 0;      ///< length of the pi(t) series
    std::size_t reward_terms = 0;  ///< length of the reward series
};

void push_normalize(std::vector<double>& v) {
    KahanSum sum;
    for (const double p : v) sum.add(p);
    const double total = sum.value();
    for (double& p : v) p /= total;
}

void push_step(const Ctmc& chain, double lambda, const std::vector<double>& v,
               std::vector<double>& out) {
    std::fill(out.begin(), out.end(), 0.0);
    for (TangibleId s = 0; s < chain.num_states(); ++s) {
        out[s] += v[s] * (1.0 - chain.exit_rate(s) / lambda);
        const double mass = v[s] / lambda;
        if (mass == 0.0) continue;
        for (const RateEntry& e : chain.row(s)) out[e.target] += mass * e.rate;
    }
}

bool push_tail_below(double w, std::size_t k, double lt, double target) {
    const double kd = static_cast<double>(k);
    return kd >= lt && w * lt <= target * (kd + 1.0 - lt);
}

/// pi(t) (tail target 1e-12) and, in a second series, the reward
/// accumulated over [0, t] (tail target 1e-13), with both series' lengths.
PushSeries push_series(const Ctmc& chain,
                       const std::vector<std::pair<TangibleId, double>>& initial,
                       const std::vector<double>& rewards, double time) {
    const std::size_t n = chain.num_states();
    std::vector<double> start(n, 0.0);
    for (const auto& [s, p] : initial) start[s] += p;
    push_normalize(start);
    const double lambda = std::max(chain.max_exit_rate() * 1.05, 1e-9);
    const double lt = lambda * time;
    PushSeries out;
    out.pi.assign(n, 0.0);
    std::vector<double> vk = start;
    std::vector<double> next(n, 0.0);
    PoissonWeights weights(lt);
    for (std::size_t k = 0;; ++k, weights.advance()) {
        const double w = weights.current();
        if (w != 0.0) {
            for (std::size_t i = 0; i < n; ++i) out.pi[i] += w * vk[i];
        }
        if (push_tail_below(w, k, lt, 1e-12)) {
            out.pi_terms = k + 1;
            break;
        }
        push_step(chain, lambda, vk, next);
        vk.swap(next);
    }
    push_normalize(out.pi);

    KahanSum total;
    vk = start;
    double cdf = 0.0;
    PoissonWeights reward_weights(lt);
    for (std::size_t k = 0;; ++k, reward_weights.advance()) {
        cdf += reward_weights.current();
        const double tail = std::max(0.0, 1.0 - cdf);
        KahanSum dot;
        for (std::size_t i = 0; i < n; ++i) dot.add(vk[i] * rewards[i]);
        total.add(tail / lambda * dot.value());
        if (push_tail_below(reward_weights.current(), k, lt, 1e-13)) {
            out.reward_terms = k + 1;
            break;
        }
        push_step(chain, lambda, vk, next);
        vk.swap(next);
    }
    out.reward = total.value();
    return out;
}

/// The `terms` arg of the span \p name in the current trace (-1 if absent).
double traced_terms(const char* name) {
    const obs::Json trace = obs::json_parse(obs::trace_json());
    for (const obs::Json& event : trace.find("traceEvents")->array) {
        if (event.string_at("name") == name) return event.find("args")->number_at("terms");
    }
    return -1.0;
}

/// Runs transient() and accumulated_reward() traced and compares them with
/// the push series: pi within 1e-13 relative wherever the reference
/// probability exceeds 1e-300, the reward within 1e-13 relative, and both
/// series of equal length.
void expect_matches_push_series(const Ctmc& chain,
                                const std::vector<std::pair<TangibleId, double>>& initial,
                                const std::vector<double>& rewards, double time) {
    const PushSeries reference = push_series(chain, initial, rewards, time);
    obs::clear_trace();
    obs::set_tracing(true);
    const std::vector<double> pi = transient(chain, initial, time);
    const double reward = accumulated_reward(chain, initial, rewards, time);
    obs::set_tracing(false);
    std::size_t compared = 0;
    for (std::size_t i = 0; i < pi.size(); ++i) {
        if (!(reference.pi[i] > 1e-300)) continue;
        ++compared;
        EXPECT_LE(std::abs(pi[i] - reference.pi[i]), 1e-13 * reference.pi[i])
            << "state " << i << ": " << pi[i] << " vs " << reference.pi[i];
    }
    EXPECT_GT(compared, 0u);
    EXPECT_LE(std::abs(reward - reference.reward), 1e-13 * std::abs(reference.reward))
        << reward << " vs " << reference.reward;
#if !defined(DPMA_OBS_DISABLED)
    EXPECT_EQ(traced_terms("ctmc.transient"), static_cast<double>(reference.pi_terms));
    EXPECT_EQ(traced_terms("ctmc.accumulated_reward"),
              static_cast<double>(reference.reward_terms));
#endif
    obs::clear_trace();
}

/// Seeded rewards in [-1, 3]: both signs, positive on average.
std::vector<double> signed_rewards(std::mt19937_64& rng, std::size_t n) {
    std::uniform_real_distribution<double> reward(-1.0, 3.0);
    std::vector<double> out(n);
    for (double& r : out) r = reward(rng);
    return out;
}

TEST(TransientDiff, MatchesThePushSeriesOnEveryShippedMarkovSpec) {
    namespace fs = std::filesystem;
    std::size_t checked = 0;
    for (const auto& entry : fs::directory_iterator(DPMA_SPECS_DIR)) {
        const std::string name = entry.path().filename().string();
        if (!name.ends_with("_markov.aem")) continue;
        const MarkovModel markov = build_markov(adl::compose(models::archi(name)));
        std::mt19937_64 rng(checked + 11);
        const std::vector<double> rewards = signed_rewards(rng, markov.chain.num_states());
        for (const double t : {1.0, 50.0, 2000.0}) {
            SCOPED_TRACE(name + " at t = " + std::to_string(t));
            expect_matches_push_series(markov.chain, markov.initial_distribution, rewards, t);
        }
        ++checked;
    }
    EXPECT_GE(checked, 3u);
}

/// A random sparse chain over \p n states: about one state in eight is
/// absorbing (exit rate 0), the others have one to four targets with rates
/// spread over four decades.
Ctmc random_absorbing_chain(std::mt19937_64& rng, std::size_t n) {
    std::uniform_int_distribution<TangibleId> state(0, static_cast<TangibleId>(n - 1));
    std::uniform_int_distribution<int> degree(1, 4);
    std::uniform_real_distribution<double> log_rate(-2.0, 2.0);
    std::bernoulli_distribution absorbing(0.125);
    std::vector<Ctmc::Triplet> rates;
    for (TangibleId s = 0; s < n; ++s) {
        if (absorbing(rng)) continue;
        for (int d = degree(rng); d > 0; --d) {
            rates.push_back({s, state(rng), std::pow(10.0, log_rate(rng))});
        }
    }
    return Ctmc(n, rates);
}

TEST(TransientDiff, MatchesThePushSeriesOnRandomAbsorbingChains) {
    std::size_t absorbing = 0;
    for (unsigned seed = 0; seed < 24; ++seed) {
        std::mt19937_64 rng(seed * 7919 + 3);
        const std::size_t n = std::uniform_int_distribution<std::size_t>(2, 300)(rng);
        const Ctmc chain = random_absorbing_chain(rng, n);
        for (TangibleId s = 0; s < n; ++s) absorbing += chain.exit_rate(s) == 0.0 ? 1 : 0;
        // Several mass points, unnormalised.
        std::vector<std::pair<TangibleId, double>> initial;
        std::uniform_int_distribution<TangibleId> state(0, static_cast<TangibleId>(n - 1));
        std::uniform_real_distribution<double> mass(0.1, 2.0);
        for (int m = 0; m < 4; ++m) initial.emplace_back(state(rng), mass(rng));
        const std::vector<double> rewards = signed_rewards(rng, n);
        for (const double t : {0.05, 3.0, 40.0}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + ", " + std::to_string(n) +
                         " states, t = " + std::to_string(t));
            expect_matches_push_series(chain, initial, rewards, t);
        }
    }
    EXPECT_GT(absorbing, 0u);
}

}  // namespace
}  // namespace dpma::ctmc
