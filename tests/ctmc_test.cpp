#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "adl/compose.hpp"
#include "core/error.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "ctmc/sparse.hpp"
#include "ctmc_fixtures.hpp"

namespace dpma::ctmc {
namespace {


/// Birth-death chain of n states: up-rate lambda, down-rate mu.
Ctmc birth_death(std::size_t n, double lambda, double mu) {
    std::vector<Ctmc::Triplet> rates;
    for (TangibleId i = 0; i + 1 < n; ++i) {
        rates.push_back({i, i + 1, lambda});
        rates.push_back({i + 1, i, mu});
    }
    return Ctmc(n, rates);
}

/// Analytic M/M/1/K distribution: pi_i proportional to rho^i.
std::vector<double> mm1k(std::size_t n, double rho) {
    std::vector<double> pi(n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        pi[i] = std::pow(rho, static_cast<double>(i));
        total += pi[i];
    }
    for (double& p : pi) p /= total;
    return pi;
}

TEST(Ctmc, AccumulatesParallelRates) {
    const Ctmc chain(2, {{0, 1, 1.0}, {0, 1, 2.5}});
    ASSERT_EQ(chain.row(0).size(), 1u);
    EXPECT_DOUBLE_EQ(chain.row(0)[0].rate, 3.5);
    EXPECT_DOUBLE_EQ(chain.exit_rate(0), 3.5);
}

TEST(Ctmc, IgnoresSelfLoops) {
    const Ctmc chain(1, {{0, 0, 5.0}});
    EXPECT_TRUE(chain.row(0).empty());
    EXPECT_DOUBLE_EQ(chain.exit_rate(0), 0.0);
}

TEST(Ctmc, RejectsNonPositiveRates) {
    EXPECT_THROW((Ctmc(2, {{0, 1, 0.0}})), Error);
    EXPECT_THROW((Ctmc(2, {{0, 1, -1.0}})), Error);
}

TEST(SteadyState, TwoStateClosedForm) {
    const Ctmc chain(2, {{0, 1, 3.0}, {1, 0, 1.0}});
    const auto pi = steady_state(chain);
    EXPECT_NEAR(pi[0], 0.25, 1e-12);
    EXPECT_NEAR(pi[1], 0.75, 1e-12);
}

TEST(SteadyState, GthMatchesMm1kClosedForm) {
    const double lambda = 2.0, mu = 3.0;
    const auto pi = steady_state_gth(birth_death(8, lambda, mu));
    const auto expect = mm1k(8, lambda / mu);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_NEAR(pi[i], expect[i], 1e-12) << "state " << i;
    }
}

/// Max relative difference between two distributions.
double max_rel_diff(const std::vector<double>& a, const std::vector<double>& b) {
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        worst = std::max(worst, std::abs(a[i] - b[i]) / std::max(std::abs(b[i]), 1e-300));
    }
    return worst;
}

TEST(SteadyState, SparseGthMatchesDenseOnBirthDeath) {
    const Ctmc chain = birth_death(25, 1.7, 1.1);
    SolveDiagnostics diagnostics;
    const auto sparse = steady_state(chain, {.diagnostics = &diagnostics});
    EXPECT_LE(max_rel_diff(sparse, steady_state_gth(chain)), 1e-12);
    EXPECT_EQ(diagnostics.method, "gth");
    // A tridiagonal chain fills nothing: one L and one U entry per state.
    EXPECT_EQ(diagnostics.factor_entries, 2u * 24u);
}

TEST(SteadyState, SparseGthMatchesDenseOnARingWithChords) {
    // Long edges in both directions make the envelope wide and the factor
    // fill in, unlike the tridiagonal case.
    std::vector<Ctmc::Triplet> rates;
    constexpr TangibleId n = 40;
    for (TangibleId i = 0; i < n; ++i) {
        rates.push_back({i, (i + 1) % n, 0.9 + 0.01 * i});
        rates.push_back({i, (i * 7 + 3) % n, 0.3});
    }
    const Ctmc chain(n, rates);
    EXPECT_LE(max_rel_diff(steady_state(chain), steady_state_gth(chain)), 1e-12);
    // The dense reference through the public entry point agrees bit for bit.
    EXPECT_EQ(steady_state(chain, {.dense_threshold = SIZE_MAX}), steady_state_gth(chain));
    // Pinned from the kernel with indexed U rows: the dense profile rows
    // only add +0 terms, so neither the bits nor the nonzero count move.
    const Elimination solved = sparse_gth(chain);
    EXPECT_EQ(bit_digest(solved.x), 6396577854433973274u);
    EXPECT_EQ(solved.factor_entries, 431u);
    EXPECT_GE(solved.factor_slots, solved.factor_entries);
}

TEST(SteadyState, SparseGthRespectsTheFactorBudget) {
    const Ctmc chain = birth_death(25, 1.7, 1.1);
    EXPECT_THROW((void)sparse_gth(chain, 2 * 24 - 1), NumericalError);
    EXPECT_EQ(sparse_gth(chain, 2 * 24).factor_entries, 2u * 24u);
}

TEST(SteadyState, SparseGthBudgetCountsProfileSlots) {
    // Eliminated in reverse index order, state 3 goes first; its U row
    // spans positions 1..3 (states 2, 1, 0) but has no edge to state 1, so
    // the profile holds one zero.  L: 0 + 1 + 1 + 3 slots, U: 3 + 2 + 1 + 0.
    const Ctmc chain(4, {{3, 2, 1.0}, {3, 0, 2.0}, {2, 3, 1.5}, {2, 1, 0.5}, {1, 2, 3.0},
                         {0, 3, 0.25}});
    EXPECT_THROW((void)sparse_gth(chain, 10), NumericalError);
    const Elimination solved = sparse_gth(chain, 11);
    EXPECT_EQ(solved.factor_slots, 11u);
    EXPECT_EQ(solved.factor_entries, 10u);
    EXPECT_LE(max_rel_diff(solved.x, steady_state_gth(chain)), 1e-12);
}

TEST(SteadyState, SumsToOne) {
    const auto pi = steady_state(birth_death(40, 2.3, 2.3));
    double total = 0.0;
    for (double p : pi) total += p;
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(SteadyState, SatisfiesGlobalBalance) {
    const Ctmc chain = birth_death(10, 1.3, 0.8);
    const auto pi = steady_state(chain);
    // flow out == flow in for every state
    std::vector<double> inflow(10, 0.0);
    for (TangibleId s = 0; s < 10; ++s) {
        for (const RateEntry& e : chain.row(s)) {
            inflow[e.target] += pi[s] * e.rate;
        }
    }
    for (TangibleId s = 0; s < 10; ++s) {
        EXPECT_NEAR(inflow[s], pi[s] * chain.exit_rate(s), 1e-10) << "state " << s;
    }
}

TEST(SteadyState, TransientPrefixGetsZeroMass) {
    // 0 -> 1 <-> 2: state 0 is transient.
    const Ctmc chain(3, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 1, 2.0}});
    const auto pi = steady_state(chain);
    EXPECT_DOUBLE_EQ(pi[0], 0.0);
    EXPECT_NEAR(pi[1], 0.5, 1e-12);
    EXPECT_NEAR(pi[2], 0.5, 1e-12);
}

TEST(SteadyState, TwoRecurrentClassesAreRejected) {
    const Ctmc chain(4, {
        {0, 1, 1.0},  // class {1}
        {0, 2, 1.0},  // class {2,3}
        {2, 3, 1.0},
        {3, 2, 1.0},
    });
    EXPECT_THROW((void)steady_state(chain), NumericalError);
}

TEST(BottomSccs, IdentifiesRecurrentClasses) {
    const Ctmc chain(5, {
        {0, 1, 1.0},
        {1, 2, 1.0},
        {2, 1, 1.0},  // {1,2} bottom
        {0, 3, 1.0},
        {3, 4, 1.0},
        {4, 3, 1.0},  // {3,4} bottom
    });
    const auto bottoms = bottom_sccs(chain);
    EXPECT_EQ(bottoms.size(), 2u);
}

TEST(BottomSccs, AbsorbingStateIsItsOwnClass) {
    const Ctmc chain(2, {{0, 1, 1.0}});
    const auto bottoms = bottom_sccs(chain);
    ASSERT_EQ(bottoms.size(), 1u);
    ASSERT_EQ(bottoms[0].size(), 1u);
    EXPECT_EQ(bottoms[0][0], 1u);
}

TEST(BottomSccs, SkipsManyTransientSingletons) {
    // A chain of 40 transient singletons 0 -> ... -> 39 enters A = {41, 43,
    // 45}; state 0 also enters B = {40, 42}.  The search from 0 completes A
    // first and B only after the chain, so A comes first although B holds
    // the lower states.
    std::vector<Ctmc::Triplet> rates;
    for (TangibleId s = 0; s < 39; ++s) rates.push_back({s, s + 1, 1.0});
    rates.push_back({0, 40, 1.0});
    rates.push_back({39, 41, 1.0});
    for (const auto& [from, to] : {std::pair{41u, 43u}, {43u, 45u}, {45u, 41u}, {40u, 42u},
                                   {42u, 40u}, {44u, 45u}}) {
        rates.push_back({from, to, 2.0});
    }
    const auto bottoms = bottom_sccs(Ctmc(46, rates));
    ASSERT_EQ(bottoms.size(), 2u);
    EXPECT_EQ(bottoms[0], (std::vector<TangibleId>{41, 43, 45}));
    EXPECT_EQ(bottoms[1], (std::vector<TangibleId>{40, 42}));
}

TEST(Irreducibility, DetectsBothDirections) {
    const Ctmc ring(3, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 0, 1.0}});
    EXPECT_TRUE(is_irreducible(ring));

    const Ctmc line(3, {{0, 1, 1.0}, {1, 2, 1.0}});
    EXPECT_FALSE(is_irreducible(line));
}

TEST(Transient, ConvergesToSteadyState) {
    const Ctmc chain(2, {{0, 1, 1.0}, {1, 0, 2.0}});
    const auto pi = transient(chain, {{0, 1.0}}, 200.0);
    EXPECT_NEAR(pi[0], 2.0 / 3.0, 1e-9);
    EXPECT_NEAR(pi[1], 1.0 / 3.0, 1e-9);
}

TEST(Transient, MatchesTwoStateClosedForm) {
    // P(in 1 at t) = (lambda/(lambda+mu)) (1 - exp(-(lambda+mu) t))
    const double lambda = 1.5, mu = 0.5, t = 0.7;
    const Ctmc chain(2, {{0, 1, lambda}, {1, 0, mu}});
    const auto pi = transient(chain, {{0, 1.0}}, t);
    const double expect = lambda / (lambda + mu) * (1.0 - std::exp(-(lambda + mu) * t));
    EXPECT_NEAR(pi[1], expect, 1e-9);
}

TEST(Transient, TimeZeroReturnsInitialDistribution) {
    const Ctmc chain(3, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 0, 1.0}});
    const auto pi = transient(chain, {{1, 0.4}, {2, 0.6}}, 0.0);
    EXPECT_DOUBLE_EQ(pi[0], 0.0);
    EXPECT_NEAR(pi[1], 0.4, 1e-12);
    EXPECT_NEAR(pi[2], 0.6, 1e-12);
}

// The recurrence-based weight stream must reproduce the direct
// e^{-lt} lt^k / k! evaluation (one lgamma per term, the formula the
// uniformisation loops used before) across the whole magnitude range the
// solvers see — from sub-unit lt to the lt ~ 1e5 of long battery horizons.
TEST(PoissonWeights, MatchesLgammaFormulaUpTo1e5) {
    for (const double lt : {0.0, 1e-6, 0.5, 3.0, 40.0, 1e3, 1e5}) {
        PoissonWeights weights(lt);
        double cumulative = 0.0;
        for (std::size_t k = 0;; ++k, weights.advance()) {
            const double log_w =
                -lt + static_cast<double>(k) * std::log(lt > 0 ? lt : 1e-300) -
                std::lgamma(static_cast<double>(k) + 1.0);
            const double reference = std::exp(log_w);
            const double w = weights.current();
            if (reference > 1e-280) {
                // Representable weights: the recurrence accumulates ~k ulps
                // of relative error, invisible at the 1e-12 thresholds.
                EXPECT_NEAR(w, reference, 1e-9 * reference)
                    << "lt=" << lt << " k=" << k;
            } else {
                // Underflowing head: the stream reports (essentially) zero.
                EXPECT_LE(w, 1e-280) << "lt=" << lt << " k=" << k;
            }
            cumulative += w;
            if (cumulative >= 1.0 - 1e-12 && static_cast<double>(k) >= lt) break;
        }
        // The stream sums to 1 like a probability distribution should.
        EXPECT_NEAR(cumulative, 1.0, 1e-9) << "lt=" << lt;
    }
}

TEST(BuildMarkov, EliminatesVanishingStates) {
    const adl::ComposedModel model = adl::compose(vanishing_model(0.25, 1));
    const MarkovModel markov = build_markov(model);
    // Tangible: Start, Left, Right; vanishing: Choice.
    EXPECT_EQ(markov.chain.num_states(), 3u);
    EXPECT_EQ(markov.vanishing_topo_order.size(), 1u);

    const auto pi = steady_state(markov.chain);
    // Mean cycle: 1 (Start) + 0.25 * 1/2 + 0.75 * 1/4  => check Start's
    // probability equals its sojourn fraction.
    const double cycle = 1.0 + 0.25 * 0.5 + 0.75 * 0.25;
    const TangibleId start = markov.tangible_of[model.graph.initial()];
    EXPECT_NEAR(pi[start], 1.0 / cycle, 1e-12);
}

TEST(BuildMarkov, MaximalProgressFiltersLowerPriority) {
    // go_right has priority 5: go_left must never fire.
    const adl::ComposedModel model = adl::compose(vanishing_model(0.25, 5));
    const MarkovModel markov = build_markov(model);
    const auto pi = steady_state(markov.chain);
    const auto freq = action_frequencies(markov, model, pi);
    const Symbol left = model.graph.actions()->find("X.go_left");
    const Symbol right = model.graph.actions()->find("X.go_right");
    ASSERT_NE(left, kNoSymbol);
    ASSERT_NE(right, kNoSymbol);
    EXPECT_DOUBLE_EQ(freq[left], 0.0);
    EXPECT_GT(freq[right], 0.0);
}

TEST(BuildMarkov, ImmediateFrequenciesMatchBranchWeights) {
    const adl::ComposedModel model = adl::compose(vanishing_model(0.25, 1));
    const MarkovModel markov = build_markov(model);
    const auto pi = steady_state(markov.chain);
    const auto freq = action_frequencies(markov, model, pi);
    const double f_step = freq[model.graph.actions()->find("X.step")];
    const double f_left = freq[model.graph.actions()->find("X.go_left")];
    const double f_right = freq[model.graph.actions()->find("X.go_right")];
    EXPECT_NEAR(f_left, 0.25 * f_step, 1e-12);
    EXPECT_NEAR(f_right, 0.75 * f_step, 1e-12);
    // Flow conservation: everything that enters Choice leaves it.
    EXPECT_NEAR(f_left + f_right, f_step, 1e-12);
}

TEST(BuildMarkov, RejectsFunctionalModels) {
    adl::ArchiType archi = vanishing_model(0.5, 1);
    archi.elem_types[0].behaviors[0].alternatives[0].actions[0].rate =
        lts::RateUnspecified{};
    const adl::ComposedModel model = adl::compose(archi);
    EXPECT_THROW((void)build_markov(model), ModelError);
}

TEST(BuildMarkov, RejectsGeneralDistributions) {
    adl::ArchiType archi = vanishing_model(0.5, 1);
    archi.elem_types[0].behaviors[0].alternatives[0].actions[0].rate =
        lts::RateGeneral{Dist::deterministic(1.0)};
    const adl::ComposedModel model = adl::compose(archi);
    EXPECT_THROW((void)build_markov(model), ModelError);
}

TEST(BuildMarkov, DetectsImmediateCycles) {
    const adl::ComposedModel model = adl::compose(livelock_model());
    EXPECT_THROW((void)build_markov(model), NumericalError);
}

TEST(BuildMarkov, DetectsDeadlocks) {
    const adl::ComposedModel model = adl::compose(deadlock_model());
    EXPECT_THROW((void)build_markov(model), ModelError);
    EXPECT_NO_THROW((void)build_markov(model, /*allow_absorbing=*/true));
}

TEST(BuildMarkov, DeadlockMessageNamesTheLocalStates) {
    const adl::ComposedModel model = adl::compose(deadlock_model());
    try {
        (void)build_markov(model);
        FAIL() << "deadlock not reported";
    } catch (const ModelError& e) {
        EXPECT_EQ(std::string(e.what()), "absorbing tangible state found (deadlock): X:B");
    }
}

TEST(BuildMarkov, InitialDistributionPushedThroughVanishing) {
    // Make the initial state vanishing by starting in Choice.
    adl::ArchiType archi = vanishing_model(0.25, 1);
    std::swap(archi.elem_types[0].behaviors[0], archi.elem_types[0].behaviors[1]);
    const adl::ComposedModel model = adl::compose(archi);
    const MarkovModel markov = build_markov(model);
    double total = 0.0;
    for (const auto& [state, p] : markov.initial_distribution) {
        (void)state;
        total += p;
    }
    EXPECT_EQ(markov.initial_distribution.size(), 2u);
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Reward, StateProbabilityOfLocalState) {
    const adl::ComposedModel model = adl::compose(vanishing_model(0.25, 1));
    const MarkovModel markov = build_markov(model);
    const auto pi = steady_state(markov.chain);
    const double p_start =
        state_probability(markov, model, pi, adl::InStatePredicate{"X", "Start"});
    const double cycle = 1.0 + 0.25 * 0.5 + 0.75 * 0.25;
    EXPECT_NEAR(p_start, 1.0 / cycle, 1e-12);
}

TEST(Reward, MeasureCombinesStateAndTransClauses) {
    const adl::ComposedModel model = adl::compose(vanishing_model(0.25, 1));
    const MarkovModel markov = build_markov(model);
    const auto pi = steady_state(markov.chain);
    adl::Measure m;
    m.name = "mixed";
    m.clauses = {adl::state_reward_in("X", "Start", 10.0),
                 adl::trans_reward("X", "step", 3.0)};
    const double value = evaluate_measure(markov, model, pi, m);
    const double cycle = 1.0 + 0.25 * 0.5 + 0.75 * 0.25;
    const double p_start = 1.0 / cycle;
    // freq(step) = pi(Start) * 1.0
    EXPECT_NEAR(value, 10.0 * p_start + 3.0 * p_start, 1e-12);
}

}  // namespace
}  // namespace dpma::ctmc
