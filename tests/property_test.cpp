#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "adl/compose.hpp"
#include "bisim/equivalence.hpp"
#include "ctmc/absorption.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "lts/ops.hpp"
#include "exp/cache.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"
#include "noninterference/noninterference.hpp"

namespace dpma {
namespace {

// ---------------------------------------------------------------- solvers

class RandomChainSolvers : public ::testing::TestWithParam<int> {};

ctmc::Ctmc random_irreducible_chain(int seed, std::size_t n) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
    std::uniform_real_distribution<double> rate(0.1, 5.0);
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    std::vector<ctmc::Ctmc::Triplet> rates;
    // A ring guarantees irreducibility; extra random edges add structure.
    for (std::size_t i = 0; i < n; ++i) {
        rates.push_back({static_cast<ctmc::TangibleId>(i),
                         static_cast<ctmc::TangibleId>((i + 1) % n), rate(rng)});
    }
    for (std::size_t e = 0; e < 3 * n; ++e) {
        const std::size_t from = pick(rng);
        const std::size_t to = pick(rng);
        if (from != to) {
            rates.push_back({static_cast<ctmc::TangibleId>(from),
                             static_cast<ctmc::TangibleId>(to), rate(rng)});
        }
    }
    return ctmc::Ctmc(n, rates);
}

TEST_P(RandomChainSolvers, SparseAndDenseGthAgree) {
    const ctmc::Ctmc chain = random_irreducible_chain(GetParam(), 20 + GetParam() % 17);
    ASSERT_TRUE(ctmc::is_irreducible(chain));
    const auto dense = ctmc::steady_state_gth(chain);
    const auto sparse = ctmc::steady_state(chain);
    for (std::size_t i = 0; i < dense.size(); ++i) {
        EXPECT_NEAR(sparse[i], dense[i], 1e-12 * dense[i]) << "state " << i;
    }
}

TEST_P(RandomChainSolvers, SteadyStateSatisfiesBalanceEquations) {
    const ctmc::Ctmc chain = random_irreducible_chain(GetParam(), 25);
    const auto pi = ctmc::steady_state(chain);
    double total = 0.0;
    std::vector<double> inflow(chain.num_states(), 0.0);
    for (ctmc::TangibleId s = 0; s < chain.num_states(); ++s) {
        total += pi[s];
        for (const ctmc::RateEntry& e : chain.row(s)) {
            inflow[e.target] += pi[s] * e.rate;
        }
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
    for (ctmc::TangibleId s = 0; s < chain.num_states(); ++s) {
        EXPECT_NEAR(inflow[s], pi[s] * chain.exit_rate(s), 1e-9) << "state " << s;
    }
}

TEST_P(RandomChainSolvers, SparseHittingTimesAgreeWithDense) {
    const ctmc::Ctmc chain = random_irreducible_chain(GetParam(), 20 + GetParam() % 17);
    std::vector<char> targets(chain.num_states(), 0);
    targets[static_cast<std::size_t>(GetParam()) % chain.num_states()] = 1;
    const auto dense = ctmc::expected_hitting_times(chain, targets, chain.num_states());
    const auto sparse = ctmc::expected_hitting_times(chain, targets, 0);
    for (std::size_t i = 0; i < dense.size(); ++i) {
        EXPECT_NEAR(sparse[i], dense[i], 1e-11 * dense[i]) << "state " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChainSolvers, ::testing::Range(0, 12));

// ------------------------------------------------------------ weak bisim

class RandomLtsProperties : public ::testing::TestWithParam<int> {};

lts::Lts random_lts(int seed, int n) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 104729 + 7);
    std::uniform_int_distribution<int> pick_state(0, n - 1);
    std::uniform_int_distribution<int> pick_action(0, 3);
    const char* names[] = {"tau", "a", "b", "c"};
    lts::LtsBuilder m;
    for (int i = 0; i < n; ++i) m.add_state();
    for (int e = 0; e < 3 * n; ++e) {
        m.add_transition(static_cast<lts::StateId>(pick_state(rng)),
                         m.action(names[pick_action(rng)]),
                         static_cast<lts::StateId>(pick_state(rng)));
    }
    m.set_initial(0);
    return std::move(m).build();
}

TEST_P(RandomLtsProperties, TauSccCollapsePreservesWeakBisimilarity) {
    const lts::Lts m = random_lts(GetParam(), 8 + GetParam() % 9);
    const lts::TauCollapseResult collapsed = lts::collapse_tau_sccs(m);
    EXPECT_TRUE(bisim::weakly_bisimilar(m, collapsed.collapsed).equivalent)
        << "seed " << GetParam();
}

TEST_P(RandomLtsProperties, SaturationPreservesWeakBisimilarity) {
    // Adding weakly derivable transitions must not change the weak
    // equivalence class.
    const lts::Lts m = random_lts(GetParam(), 7 + GetParam() % 6);
    const lts::Lts saturated = lts::saturate(m);
    EXPECT_TRUE(bisim::weakly_bisimilar(m, saturated).equivalent)
        << "seed " << GetParam();
}

TEST_P(RandomLtsProperties, HidingEverythingYieldsTheTrivialProcess) {
    lts::Lts m = random_lts(GetParam(), 6 + GetParam() % 7);
    lts::ActionSet all;
    for (Symbol a = 0; a < m.actions()->size(); ++a) all.insert(a);
    const lts::Lts hidden = lts::hide(m, all);
    lts::LtsBuilder trivial_builder;
    trivial_builder.set_initial(trivial_builder.add_state());
    const lts::Lts trivial = std::move(trivial_builder).build();
    EXPECT_TRUE(bisim::weakly_bisimilar(hidden, trivial).equivalent)
        << "seed " << GetParam();
}

TEST_P(RandomLtsProperties, WeakBisimilarityIsReflexiveUnderRenumbering) {
    const lts::Lts m = random_lts(GetParam(), 10);
    const lts::Lts pruned = lts::reachable_part(m);
    // The reachable part has the same behaviour from the initial state.
    EXPECT_TRUE(bisim::weakly_bisimilar(m, pruned).equivalent);
    EXPECT_TRUE(bisim::strongly_bisimilar(m, pruned).equivalent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLtsProperties, ::testing::Range(0, 15));

// ----------------------------------------------------- model-level sweeps

/// Solves \p model and evaluates the measures named \p names of \p msr.
std::vector<double> solve(const adl::ComposedModel& model, const char* msr,
                          std::initializer_list<const char*> names) {
    const ctmc::MarkovModel markov = ctmc::build_markov(model);
    const auto pi = ctmc::steady_state(markov.chain);
    const auto ms = models::measures(msr);
    std::vector<double> values;
    for (const char* name : names) {
        values.push_back(ctmc::evaluate_measure(markov, model, pi,
                                                ms[models::measure_index(ms, name)]));
    }
    return values;
}

adl::ComposedModel rpc_markov(double timeout, bool dpm) {
    return models::compose_point("rpc_revised_markov.aem", "send_shutdown", timeout, dpm);
}

/// The streaming spec with buffer capacities \p ap and \p b.
adl::ArchiType streaming(long ap, long b) {
    return models::with_capacity(
        models::with_capacity(models::archi("streaming_markov.aem"), {"AP"}, ap), {"B"}, b);
}

class RpcTimeoutSweep : public ::testing::TestWithParam<double> {};

TEST_P(RpcTimeoutSweep, DpmSavesEnergyAndNeverGainsThroughput) {
    const double timeout = GetParam();
    const auto per_request = [](const adl::ComposedModel& model) {
        const auto v = solve(model, "rpc_measures.msr", {"throughput", "energy"});
        return std::make_pair(v[0], v[1] / v[0]);
    };
    const auto [tput_dpm, epr_dpm] = per_request(rpc_markov(timeout, true));
    const auto [tput_base, epr_base] = per_request(rpc_markov(timeout, false));
    EXPECT_LT(epr_dpm, epr_base) << "timeout " << timeout;
    EXPECT_LT(tput_dpm, tput_base) << "timeout " << timeout;
}

TEST_P(RpcTimeoutSweep, ChainIsIrreducibleAfterTransientRemoval) {
    const ctmc::MarkovModel markov = ctmc::build_markov(rpc_markov(GetParam(), true));
    const auto bottoms = ctmc::bottom_sccs(markov.chain);
    EXPECT_EQ(bottoms.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Timeouts, RpcTimeoutSweep,
                         ::testing::Values(0.5, 1.0, 3.0, 7.0, 12.0, 18.0, 25.0));

class StreamingCapacitySweep : public ::testing::TestWithParam<long> {};

TEST_P(StreamingCapacitySweep, NoninterferenceHoldsAtEveryCapacity) {
    const adl::ArchiType archi = streaming(GetParam(), GetParam());
    const auto verdict = noninterference::check_dpm_transparency(
        adl::compose(archi), models::high_action_labels(archi), "C");
    EXPECT_TRUE(verdict.noninterfering) << "capacity " << GetParam();
}

TEST_P(StreamingCapacitySweep, ModelsAreDeadlockFreeAtEveryCapacity) {
    const adl::ComposedModel timed = adl::compose(streaming(GetParam(), GetParam()));
    EXPECT_TRUE(lts::deadlock_states(timed.graph).empty());
}

TEST_P(StreamingCapacitySweep, LargerClientBufferNeverHurtsQuality) {
    const auto quality = [](long b) {
        const adl::ComposedModel model = exp::with_delay(
            adl::compose(streaming(10, b)), models::kDpm, "send_wakeup", 200.0);
        const auto v = solve(model, "streaming_measures.msr", {"hits", "miss"});
        return v[0] / (v[0] + v[1]);
    };
    EXPECT_LE(quality(GetParam()), quality(GetParam() + 2) + 1e-9)
        << "capacity " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Capacities, StreamingCapacitySweep,
                         ::testing::Values(1L, 2L, 3L, 4L));

// --------------------------------------------- composed-model invariants

TEST(ComposedInvariants, VanishingEliminationConservesProbabilityFlow) {
    // For every tangible state, the outgoing rates of the eliminated chain
    // must sum to the state's total timed rate in the raw graph (probability
    // is only redistributed, never created or destroyed).
    const adl::ComposedModel model = adl::compose(models::archi("rpc_revised_markov.aem"));
    const ctmc::MarkovModel markov = ctmc::build_markov(model);
    for (ctmc::TangibleId t = 0; t < markov.chain.num_states(); ++t) {
        const lts::StateId s = markov.orig_of[t];
        double raw = 0.0;
        for (const lts::Transition& tr : model.graph.out(s)) {
            if (const auto* e = std::get_if<lts::RateExp>(&model.graph.rate(tr))) raw += e->rate;
        }
        double eliminated = markov.chain.exit_rate(t);
        // Self-loops created by elimination (tangible -> vanishing -> same
        // tangible) are dropped by the Ctmc; account for them separately.
        double self_loop = raw;
        for (const ctmc::RateEntry& e : markov.chain.row(t)) self_loop -= e.rate;
        EXPECT_GE(self_loop, -1e-9);
        EXPECT_LE(eliminated, raw + 1e-9);
    }
}

TEST(ComposedInvariants, EveryGlobalActionInvolvesDeclaredInstances) {
    const adl::ComposedModel model = adl::compose(models::archi("streaming_markov.aem"));
    const auto& table = *model.graph.actions();
    for (Symbol a = 1; a < table.size(); ++a) {  // 0 is tau
        const std::string& label = table.name(a);
        if (label.find('.') == std::string::npos) continue;  // bare action names
        const std::string owner = label.substr(0, label.find('.'));
        bool known = false;
        for (const std::string& inst : model.instance_names) {
            if (inst == owner) known = true;
        }
        EXPECT_TRUE(known) << label;
    }
}

}  // namespace
}  // namespace dpma
