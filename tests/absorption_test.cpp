#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "adl/compose.hpp"
#include "core/error.hpp"
#include "ctmc/absorption.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/sparse.hpp"
#include "models/variants.hpp"

namespace dpma::ctmc {
namespace {

TEST(HittingTimes, SingleStepExponential) {
    const Ctmc chain(2, {{0, 1, 4.0}});
    const std::vector<char> targets{0, 1};
    const auto h = expected_hitting_times(chain, targets);
    EXPECT_DOUBLE_EQ(h[1], 0.0);
    EXPECT_NEAR(h[0], 0.25, 1e-12);
}

TEST(HittingTimes, PureBirthChainSumsStageMeans) {
    // 0 ->(1) 1 ->(2) 2 ->(4) 3: expected total = 1 + 1/2 + 1/4.
    const Ctmc chain(4, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 4.0}});
    const std::vector<char> targets{0, 0, 0, 1};
    const auto h = expected_hitting_times(chain, targets);
    EXPECT_NEAR(h[0], 1.75, 1e-12);
    EXPECT_NEAR(h[1], 0.75, 1e-12);
    EXPECT_NEAR(h[2], 0.25, 1e-12);
}

TEST(HittingTimes, BacktrackingChainMatchesClosedForm) {
    // Two states before the goal with a retry loop:
    // 0 ->(a) 1, 1 ->(b) goal, 1 ->(c) 0.
    // h1 = 1/(b+c) + c/(b+c) h0 ; h0 = 1/a + h1.
    const double a = 2.0, b = 1.0, c = 3.0;
    const Ctmc chain(3, {{0, 1, a}, {1, 2, b}, {1, 0, c}});
    const std::vector<char> targets{0, 0, 1};
    const auto h = expected_hitting_times(chain, targets);
    const double h0 = ((1.0 / (b + c)) + (c / (b + c)) * (1.0 / a)) / (b / (b + c)) +
                      1.0 / a;
    // Derive directly: h0 = 1/a + h1; h1 = 1/(b+c) + (c/(b+c)) h0
    // => h0 (1 - c/(b+c)) = 1/a + 1/(b+c) - (c/(b+c))/a ... solve numerically:
    const double h1 = (1.0 / (b + c) + (c / (b + c)) * (1.0 / a)) / (b / (b + c));
    EXPECT_NEAR(h[1], h1, 1e-10);
    EXPECT_NEAR(h[0], 1.0 / a + h1, 1e-10);
    (void)h0;
}

TEST(HittingTimes, UnreachableTargetIsInfinite) {
    const Ctmc chain(3, {{0, 1, 1.0}, {1, 0, 1.0}});
    // state 2 is the target but nothing reaches it.
    const std::vector<char> targets{0, 0, 1};
    const auto h = expected_hitting_times(chain, targets);
    EXPECT_TRUE(std::isinf(h[0]));
    EXPECT_TRUE(std::isinf(h[1]));
    EXPECT_DOUBLE_EQ(h[2], 0.0);
}

TEST(HittingTimes, PossibleEscapeMakesExpectationInfinite) {
    // 0 can go to the target or to an absorbing trap: P(hit) < 1 => infinite
    // expected hitting time.
    const Ctmc chain(3, {
        {0, 1, 1.0},  // target
        {0, 2, 1.0},  // trap (absorbing)
    });
    const std::vector<char> targets{0, 1, 0};
    const auto h = expected_hitting_times(chain, targets);
    EXPECT_TRUE(std::isinf(h[0]));
    EXPECT_TRUE(std::isinf(h[2]));
}

TEST(HittingTimes, DenseAndSparseAgree) {
    std::vector<Ctmc::Triplet> rates;
    for (TangibleId i = 0; i + 1 < 12; ++i) {
        rates.push_back({i, i + 1, 1.0 + i * 0.3});
        rates.push_back({i + 1, i, 0.7});
    }
    const Ctmc chain(12, rates);
    std::vector<char> targets(12, 0);
    targets[11] = 1;
    const auto dense = expected_hitting_times(chain, targets, 1500);
    const auto sparse = expected_hitting_times(chain, targets, 0);
    for (std::size_t i = 0; i < 12; ++i) {
        EXPECT_NEAR(dense[i], sparse[i], 1e-12 * dense[i]);
    }
}

TEST(HittingTimes, RejectsEmptyTargetSet) {
    const Ctmc chain(2, {{0, 1, 1.0}});
    EXPECT_THROW((void)expected_hitting_times(chain, {0, 0}), Error);
    EXPECT_THROW((void)expected_hitting_times(chain, {0}), Error);
}

TEST(HittingProbabilities, SplitBetweenTargetAndTrap) {
    const Ctmc chain(3, {
        {0, 1, 3.0},  // target with rate 3
        {0, 2, 1.0},  // trap with rate 1
    });
    const std::vector<char> targets{0, 1, 0};
    const auto p = hitting_probabilities(chain, targets);
    EXPECT_NEAR(p[0], 0.75, 1e-10);
    EXPECT_DOUBLE_EQ(p[1], 1.0);
    EXPECT_DOUBLE_EQ(p[2], 0.0);
}

TEST(HittingProbabilities, CertainWhenNoTrapExists) {
    const Ctmc chain(3, {{0, 1, 1.0}, {1, 0, 5.0}, {1, 2, 1.0}});
    const std::vector<char> targets{0, 0, 1};
    const auto p = hitting_probabilities(chain, targets);
    EXPECT_NEAR(p[0], 1.0, 1e-9);
    EXPECT_NEAR(p[1], 1.0, 1e-9);
}

// Leaving {0, 1} for the target takes ~1e12 visits, which no sweep-based
// solve survives; the direct elimination only ever adds non-negative terms,
// so it meets the closed forms h1 = 2/eps, h0 = h1 + 1 and p = 1 to rounding.
TEST(HittingProbabilities, StiffChainIsSolvedExactly) {
    const double eps = 1e-12;
    const Ctmc chain(3, {{0, 1, 1.0}, {1, 0, 1.0}, {1, 2, eps}});
    const std::vector<char> targets{0, 0, 1};
    const auto h = expected_hitting_times(chain, targets, 0);
    EXPECT_NEAR(h[0], 2.0 / eps + 1.0, 1e-12 * h[0]);
    EXPECT_NEAR(h[1], 2.0 / eps, 1e-12 * h[1]);
    EXPECT_DOUBLE_EQ(h[2], 0.0);
    const auto p = hitting_probabilities(chain, targets);
    for (const double value : p) EXPECT_NEAR(value, 1.0, 1e-12);
}

TEST(HittingTimes, FactorBeyondTheBudgetOrAZeroPivotIsAnError) {
    // A birth-death chain (here its transpose) keeps one upper entry per
    // row: 11 in all.
    std::vector<Ctmc::Triplet> rates;
    for (TangibleId i = 0; i + 1 < 12; ++i) {
        rates.push_back({i, i + 1, 1.0});
        rates.push_back({i + 1, i, 2.0});
    }
    const Ctmc chain(12, rates);
    const Csr a = transpose(chain);
    std::vector<double> leak(12, 0.0);
    leak[11] = 1.0;
    EXPECT_EQ(eliminate(a, leak, std::vector<double>(12, 1.0)).factor_entries, 11u);
    try {
        (void)eliminate(a, leak, std::vector<double>(12, 1.0), /*budget=*/4);
        ADD_FAILURE() << "no NumericalError";
    } catch (const NumericalError& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("12 states"), std::string::npos) << message;
        EXPECT_NE(message.find("more than 4 factor entries"), std::string::npos) << message;
    }
    // Without a leak the chain is closed: no state can leave, no pivot is positive.
    EXPECT_THROW((void)eliminate(a, std::vector<double>(12, 0.0), std::vector<double>(12, 1.0)),
                 NumericalError);
}

TEST(HittingTimes, StreamingTimeToFirstApOverflowShrinksWithAwakePeriod) {
    // "How long until the AP buffer first fills up?" — the longer the NIC
    // sleeps, the sooner the AP saturates.  Exact first-passage analysis on
    // the Markovian model, from the initial state.
    const auto analyse = [](double period) {
        const adl::ComposedModel model =
            models::compose_point("streaming_markov.aem", "send_wakeup", period, true);
        const MarkovModel markov = build_markov(model);
        const auto full_mask =
            adl::state_mask(model, adl::InStatePredicate{"AP", "AP_Buffer(10,"});
        std::vector<char> targets(markov.chain.num_states(), 0);
        for (TangibleId t = 0; t < markov.chain.num_states(); ++t) {
            targets[t] = full_mask[markov.orig_of[t]];
        }
        const auto h = expected_hitting_times(markov.chain, targets, 0);
        // Average over the initial distribution.
        double expected = 0.0;
        for (const auto& [state, prob] : markov.initial_distribution) {
            expected += prob * h[state];
        }
        return expected;
    };
    const double slow = analyse(100.0);
    const double fast = analyse(600.0);
    EXPECT_GT(slow, 0.0);
    EXPECT_LT(fast, slow);
    EXPECT_TRUE(std::isfinite(slow));
}

}  // namespace
}  // namespace dpma::ctmc
