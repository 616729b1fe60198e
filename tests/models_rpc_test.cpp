// The rpc case study (specs/rpc_untimed.aem, specs/rpc_revised_markov.aem,
// specs/rpc_general.aem): its functional verdicts and the Sect. 4.1 trends
// of its Markovian phase.

#include <gtest/gtest.h>

#include "bisim/hml.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "lts/ops.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"
#include "noninterference/noninterference.hpp"

namespace dpma::models {
namespace {

struct Solved {
    double throughput;
    double waiting;
    double energy;
};

/// The Markovian rpc model at shutdown timeout \p timeout, with or without
/// the DPM's commands.
adl::ComposedModel markovian(double timeout, bool dpm) {
    return compose_point("rpc_revised_markov.aem", "send_shutdown", timeout, dpm);
}

Solved solve(const adl::ComposedModel& model) {
    const ctmc::MarkovModel markov = ctmc::build_markov(model);
    const auto pi = ctmc::steady_state(markov.chain);
    const auto ms = measures("rpc_measures.msr");
    const auto value = [&](const char* name) {
        return ctmc::evaluate_measure(markov, model, pi, ms[measure_index(ms, name)]);
    };
    return Solved{value("throughput"), value("waiting"), value("energy")};
}

noninterference::Result check(const adl::ArchiType& archi) {
    return noninterference::check_dpm_transparency(adl::compose(archi),
                                                   high_action_labels(archi), "C");
}

TEST(RpcStructure, SimplifiedFunctionalModelHasDeadlocks) {
    // The defect of Sect. 3.1: the DPM can kill an in-service request and
    // the blocking client waits forever.  The deadlock is visible already
    // in the raw state graph.
    const adl::ComposedModel model = adl::compose(archi("rpc_untimed.aem"));
    EXPECT_FALSE(lts::deadlock_states(model.graph).empty());
}

TEST(RpcStructure, RevisedFunctionalModelIsDeadlockFree) {
    const adl::ComposedModel model = adl::compose(archi("rpc_revised_markov.aem"));
    EXPECT_TRUE(lts::deadlock_states(model.graph).empty());
}

TEST(RpcStructure, HighActionsAreTheDpmCommand) {
    EXPECT_EQ(high_action_labels(archi("rpc_revised_markov.aem")),
              std::vector<std::string>{"DPM.send_shutdown#S.receive_shutdown"});
    EXPECT_TRUE(high_action_labels(without_dpm(archi("rpc_revised_markov.aem"))).empty());
}

TEST(RpcNoninterference, SimplifiedSystemFails) {
    const auto result = check(archi("rpc_untimed.aem"));
    EXPECT_FALSE(result.noninterfering);
    ASSERT_NE(result.formula, nullptr);
    // The paper's diagnostic: a weak send after which no result can ever be
    // received.  Check the formula mentions both synchronisations.
    const std::string text = bisim::to_two_towers(result.formula);
    EXPECT_NE(text.find("C.send_rpc_packet#RCS.get_packet"), std::string::npos);
    EXPECT_NE(text.find("RSC.deliver_packet#C.receive_result_packet"),
              std::string::npos);
    EXPECT_NE(text.find("NOT("), std::string::npos);
}

TEST(RpcNoninterference, RevisedSystemPasses) {
    // The functional phase is the timed spec composed as is.
    const auto result = check(archi("rpc_revised_markov.aem"));
    EXPECT_TRUE(result.noninterfering);
    EXPECT_EQ(result.hidden_states, 546u);
}

TEST(RpcNoninterference, RevisedWithTrivialDpmStillPasses) {
    // The trivial DPM can only fire when the server listens (idle states),
    // so the revised server remains transparent even under it.
    EXPECT_TRUE(check(with_trivial_dpm(archi("rpc_revised_markov.aem"))).noninterfering);
}

TEST(RpcMarkov, ChainIsModestAndSolvable) {
    const ctmc::MarkovModel markov = ctmc::build_markov(markovian(5.0, true));
    EXPECT_GT(markov.chain.num_states(), 10u);
    EXPECT_LT(markov.chain.num_states(), 500u);
    const auto pi = ctmc::steady_state(markov.chain);
    double total = 0.0;
    for (double p : pi) total += p;
    EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(RpcMarkov, ThroughputMatchesLittleLawBallpark) {
    // Without DPM the request cycle is roughly send + 2 propagation hops +
    // service + processing ~ 11.5 ms, so throughput ~ 0.087/ms.
    const Solved s = solve(markovian(10.0, false));
    EXPECT_GT(s.throughput, 0.07);
    EXPECT_LT(s.throughput, 0.10);
}

TEST(RpcMarkov, DpmNeverCounterproductiveInEnergy) {
    // Sect. 4.1: "the DPM is never counterproductive in terms of energy".
    const Solved no_dpm = solve(markovian(10.0, false));
    for (const double timeout : {0.0, 2.0, 5.0, 10.0, 25.0}) {
        const Solved with = solve(markovian(timeout, true));
        EXPECT_LE(with.energy / with.throughput,
                  no_dpm.energy / no_dpm.throughput + 1e-9)
            << "timeout " << timeout;
    }
}

TEST(RpcMarkov, EnergySavingsArePaidInPerformance) {
    // Sect. 4.1: energy savings always cost throughput and waiting time.
    const Solved no_dpm = solve(markovian(10.0, false));
    const Solved with = solve(markovian(2.0, true));
    EXPECT_LT(with.throughput, no_dpm.throughput);
    EXPECT_GT(with.waiting / with.throughput, no_dpm.waiting / no_dpm.throughput);
}

TEST(RpcMarkov, ShorterTimeoutMeansLargerImpact) {
    // Monotone trend over the sweep: energy per request decreases as the
    // shutdown timeout shrinks, throughput decreases as well.
    const Solved t2 = solve(markovian(2.0, true));
    const Solved t10 = solve(markovian(10.0, true));
    const Solved t25 = solve(markovian(25.0, true));
    EXPECT_LT(t2.energy / t2.throughput, t10.energy / t10.throughput);
    EXPECT_LT(t10.energy / t10.throughput, t25.energy / t25.throughput);
    EXPECT_LT(t2.throughput, t10.throughput);
    EXPECT_LT(t10.throughput, t25.throughput);
}

TEST(RpcMarkov, ImmediateShutdownIsTheExtremeCase) {
    // timeout = 0 (shutdown as soon as idle) gives the lowest energy and
    // the highest waiting time of the sweep.
    const Solved t0 = solve(markovian(0.0, true));
    const Solved t5 = solve(markovian(5.0, true));
    EXPECT_LT(t0.energy / t0.throughput, t5.energy / t5.throughput);
    EXPECT_GT(t0.waiting / t0.throughput, t5.waiting / t5.throughput);
}

TEST(RpcMarkov, ServerStateProbabilitiesSumToOne) {
    const adl::ComposedModel model = markovian(5.0, true);
    const ctmc::MarkovModel markov = ctmc::build_markov(model);
    const auto pi = ctmc::steady_state(markov.chain);
    double total = 0.0;
    for (const char* state :
         {"Idle_Server", "Busy_Server", "Responding_Server", "Sleeping_Server",
          "Awaking_Server"}) {
        total += ctmc::state_probability(markov, model, pi,
                                         adl::InStatePredicate{"S", state});
    }
    EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(RpcMarkov, SleepFractionGrowsWithShorterTimeout) {
    const auto sleep_fraction = [](double timeout) {
        const adl::ComposedModel model = markovian(timeout, true);
        const ctmc::MarkovModel markov = ctmc::build_markov(model);
        const auto pi = ctmc::steady_state(markov.chain);
        return ctmc::state_probability(markov, model, pi,
                                       adl::InStatePredicate{"S", "Sleeping_Server"});
    };
    EXPECT_GT(sleep_fraction(2.0), sleep_fraction(20.0));
    EXPECT_GT(sleep_fraction(2.0), 0.0);
}

TEST(RpcGeneral, SpecCarriesGeneralRatesOnly) {
    const adl::ComposedModel model = adl::compose(archi("rpc_general.aem"));
    bool has_general = false;
    for (lts::StateId s = 0; s < model.graph.num_states(); ++s) {
        for (const lts::Transition& t : model.graph.out(s)) {
            if (lts::is_general(model.graph.rate(t))) has_general = true;
            EXPECT_FALSE(lts::is_exponential(model.graph.rate(t)));
            EXPECT_FALSE(std::holds_alternative<lts::RateUnspecified>(model.graph.rate(t)));
        }
    }
    EXPECT_TRUE(has_general);
}

}  // namespace
}  // namespace dpma::models
