// The disk-drive case study (specs/disk_markov.aem, specs/disk_measures.msr):
// transparency of its idle-timeout DPM, flow conservation, the power /
// response-time tradeoff and a general-phase variant.

#include <gtest/gtest.h>

#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "lts/ops.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"
#include "noninterference/noninterference.hpp"
#include "sim/gsmp.hpp"

namespace dpma::models {
namespace {

/// The disk measures plus the mean queue occupancy ("Q_occupancy").
std::vector<adl::Measure> disk_measures() {
    std::vector<adl::Measure> ms = measures("disk_measures.msr");
    ms.push_back(mean_occupancy("Q", "Queue", 8));
    return ms;
}

struct Solved {
    std::vector<adl::Measure> measures = disk_measures();
    std::vector<double> values;

    [[nodiscard]] double at(const char* name) const {
        return values[measure_index(measures, name)];
    }
    [[nodiscard]] double power() const { return at("disk_power"); }
    [[nodiscard]] double completed() const { return at("completed"); }
    /// Little's law: mean response time = mean queue length / throughput.
    [[nodiscard]] double response_time() const {
        return at("Q_occupancy") / at("completed");
    }
};

adl::ComposedModel markovian(double timeout, bool dpm) {
    return compose_point("disk_markov.aem", "send_shutdown", timeout, dpm);
}

Solved solve(const adl::ComposedModel& model) {
    const ctmc::MarkovModel markov = ctmc::build_markov(model);
    const auto pi = ctmc::steady_state(markov.chain);
    Solved out;
    for (const adl::Measure& m : out.measures) {
        out.values.push_back(ctmc::evaluate_measure(markov, model, pi, m));
    }
    return out;
}

/// The general phase: the ON/OFF burst durations stay exponential, every
/// other delay becomes deterministic with the same mean.
adl::ComposedModel general(adl::ComposedModel model) {
    const std::vector<char> end =
        adl::action_mask(model, adl::EnabledPredicate{"SRC", "end_burst"});
    const std::vector<char> begin =
        adl::action_mask(model, adl::EnabledPredicate{"SRC", "begin_burst"});
    model.graph.mutate_rates([&](lts::ActionId a, lts::Rate& rate) {
        if (const auto* e = std::get_if<lts::RateExp>(&rate)) {
            rate = lts::RateGeneral{end[a] || begin[a] ? Dist::exponential(e->rate)
                                                       : Dist::deterministic(1.0 / e->rate)};
        }
    });
    return model;
}

TEST(DiskStructure, ModelsAreDeadlockFree) {
    const adl::ArchiType functional = with_capacity(archi("disk_markov.aem"), {"Q"}, 3);
    EXPECT_TRUE(lts::deadlock_states(adl::compose(functional).graph).empty());
    EXPECT_TRUE(lts::deadlock_states(markovian(500.0, true).graph).empty());
    EXPECT_TRUE(lts::deadlock_states(markovian(0.0, true).graph).empty());
}

TEST(DiskNoninterference, IdleTimeoutDpmIsTransparentToTheSink) {
    // The functional phase: the timed spec with a queue of 3.
    const adl::ArchiType functional = with_capacity(archi("disk_markov.aem"), {"Q"}, 3);
    const auto verdict = noninterference::check_dpm_transparency(
        adl::compose(functional), high_action_labels(functional), "SINK");
    EXPECT_TRUE(verdict.noninterfering);
}

TEST(DiskMarkov, SolvableAndConservative) {
    const Solved s = solve(markovian(500.0, true));
    // Flow conservation: everything issued is eventually served or dropped.
    EXPECT_NEAR(s.at("issued"), s.completed() + s.at("dropped"), 1e-9);
    EXPECT_GT(s.completed(), 0.0);
}

TEST(DiskMarkov, DpmSavesPowerOnBurstyWorkloads) {
    EXPECT_LT(solve(markovian(500.0, true)).power(), solve(markovian(500.0, false)).power());
}

TEST(DiskMarkov, SleepingCostsResponseTime) {
    EXPECT_GT(solve(markovian(200.0, true)).response_time(),
              solve(markovian(200.0, false)).response_time());
}

TEST(DiskMarkov, ShorterTimeoutSleepsMore) {
    const auto sleep_fraction = [](double timeout) {
        const adl::ComposedModel model = markovian(timeout, true);
        const ctmc::MarkovModel markov = ctmc::build_markov(model);
        const auto pi = ctmc::steady_state(markov.chain);
        return ctmc::state_probability(markov, model, pi,
                                       adl::InStatePredicate{"D", "Sleeping_Disk"});
    };
    EXPECT_GT(sleep_fraction(100.0), sleep_fraction(1000.0));
}

TEST(DiskMarkov, QueueLengthMeasureIsWithinCapacity) {
    const Solved s = solve(markovian(500.0, true));
    EXPECT_EQ(archi("disk_markov.aem").find_instance("Q")->args.back(), 8);
    EXPECT_GE(s.at("Q_occupancy"), 0.0);
    EXPECT_LE(s.at("Q_occupancy"), 8.0);
}

TEST(DiskGeneral, SimulatesAndAgreesWithMarkovOnExponentialCopy) {
    // Validation in the Sect. 5.1 style for the third case study.
    const adl::ComposedModel exact_model = markovian(500.0, true);
    adl::ComposedModel sim_model = exact_model;
    sim_model.graph.mutate_rates([](lts::ActionId, lts::Rate& rate) {
        if (const auto* e = std::get_if<lts::RateExp>(&rate)) {
            rate = lts::RateGeneral{Dist::exponential(e->rate)};
        }
    });
    const Solved exact = solve(exact_model);
    const sim::Simulator simulator(sim_model, exact.measures);
    sim::SimOptions options;
    options.warmup = 20000.0;
    options.horizon = 400000.0;
    options.seed = 31;
    const auto estimates = sim::simulate_replications(simulator, options, 10, 0.90);

    const std::size_t power = measure_index(exact.measures, "disk_power");
    const std::size_t completed = measure_index(exact.measures, "completed");
    EXPECT_NEAR(estimates[power].mean, exact.power(),
                6 * estimates[power].half_width + 0.02 * exact.power());
    EXPECT_NEAR(estimates[completed].mean, exact.completed(),
                6 * estimates[completed].half_width + 0.02 * exact.completed());
}

TEST(DiskGeneral, DeterministicTimersShowThresholdBehaviour) {
    // With deterministic timers, a timeout longer than the burst gaps but
    // shorter than the quiet period sleeps once per quiet period only.
    const std::vector<adl::Measure> ms = disk_measures();
    const adl::ComposedModel model = general(markovian(500.0, true));
    const sim::Simulator simulator(model, ms);
    sim::SimOptions options;
    options.warmup = 10000.0;
    options.horizon = 200000.0;
    options.seed = 17;
    const sim::RunResult run = simulator.run(options);
    EXPECT_GT(run.values[measure_index(ms, "completed")], 0.0);
    // Strictly below always-active.
    EXPECT_LT(run.values[measure_index(ms, "disk_power")], 2.5);
}

}  // namespace
}  // namespace dpma::models
