#include <gtest/gtest.h>

#include <cstdlib>

#include "bench/harness.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"

namespace dpma::bench {
namespace {

TEST(EffortScale, DefaultsToOneAndParsesTheEnvironment) {
    unsetenv("DPMA_BENCH_SCALE");
    EXPECT_DOUBLE_EQ(effort_scale(), 1.0);
    setenv("DPMA_BENCH_SCALE", "0.25", 1);
    EXPECT_DOUBLE_EQ(effort_scale(), 0.25);
    setenv("DPMA_BENCH_SCALE", "garbage", 1);
    EXPECT_DOUBLE_EQ(effort_scale(), 1.0);
    setenv("DPMA_BENCH_SCALE", "-3", 1);
    EXPECT_DOUBLE_EQ(effort_scale(), 1.0);
    unsetenv("DPMA_BENCH_SCALE");
}

TEST(Harness, RpcMarkovPointMatchesDirectSolve) {
    const RpcPoint point = rpc_markov_point(5.0, true);

    const adl::ComposedModel model = adl::compose(models::archi("rpc_revised_markov.aem"));
    const ctmc::MarkovModel markov = ctmc::build_markov(model);
    const auto pi = ctmc::steady_state(markov.chain);
    const auto measures = models::measures("rpc_measures.msr");
    const double tput = ctmc::evaluate_measure(
        markov, model, pi, measures[models::measure_index(measures, "throughput")]);
    const double energy = ctmc::evaluate_measure(
        markov, model, pi, measures[models::measure_index(measures, "energy")]);
    EXPECT_DOUBLE_EQ(point.throughput, tput);
    EXPECT_DOUBLE_EQ(point.energy_per_request, energy / tput);
    EXPECT_EQ(point.throughput_hw, 0.0);  // analytic: no CI
}

TEST(Harness, StreamingMarkovPointDerivesTheFourMetrics) {
    const StreamingPoint point = streaming_markov_point(100.0, true);
    EXPECT_GT(point.energy_per_frame, 0.0);
    EXPECT_GE(point.loss, 0.0);
    EXPECT_LE(point.loss, 1.0);
    EXPECT_NEAR(point.miss + point.quality, 1.0, 1e-9);
}

TEST(Harness, GeneralPointsCarryConfidenceIntervals) {
    unsetenv("DPMA_BENCH_SCALE");
    const RpcPoint point = rpc_general_point(5.0, true, 5, 3000.0, 1);
    EXPECT_GT(point.throughput, 0.0);
    // The rpc general model is mostly deterministic: on short horizons all
    // replications can coincide exactly, making the half-width legitimately
    // zero.  The exponentialised validation point below is the stochastic
    // counterpart with a strictly positive CI.
    EXPECT_GE(point.throughput_hw, 0.0);
    const RpcPoint noisy = rpc_general_exp_point(5.0, true, 5, 3000.0, 1);
    EXPECT_GT(noisy.energy_rate_hw, 0.0);
}

TEST(Harness, ExponentializedValidationPointTracksTheAnalyticValue) {
    unsetenv("DPMA_BENCH_SCALE");
    const RpcPoint sim = rpc_general_exp_point(5.0, true, 10, 8000.0, 2);
    const RpcPoint exact = rpc_markov_point(5.0, true);
    EXPECT_NEAR(sim.energy_rate, exact.energy_rate,
                6 * sim.energy_rate_hw + 0.02 * exact.energy_rate);
}

TEST(Harness, TablePrintsWithoutThrowing) {
    Table table("demo", {"x", "a_rather_long_column_name"});
    table.add_row({1.0, 2.0});
    table.add_row({3.5, -0.25});
    EXPECT_NO_THROW(table.print());
}

}  // namespace
}  // namespace dpma::bench
