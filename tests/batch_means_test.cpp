#include <gtest/gtest.h>

#include <cmath>

#include "adl/compose.hpp"
#include "core/error.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "models/specs.hpp"
#include "sim/batch_means.hpp"

namespace dpma::sim {
namespace {


adl::ArchiType two_phase_exp(double work_rate, double rest_rate) {
    adl::ArchiType archi;
    archi.name = "TwoPhase";
    adl::ElemType t;
    t.name = "T";
    t.behaviors = {
        adl::BehaviorDef{"Working", {},
            {{nullptr, {{"finish", lts::RateExp{work_rate}}}, {"Resting", {}}}}},
        adl::BehaviorDef{"Resting", {},
            {{nullptr, {{"restart", lts::RateExp{rest_rate}}}, {"Working", {}}}}},
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

TEST(BatchMeans, EstimatesMatchAnalyticValues) {
    const adl::ComposedModel model = adl::compose(two_phase_exp(2.0, 1.0));
    const Simulator simulator(model, two_phase_measures());
    BatchOptions options;
    options.warmup = 50.0;
    options.batch_length = 500.0;
    options.num_batches = 30;
    options.seed = 11;
    const auto estimates = batch_means(simulator, options);
    // p(Working) = (1/2)/(3/2) = 1/3; throughput = 2/3.
    EXPECT_NEAR(estimates[0].mean, 1.0 / 3.0, 5 * estimates[0].half_width + 0.01);
    EXPECT_NEAR(estimates[1].mean, 2.0 / 3.0, 5 * estimates[1].half_width + 0.01);
    EXPECT_GT(estimates[0].half_width, 0.0);
}

TEST(BatchMeans, BatchesPartitionTheHorizonExactly) {
    // Deterministic model: every batch must see identical totals, so the
    // half-width collapses to ~0 and the mean is exact.
    adl::ArchiType archi;
    archi.name = "Det";
    adl::ElemType t;
    t.name = "T";
    t.behaviors = {
        adl::BehaviorDef{"Working", {},
            {{nullptr,
              {{"finish", lts::RateGeneral{Dist::deterministic(2.0)}}},
              {"Resting", {}}}}},
        adl::BehaviorDef{"Resting", {},
            {{nullptr,
              {{"restart", lts::RateGeneral{Dist::deterministic(3.0)}}},
              {"Working", {}}}}},
    };
    archi.elem_types = {t};
    archi.instances = {adl::Instance{"X", "T", {}}};
    const adl::ComposedModel model = adl::compose(archi);
    const Simulator simulator(model, two_phase_measures());
    BatchOptions options;
    options.warmup = 0.0;
    options.batch_length = 50.0;  // 10 full work/rest cycles per batch
    options.num_batches = 8;
    options.seed = 1;
    const auto estimates = batch_means(simulator, options);
    EXPECT_NEAR(estimates[0].mean, 0.4, 1e-9);
    EXPECT_NEAR(estimates[0].half_width, 0.0, 1e-9);
    EXPECT_NEAR(estimates[1].mean, 0.2, 1e-9);
}

TEST(BatchMeans, AgreesWithReplicationsOnTheRpcModel) {
    const adl::ComposedModel model =
        adl::compose(models::archi("rpc_general.aem"));
    const Simulator simulator(model, models::measures("rpc_measures.msr"));

    BatchOptions batch_options;
    batch_options.warmup = 500.0;
    batch_options.batch_length = 2000.0;
    batch_options.num_batches = 20;
    batch_options.seed = 9;
    const auto batched = batch_means(simulator, batch_options);

    SimOptions rep_options;
    rep_options.warmup = 500.0;
    rep_options.horizon = 4000.0;
    rep_options.seed = 10;
    const auto replicated = simulate_replications(simulator, rep_options, 10, 0.90);

    for (std::size_t m = 0; m < replicated.size(); ++m) {
        EXPECT_NEAR(batched[m].mean, replicated[m].mean,
                    5 * (batched[m].half_width + replicated[m].half_width) + 1e-4);
    }
}

TEST(BatchMeans, ReportsLowAutocorrelationForLongBatches) {
    const adl::ComposedModel model = adl::compose(two_phase_exp(2.0, 1.0));
    const Simulator simulator(model, two_phase_measures());
    BatchOptions options;
    options.warmup = 20.0;
    options.batch_length = 800.0;  // >> the model's relaxation time
    options.num_batches = 25;
    options.seed = 3;
    const auto estimates = batch_means(simulator, options);
    EXPECT_LT(std::abs(estimates[0].lag1_autocorrelation), 0.45);
}

TEST(BatchMeans, RejectsDegenerateConfigurations) {
    const adl::ComposedModel model = adl::compose(two_phase_exp(2.0, 1.0));
    const Simulator simulator(model, two_phase_measures());
    BatchOptions options;
    options.batch_length = 0.0;
    EXPECT_THROW((void)batch_means(simulator, options), Error);
    options.batch_length = 10.0;
    options.num_batches = 1;
    EXPECT_THROW((void)batch_means(simulator, options), Error);
}

}  // namespace
}  // namespace dpma::sim
