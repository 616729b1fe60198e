#include <gtest/gtest.h>

#include <cmath>

#include "adl/compose.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"
#include "obs/metrics.hpp"
#include "sim/gsmp.hpp"

namespace dpma {
namespace {

/// Replaces exponential rates by general exponential distributions, so the
/// GSMP simulator runs a distribution-for-distribution copy of the CTMC
/// (the cross-validation of Sect. 5.1).
adl::ComposedModel exponentialized(adl::ComposedModel model) {
    model.graph.mutate_rates([](lts::ActionId, lts::Rate& rate) {
        if (const auto* e = std::get_if<lts::RateExp>(&rate)) {
            rate = lts::RateGeneral{Dist::exponential(e->rate)};
        }
    });
    return model;
}

/// The value named \p name in \p values, measured by \p measures.
double value(const std::vector<adl::Measure>& measures, const std::vector<double>& values,
             const char* name) {
    return values[models::measure_index(measures, name)];
}

/// Simulates the exponentialised \p spec and checks every measure of \p msr
/// against its exact CTMC value: |mean − exact| must stay within
/// ci_factor × the 90% half-width plus a relative and an absolute slack.
/// The runs must go through the clocked scheduler, i.e. sample clocks.
void expect_simulator_reproduces_markov(const char* spec, const char* msr,
                                        const sim::SimOptions& options,
                                        int replications, double ci_factor,
                                        double relative, double absolute) {
    const adl::ComposedModel exact_model = adl::compose(models::archi(spec));
    const ctmc::MarkovModel markov = ctmc::build_markov(exact_model);
    const auto pi = ctmc::steady_state(markov.chain);
    const auto measures = models::measures(msr);

    const adl::ComposedModel sim_model = exponentialized(exact_model);
    const sim::Simulator simulator(sim_model, measures);
    obs::Counter& clock_samples = obs::counter("sim.clock.samples");
    const std::uint64_t samples_before = clock_samples.value();
    const auto estimates =
        sim::simulate_replications(simulator, options, replications, 0.90);
    EXPECT_GT(clock_samples.value(), samples_before) << spec;

    for (std::size_t m = 0; m < measures.size(); ++m) {
        const double exact =
            ctmc::evaluate_measure(markov, exact_model, pi, measures[m]);
        EXPECT_NEAR(estimates[m].mean, exact,
                    ci_factor * estimates[m].half_width + relative * std::abs(exact) +
                        absolute)
            << spec << " " << measures[m].name;
    }
}

sim::SimOptions window(double warmup, double horizon, std::uint64_t seed) {
    sim::SimOptions options;
    options.warmup = warmup;
    options.horizon = horizon;
    options.seed = seed;
    return options;
}

TEST(Validation, RpcSimulatorReproducesMarkovMeasures) {
    // Fig. 5 as a test: all three rpc measures, simulated with exponential
    // distributions, must match the exact CTMC values.
    expect_simulator_reproduces_markov("rpc_revised_markov.aem", "rpc_measures.msr",
                                       window(500.0, 15000.0, 1234), 30, 5.0, 0.002,
                                       1e-6);
}

TEST(Validation, StreamingSimulatorReproducesMarkovMeasures) {
    expect_simulator_reproduces_markov("streaming_markov.aem", "streaming_measures.msr",
                                       window(5000.0, 150000.0, 77), 12, 6.0, 0.01,
                                       1e-5);
}

TEST(Validation, DiskSimulatorReproducesMarkovMeasures) {
    // Bursts of ~100 ms between ~20 s quiet periods: a long window, so that
    // each replication spans about 500 burst cycles.
    expect_simulator_reproduces_markov("disk_markov.aem", "disk_measures.msr",
                                       window(20000.0, 1e7, 4242), 20, 5.0, 0.002,
                                       1e-6);
}

// --- regression pins for the paper-shape claims -------------------------

struct RpcDerived {
    double throughput;
    double wait_per_req;
    double energy_per_req;
};

RpcDerived simulate_rpc_general(double timeout, bool dpm) {
    const adl::ComposedModel model =
        models::compose_point("rpc_general.aem", "send_shutdown", timeout, dpm);
    const auto measures = models::measures("rpc_measures.msr");
    const sim::Simulator simulator(model, measures);
    sim::SimOptions options;
    options.warmup = 500.0;
    options.horizon = 15000.0;
    options.seed = 4321 + static_cast<std::uint64_t>(timeout * 10);
    const auto est = sim::simulate_replications(simulator, options, 10, 0.90);
    std::vector<double> means;
    for (const sim::Estimate& e : est) means.push_back(e.mean);
    const double tput = value(measures, means, "throughput");
    return RpcDerived{tput, value(measures, means, "waiting") / tput,
                      value(measures, means, "energy") / tput};
}

TEST(PaperShapes, RpcGeneralIsBimodalAroundTheIdlePeriod) {
    // Sect. 5.2: below the ~11.3 ms idle period, throughput flat and energy
    // rising linearly with the timeout; above, no DPM effect.
    const RpcDerived base = simulate_rpc_general(10.0, false);
    const RpcDerived t4 = simulate_rpc_general(4.0, true);
    const RpcDerived t8 = simulate_rpc_general(8.0, true);
    const RpcDerived t20 = simulate_rpc_general(20.0, true);

    // Flat throughput below the idle period.
    EXPECT_NEAR(t4.throughput, t8.throughput, 0.002);
    // Energy grows roughly linearly with the timeout below the idle period.
    EXPECT_GT(t8.energy_per_req, t4.energy_per_req + 2.0);
    // Above the idle period the DPM has no effect.
    EXPECT_NEAR(t20.throughput, base.throughput, 0.002);
    EXPECT_NEAR(t20.energy_per_req, base.energy_per_req, 0.5);
}

TEST(PaperShapes, RpcGeneralDpmCounterproductiveNearIdlePeriod) {
    // Sect. 5.2 (i): a timeout close to the actual idle period wakes the
    // server right after every shutdown — worse than no DPM in energy AND
    // performance.
    const RpcDerived base = simulate_rpc_general(10.0, false);
    const RpcDerived near = simulate_rpc_general(10.0, true);
    EXPECT_GT(near.energy_per_req, base.energy_per_req);
    EXPECT_GT(near.wait_per_req, base.wait_per_req);
    EXPECT_LT(near.throughput, base.throughput);
}

TEST(PaperShapes, StreamingGeneralTransparentAt100ms) {
    // Sect. 5.3: awake period 100 ms saves >50% NIC energy with no extra
    // frame loss and no extra misses relative to NO-DPM.
    const auto ms = models::measures("streaming_measures.msr");
    const adl::ArchiType general = models::archi("streaming_general.aem");
    const auto run = [&](bool dpm) {
        const adl::ComposedModel model =
            adl::compose(dpm ? general : models::without_dpm(general));
        const sim::Simulator simulator(model, ms);
        sim::SimOptions options;
        options.warmup = 3000.0;
        options.horizon = 80000.0;
        options.seed = 5150;
        const auto est = sim::simulate_replications(simulator, options, 8, 0.90);
        std::vector<double> v;
        for (const auto& e : est) v.push_back(e.mean);
        return v;
    };
    const auto base = run(false);
    const auto with = run(true);
    const auto at = [&](const std::vector<double>& v, const char* name) {
        return value(ms, v, name);
    };

    const double epf_base = at(base, "nic_energy") / at(base, "frames_received");
    const double epf_with = at(with, "nic_energy") / at(with, "frames_received");
    EXPECT_LT(epf_with, 0.5 * epf_base);  // >50% saving

    const double loss_with =
        (at(with, "ap_loss") + at(with, "b_loss")) / at(with, "generated");
    EXPECT_LT(loss_with, 1e-4);  // no loss at 100 ms

    const double miss_base = at(base, "miss") / (at(base, "miss") + at(base, "hits"));
    const double miss_with = at(with, "miss") / (at(with, "miss") + at(with, "hits"));
    EXPECT_LT(miss_with, miss_base + 0.01);  // no extra misses
}

TEST(PaperShapes, StreamingMarkovEnergyFallsAndQualityDegrades) {
    // Fig. 4 monotonicity pins on the exact CTMC solution.
    const auto ms = models::measures("streaming_measures.msr");
    const auto solve = [&](double period) {
        const adl::ComposedModel model =
            models::compose_point("streaming_markov.aem", "send_wakeup", period, true);
        const ctmc::MarkovModel markov = ctmc::build_markov(model);
        const auto pi = ctmc::steady_state(markov.chain);
        std::vector<double> v;
        for (const auto& m : ms) v.push_back(ctmc::evaluate_measure(markov, model, pi, m));
        return v;
    };
    const auto p25 = solve(25.0);
    const auto p100 = solve(100.0);
    const auto p400 = solve(400.0);
    const auto epf = [&](const std::vector<double>& v) {
        return value(ms, v, "nic_energy") / value(ms, v, "frames_received");
    };
    const auto quality = [&](const std::vector<double>& v) {
        return value(ms, v, "hits") / (value(ms, v, "hits") + value(ms, v, "miss"));
    };
    EXPECT_GT(epf(p25), epf(p100));
    EXPECT_GT(epf(p100), epf(p400));
    EXPECT_GT(quality(p25), quality(p100));
    EXPECT_GT(quality(p100), quality(p400));
}

}  // namespace
}  // namespace dpma
