/// \file streaming_methodology.cpp
/// The full incremental methodology on the streaming case study
/// (Sect. 2.2 / 3.2 / 4.2 / 5.3): noninterference of the PSP power manager,
/// Markovian sweep of the awake period, and a general-distribution
/// simulation at the operating point the paper singles out (100 ms awake
/// period, the Cisco Aironet 350 setting).

#include <cstdio>

#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"
#include "noninterference/noninterference.hpp"
#include "sim/gsmp.hpp"

namespace {

using namespace dpma;

struct Metrics {
    double energy_per_frame;
    double loss;
    double miss;
    double quality;
};

/// The paper's four metrics from the values \p v of \p measures
/// (specs/streaming_measures.msr).
Metrics derive(const std::vector<adl::Measure>& measures, const std::vector<double>& v) {
    const auto at = [&](const char* name) { return v[models::measure_index(measures, name)]; };
    const double frames = at("frames_received");
    const double generated = at("generated");
    const double fetches = at("miss") + at("hits");
    return Metrics{
        frames > 0 ? at("nic_energy") / frames : 0.0,
        generated > 0 ? (at("ap_loss") + at("b_loss")) / generated : 0.0,
        fetches > 0 ? at("miss") / fetches : 0.0,
        fetches > 0 ? at("hits") / fetches : 0.0,
    };
}

void functional_phase() {
    std::printf("== streaming: functional phase (Sect. 3.2) ==\n");
    // The timed spec read as is (the check ignores rates), with both buffers
    // cut to capacity 2 to keep the weak-bisimulation state space small.
    const adl::ArchiType archi = models::with_capacity(
        models::archi("streaming_markov.aem"), {"AP", "B"}, 2);
    const auto result = noninterference::check_dpm_transparency(
        adl::compose(archi), models::high_action_labels(archi), "C");
    std::printf("PSP DPM: %s (hidden %zu states, restricted %zu states)\n\n",
                result.noninterfering ? "NONINTERFERING" : "INTERFERING",
                result.hidden_states, result.restricted_states);
    if (!result.noninterfering) {
        std::printf("%s\n", bisim::to_two_towers(result.formula).c_str());
    }
}

void markovian_phase() {
    std::printf("== streaming: Markovian phase (Sect. 4.2) ==\n");
    const auto measures = models::measures("streaming_measures.msr");
    for (const double period : {50.0, 100.0, 400.0}) {
        for (const bool dpm : {false, true}) {
            if (!dpm && period != 50.0) continue;  // NO-DPM is period independent
            const adl::ComposedModel model =
                models::compose_point("streaming_markov.aem", "send_wakeup", period, dpm);
            const ctmc::MarkovModel markov = ctmc::build_markov(model);
            const std::vector<double> pi = ctmc::steady_state(markov.chain);
            std::vector<double> values;
            for (const auto& m : measures) {
                values.push_back(ctmc::evaluate_measure(markov, model, pi, m));
            }
            const Metrics metrics = derive(measures, values);
            std::printf(
                "awake=%3.0fms %-7s states=%6zu energy/frame=%7.2f loss=%.4f "
                "miss=%.4f quality=%.4f\n",
                period, dpm ? "DPM" : "NO-DPM", markov.chain.num_states(),
                metrics.energy_per_frame, metrics.loss, metrics.miss, metrics.quality);
        }
    }
    std::printf("\n");
}

void general_phase() {
    std::printf("== streaming: general phase (Sect. 5.3) ==\n");
    const auto measures = models::measures("streaming_measures.msr");
    const adl::ArchiType archi = models::archi("streaming_general.aem");
    for (const bool dpm : {false, true}) {
        const adl::ComposedModel model =
            adl::compose(dpm ? archi : models::without_dpm(archi));
        const sim::Simulator simulator(model, measures);
        sim::SimOptions options;
        options.warmup = 5'000.0;
        options.horizon = 100'000.0;
        options.seed = 7;
        const auto estimates = sim::simulate_replications(simulator, options, 10, 0.90);
        std::vector<double> values;
        for (const auto& e : estimates) values.push_back(e.mean);
        const Metrics metrics = derive(measures, values);
        std::printf(
            "awake=100ms %-7s energy/frame=%7.2f loss=%.4f miss=%.4f quality=%.4f\n",
            dpm ? "DPM" : "NO-DPM", metrics.energy_per_frame, metrics.loss,
            metrics.miss, metrics.quality);
    }
}

}  // namespace

int main() {
    functional_phase();
    markovian_phase();
    general_phase();
    return 0;
}
