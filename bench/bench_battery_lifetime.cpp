/// \file bench_battery_lifetime.cpp
/// The battery's verdict on DPM (Sect. 2's motivation, asked end-to-end):
/// sweep battery capacity x {NO-DPM, DPM} for the rpc server under the
/// kinetic battery model and compare the *simulated* DPM/NO-DPM lifetime
/// ratio against the ideal-battery (fluid) prediction — the steady-state
/// power ratio, which is what a mean-power analysis would promise.
///
/// Under KiBaM the DPM's sleep periods let bound charge flow back into the
/// available well while the NO-DPM server strands it, so the lifetime gap
/// must come out *wider* than the power gap.  Each capacity row prints its
/// own verdict and the program exits 1 (verdict=NOT-AMPLIFIED) when any row
/// fails — the battery_lifetime_smoke ctest greps for exactly that.
///
/// DPMA_BENCH_SCALE scales the replication count (0.2 in CI smoke runs).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "battery/coupling.hpp"
#include "battery/lifetime.hpp"
#include "bench/harness.hpp"
#include "ctmc/solve.hpp"
#include "exp/runner.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"

int main(int argc, char** argv) {
    using namespace dpma;
    using namespace dpma::bench;
    ScopedObservation observation("battery_lifetime", argc, argv);

    const double scale = effort_scale();
    // Floor of 4: the amplification check is statistical, and 2 replications
    // per point leave the smallest capacity at the mercy of the seed.
    const int reps = std::max(4, static_cast<int>(std::lround(10.0 * scale)));

    std::printf("== battery lifetime: rpc server on a kinetic battery ==\n");
    std::printf("(%d replications per point, kibam c=0.5 k'=1e-3)\n", reps);

    battery::StudyOptions options;
    options.system = "rpc";
    options.battery.kind = battery::BatteryParams::Kind::Kibam;
    options.battery.kibam_c = 0.5;
    options.battery.kibam_rate = 1e-3;
    options.capacities = {2000.0, 5000.0, 10000.0};
    options.replications = reps;
    options.base_seed = 42;

    const auto started = std::chrono::steady_clock::now();
    const exp::ResultSet results = battery::run_lifetime_study(options);
    observation.record(results);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - started;

    // The ideal-battery prediction of the lifetime gap: lifetimes scale as
    // capacity / E[power], so the ratio is the steady-power ratio — exactly
    // what the fluid column of an *ideal* study would report, recovered here
    // from the Markovian models directly (capacity-independent).
    const auto measures = models::measures("rpc_measures.msr");
    const adl::Measure& energy = measures[models::measure_index(measures, "energy")];
    const auto steady_power = [&energy](bool dpm) {
        const adl::ComposedModel model =
            models::compose_point("rpc_revised_markov.aem", "send_shutdown", 10.0, dpm);
        const ctmc::MarkovModel markov = ctmc::build_markov(model);
        const std::vector<double> power = battery::tangible_power(markov, model, energy);
        const std::vector<double> pi = ctmc::steady_state(markov.chain);
        double mean = 0.0;
        for (std::size_t s = 0; s < pi.size(); ++s) mean += pi[s] * power[s];
        return mean;
    };
    const double ideal_ratio = steady_power(false) / steady_power(true);

    Table table("rpc / kibam: simulated lifetime gap vs the fluid prediction",
                {"capacity", "life_nodpm", "life_dpm", "sim_ratio", "ideal_ratio",
                 "censored"});
    bool amplified = true;
    for (std::size_t i = 0; i < options.capacities.size(); ++i) {
        const std::size_t nodpm = 2 * i;      // axis order: capacity, then dpm
        const std::size_t dpm = 2 * i + 1;
        const double life_nodpm = results.value(nodpm, "lifetime");
        const double life_dpm = results.value(dpm, "lifetime");
        const double censored =
            results.value(nodpm, "censored") + results.value(dpm, "censored");
        const double sim_ratio = life_dpm / life_nodpm;
        table.add_row({options.capacities[i], life_nodpm, life_dpm, sim_ratio,
                       ideal_ratio, censored});
        if (!(sim_ratio > ideal_ratio) || censored > 0.0) {
            amplified = false;
        }
    }
    table.print();

    std::printf("\nengine: %zu points x %d reps, jobs=%zu, %.3fs\n", results.size(),
                reps, exp::default_jobs(), elapsed.count());
    std::printf("verdict=%s expected=AMPLIFIED\n",
                amplified ? "AMPLIFIED" : "NOT-AMPLIFIED");
    return amplified ? 0 : 1;
}
