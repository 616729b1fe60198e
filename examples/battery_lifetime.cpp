/// \file battery_lifetime.cpp
/// The question behind the paper's title — what does the DPM buy a
/// *battery-powered* appliance? — answered with the battery subsystem
/// (src/battery): the same rpc trajectories replayed into three battery
/// models of increasing realism.
///
///  * ideal   — linear charge counter; lifetime ~ capacity / power.  This is
///              the fluid approximation the old version of this example
///              hard-coded by hand.
///  * peukert — rate-capacity effect only: heavy load drains the battery
///              superlinearly, rest periods buy nothing extra.
///  * kibam   — the kinetic two-well model: heavy load also *strands* bound
///              charge, and the idle periods the DPM creates let it flow
///              back.  Sleep is now worth more than its average-power
///              savings — which is exactly the effect that makes a battery
///              the right judge of a DPM policy.
///
/// For each battery x {NO-DPM, DPM} the program reports the analytic bounds
/// from the Markovian model (fluid at steady-state power, refined along the
/// transient power profile) and the simulated lifetime on the *general*
/// model (replications with CIs), plus the requests served per charge.
///
/// Censoring: the old example bounded every simulation with
/// `4 * capacity / NO-DPM power`, silently truncating first-passage times
/// when the DPM run outlived the bound — censored replications were folded
/// into the mean, biasing it low.  Here the horizon scales with each
/// configuration's *own* fluid estimate and simulate_lifetime() counts
/// censored replications separately; this program prints them and fails
/// loudly if any survive.

#include <cstdio>

#include "battery/coupling.hpp"
#include "ctmc/ctmc.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"
#include "sim/gsmp.hpp"

namespace {

using namespace dpma;

/// The rpc measures (specs/rpc_measures.msr) and the positions read here.
struct RpcMeasures {
    std::vector<adl::Measure> all = models::measures("rpc_measures.msr");
    std::size_t throughput = models::measure_index(all, "throughput");
    std::size_t energy = models::measure_index(all, "energy");
};

struct Row {
    battery::CtmcLifetime bounds;      ///< analytic, Markovian model
    battery::LifetimeEstimate replay;  ///< simulated, general model
};

Row analyse(const battery::BatteryParams& params, double shutdown_timeout, bool dpm) {
    // Analytic bounds from the Markovian phase.
    const adl::ComposedModel markov_model = models::compose_point(
        "rpc_revised_markov.aem", "send_shutdown", shutdown_timeout, dpm);
    const ctmc::MarkovModel markov = ctmc::build_markov(markov_model);
    const RpcMeasures measures;
    Row row;
    row.bounds = battery::ctmc_lifetime(markov, markov_model,
                                        measures.all[measures.energy], params);

    // Trajectory replay on the general model.  The censoring horizon scales
    // with this configuration's own fluid estimate — not with the NO-DPM
    // power — so a long-lived DPM run is not silently truncated.
    const adl::ComposedModel general_model =
        models::compose_point("rpc_general.aem", "send_shutdown", shutdown_timeout, dpm);
    const sim::Simulator simulator(general_model, measures.all);
    battery::ReplayOptions replay;
    replay.horizon = 8.0 * row.bounds.fluid;
    replay.seed = 99;
    replay.replications = 10;
    replay.confidence = 0.90;
    row.replay =
        battery::simulate_lifetime(simulator, measures.energy, params, replay);
    return row;
}

}  // namespace

int main() {
    const double capacity = 20000.0;
    // Well below the general model's actual idle period (~11.3 ms), where the
    // DPM genuinely sleeps.  A timeout *near* the idle period lands in the
    // paper's counterproductive region (Fig. 3) and the DPM buys almost
    // nothing — battery or not.
    const double shutdown_timeout = 2.0;
    std::printf("== battery lifetime of the rpc server (capacity %.0f units, "
                "timeout %.0f ms) ==\n\n",
                capacity, shutdown_timeout);

    battery::BatteryParams params;
    params.capacity = capacity;
    params.kibam_c = 0.5;
    params.kibam_rate = 1e-3;

    int censored_total = 0;
    double ratios[3] = {0.0, 0.0, 0.0};
    int kind_index = 0;
    for (const auto kind :
         {battery::BatteryParams::Kind::Ideal, battery::BatteryParams::Kind::Peukert,
          battery::BatteryParams::Kind::Kibam}) {
        params.kind = kind;
        std::printf("--- %s battery ---\n", params.kind_name());
        std::printf("%-8s %11s %13s %23s %10s %9s\n", "config", "fluid [s]",
                    "refined [s]", "simulated [s] (90%CI)", "requests", "censored");
        const std::size_t throughput = RpcMeasures{}.throughput;
        double lifetimes[2] = {0.0, 0.0};
        for (const bool dpm : {false, true}) {
            const Row row = analyse(params, shutdown_timeout, dpm);
            lifetimes[dpm ? 1 : 0] = row.replay.mean;
            censored_total += row.replay.censored;
            std::printf("%-8s %11.2f %13.2f %12.2f ± %-8.2f %10.0f %9d\n",
                        dpm ? "DPM" : "NO-DPM", row.bounds.fluid / 1000.0,
                        row.bounds.refined / 1000.0, row.replay.mean / 1000.0,
                        row.replay.half_width / 1000.0,
                        row.replay.mean_totals[throughput], row.replay.censored);
        }
        ratios[kind_index++] = lifetimes[1] / lifetimes[0];
        std::printf("DPM/NO-DPM lifetime ratio: %.3f\n\n",
                    lifetimes[1] / lifetimes[0]);
    }

    if (censored_total > 0) {
        std::fprintf(stderr,
                     "ERROR: %d replication(s) were censored at the horizon — the "
                     "reported means exclude them; raise the horizon factor\n",
                     censored_total);
        return 1;
    }

    std::printf(
        "(three things to read off: the *ideal* ratio %.3f IS the average-power\n"
        " ratio of the simulated trajectories — all a mean-power analysis can\n"
        " promise; under *peukert* both lifetimes shrink but the ratio barely\n"
        " moves (%.3f); under *kibam* the NO-DPM server strands bound charge\n"
        " while the DPM's sleep periods recover it, so the ratio %.3f exceeds\n"
        " the ideal one — DPM sleep is worth more than its average-power\n"
        " savings to a real battery.  The fluid/refined columns are the\n"
        " analytic bounds from the Markovian substitute of the same system,\n"
        " solved without simulating.)\n",
        ratios[0], ratios[1], ratios[2]);
    return ratios[2] > ratios[0] ? 0 : 1;
}
