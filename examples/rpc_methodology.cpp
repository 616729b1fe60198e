/// \file rpc_methodology.cpp
/// The complete incremental methodology of Fig. 1 on the rpc case study,
/// step by step, as a worked example of the library's public API:
///
///   1. functional model, noninterference check fails -> read the
///      diagnostic -> revise the client (timeout) and the DPM (idle-only
///      shutdowns) -> check passes;
///   2. Markovian model: exact steady-state measures over the shutdown
///      timeout sweep, plus a transient look at how fast the system reaches
///      its long-run regime;
///   3. general model: validate against the Markovian one (exponential
///      distributions plugged into the simulator), then simulate the
///      realistic deterministic/Gaussian timings.

#include <cstdio>

#include "bisim/hml.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "lts/ops.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"
#include "noninterference/noninterference.hpp"
#include "sim/gsmp.hpp"

namespace {

using namespace dpma;

constexpr const char* kRevised = "rpc_revised_markov.aem";

/// The rpc measures (specs/rpc_measures.msr) and the positions read here.
struct RpcMeasures {
    std::vector<adl::Measure> all = models::measures("rpc_measures.msr");
    std::size_t throughput = models::measure_index(all, "throughput");
    std::size_t waiting = models::measure_index(all, "waiting");
    std::size_t energy = models::measure_index(all, "energy");
};

void step1_functional() {
    std::printf("--- Step 1: functional phase ---------------------------------\n");

    // 1a. The naive system: blocking client, trivial DPM, shutdown anywhere.
    const adl::ArchiType untimed = models::archi("rpc_untimed.aem");
    const adl::ComposedModel naive = adl::compose(untimed);
    std::printf("simplified system: %zu states, %zu deadlock state(s)\n",
                naive.graph.num_states(),
                lts::deadlock_states(naive.graph).size());

    const auto verdict = noninterference::check_dpm_transparency(
        naive, models::high_action_labels(untimed), "C");
    std::printf("noninterference: %s\n",
                verdict.noninterfering ? "PASS" : "FAIL (as in Sect. 3.1)");
    if (!verdict.noninterfering) {
        std::printf("the checker explains what the client can observe:\n%s\n",
                    bisim::to_two_towers(verdict.formula).c_str());
        std::printf(
            "reading: after the client sends an rpc there is a reachable state\n"
            "from which no result can ever be delivered — the DPM shut the\n"
            "server down mid-service and the blocking client waits forever.\n");
    }

    // 1b. The revision suggested by the diagnostic.  The functional phase
    // reads the timed spec as is: the check ignores rates.
    const adl::ArchiType revised_archi = models::archi(kRevised);
    const adl::ComposedModel revised = adl::compose(revised_archi);
    const auto verdict2 = noninterference::check_dpm_transparency(
        revised, models::high_action_labels(revised_archi), "C");
    std::printf(
        "\nrevised system (client timeout + idle-only shutdowns): %zu states, "
        "noninterference: %s\n\n",
        revised.graph.num_states(), verdict2.noninterfering ? "PASS" : "FAIL");
}

void step2_markovian() {
    std::printf("--- Step 2: Markovian phase -----------------------------------\n");
    const RpcMeasures m;
    std::printf("%10s %12s %12s %12s\n", "timeout", "throughput", "wait/req",
                "energy/req");
    for (const double timeout : {0.0, 5.0, 10.0, 25.0}) {
        const adl::ComposedModel model =
            models::compose_point(kRevised, "send_shutdown", timeout, true);
        const ctmc::MarkovModel markov = ctmc::build_markov(model);
        const auto pi = ctmc::steady_state(markov.chain);
        const double tput =
            ctmc::evaluate_measure(markov, model, pi, m.all[m.throughput]);
        const double wait = ctmc::evaluate_measure(markov, model, pi, m.all[m.waiting]);
        const double energy = ctmc::evaluate_measure(markov, model, pi, m.all[m.energy]);
        std::printf("%10.1f %12.6f %12.4f %12.4f\n", timeout, tput, wait / tput,
                    energy / tput);
    }

    // Transient: how quickly does P(server sleeping) reach its long-run
    // value after a cold start?  (uniformisation, Sect. "further use")
    const adl::ComposedModel model = adl::compose(models::archi(kRevised));
    const ctmc::MarkovModel markov = ctmc::build_markov(model);
    const auto pi_inf = ctmc::steady_state(markov.chain);
    const double sleep_inf = ctmc::state_probability(
        markov, model, pi_inf, adl::InStatePredicate{"S", "Sleeping_Server"});
    std::printf("\ntransient convergence of P(sleeping) (steady state %.4f):\n",
                sleep_inf);
    for (const double t : {1.0, 5.0, 20.0, 100.0}) {
        const auto pi_t = ctmc::transient(markov.chain, markov.initial_distribution, t);
        const double sleep_t = ctmc::state_probability(
            markov, model, pi_t, adl::InStatePredicate{"S", "Sleeping_Server"});
        std::printf("  t=%6.1f ms   P(sleeping)=%.4f\n", t, sleep_t);
    }
    std::printf("\n");
}

void step3_general() {
    std::printf("--- Step 3: general phase -------------------------------------\n");
    const RpcMeasures m;
    // 3a. Validation (Sect. 5.1): simulate the Markov model's distributions.
    {
        const adl::ComposedModel markov_model = adl::compose(models::archi(kRevised));
        adl::ComposedModel model = markov_model;
        model.graph.mutate_rates([](lts::ActionId, lts::Rate& rate) {
            if (const auto* e = std::get_if<lts::RateExp>(&rate)) {
                rate = lts::RateGeneral{Dist::exponential(e->rate)};
            }
        });
        const ctmc::MarkovModel markov = ctmc::build_markov(markov_model);
        const auto pi = ctmc::steady_state(markov.chain);
        const double exact =
            ctmc::evaluate_measure(markov, markov_model, pi, m.all[m.energy]);

        const sim::Simulator simulator(model, m.all);
        sim::SimOptions options;
        options.warmup = 500.0;
        options.horizon = 20000.0;
        options.seed = 13;
        const auto est = sim::simulate_replications(simulator, options, 30, 0.90);
        std::printf(
            "validation: energy rate exact=%.5f vs simulated(exp)=%.5f ± %.5f\n",
            exact, est[m.energy].mean, est[m.energy].half_width);
    }

    // 3b. The realistic model: deterministic timings, Gaussian channel.
    for (const double timeout : {5.0, 11.3, 20.0}) {
        const adl::ComposedModel model =
            models::compose_point("rpc_general.aem", "send_shutdown", timeout, true);
        const sim::Simulator simulator(model, m.all);
        sim::SimOptions options;
        options.warmup = 500.0;
        options.horizon = 20000.0;
        options.seed = 21;
        const auto est = sim::simulate_replications(simulator, options, 20, 0.90);
        const double tput = est[m.throughput].mean;
        std::printf(
            "general t=%5.1f: throughput=%.6f  wait/req=%.3f ms  energy/req=%.3f\n",
            timeout, tput, est[m.waiting].mean / tput, est[m.energy].mean / tput);
    }
    std::printf(
        "(note the bimodal behaviour: t=11.3 sits in the counterproductive\n"
        " region near the actual idle period; t=20 has no effect at all)\n");
}

}  // namespace

int main() {
    step1_functional();
    step2_markovian();
    step3_general();
    return 0;
}
