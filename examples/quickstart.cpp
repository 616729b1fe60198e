/// \file quickstart.cpp
/// Tour of the dpma toolchain on the paper's rpc case study, read from the
/// shipped specs (specs/*.aem, embedded in the library):
///
///   1. compose the functional model and run the noninterference check
///      (the simplified system fails with a diagnostic formula, the revised
///      one passes);
///   2. compose the Markovian model, solve it and evaluate the paper's
///      measures with and without DPM;
///   3. simulate the general model (deterministic delays, Gaussian channel)
///      and compare.

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

/// The rpc measures (specs/rpc_measures.msr) and their positions.
struct RpcMeasures {
    std::vector<adl::Measure> all = models::measures("rpc_measures.msr");
    std::size_t throughput = models::measure_index(all, "throughput");
    std::size_t waiting = models::measure_index(all, "waiting");
    std::size_t energy = models::measure_index(all, "energy");
};

void functional_phase() {
    std::printf("== Phase 1: functional (noninterference) ==\n");

    // The functional phase reads the timed spec as is: the check ignores
    // rates.  The high actions are the DPM's command attachments.
    const adl::ArchiType untimed = models::archi("rpc_untimed.aem");
    const auto bad = noninterference::check_dpm_transparency(
        adl::compose(untimed), models::high_action_labels(untimed), "C");
    std::printf("simplified rpc: %s (hidden %zu states, restricted %zu states)\n",
                bad.noninterfering ? "NONINTERFERING" : "INTERFERING",
                bad.hidden_states, bad.restricted_states);
    if (!bad.noninterfering) {
        std::printf("distinguishing formula:\n%s\n",
                    bisim::to_two_towers(bad.formula).c_str());
    }

    const adl::ArchiType revised = models::archi("rpc_revised_markov.aem");
    const auto good = noninterference::check_dpm_transparency(
        adl::compose(revised), models::high_action_labels(revised), "C");
    std::printf("revised rpc:    %s (hidden %zu states, restricted %zu states)\n\n",
                good.noninterfering ? "NONINTERFERING" : "INTERFERING",
                good.hidden_states, good.restricted_states);
}

void markovian_phase() {
    std::printf("== Phase 2: Markovian (exact steady-state analysis) ==\n");
    const RpcMeasures m;
    const adl::ArchiType archi = models::archi("rpc_revised_markov.aem");
    for (const bool dpm : {false, true}) {
        const adl::ComposedModel model =
            adl::compose(dpm ? archi : models::without_dpm(archi));
        const ctmc::MarkovModel markov = ctmc::build_markov(model);
        const std::vector<double> pi = ctmc::steady_state(markov.chain);
        const double throughput =
            ctmc::evaluate_measure(markov, model, pi, m.all[m.throughput]);
        const double waiting = ctmc::evaluate_measure(markov, model, pi, m.all[m.waiting]);
        const double energy = ctmc::evaluate_measure(markov, model, pi, m.all[m.energy]);
        std::printf(
            "%-8s states=%5zu throughput=%.6f req/ms  wait/req=%.4f ms  "
            "energy/req=%.4f\n",
            dpm ? "DPM" : "NO-DPM", markov.chain.num_states(), throughput,
            waiting / throughput, energy / throughput);
    }
    std::printf("\n");
}

void general_phase() {
    std::printf("== Phase 3: general distributions (simulation) ==\n");
    const RpcMeasures m;
    const adl::ArchiType archi = models::archi("rpc_general.aem");
    for (const bool dpm : {false, true}) {
        const adl::ComposedModel model =
            adl::compose(dpm ? archi : models::without_dpm(archi));
        const sim::Simulator simulator(model, m.all);
        sim::SimOptions options;
        options.warmup = 2'000.0;
        options.horizon = 20'000.0;
        options.seed = 42;
        const auto estimates = sim::simulate_replications(simulator, options, 10, 0.90);
        const double throughput = estimates[m.throughput].mean;
        std::printf(
            "%-8s throughput=%.6f±%.6f req/ms  wait/req=%.4f ms  energy/req=%.4f\n",
            dpm ? "DPM" : "NO-DPM", throughput, estimates[m.throughput].half_width,
            estimates[m.waiting].mean / throughput, estimates[m.energy].mean / throughput);
    }
}

}  // namespace

int main() {
    functional_phase();
    markovian_phase();
    general_phase();
    return 0;
}
