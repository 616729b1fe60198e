/// \file custom_dpm_policy.cpp
/// Building a *custom* power-management policy against the library's public
/// API — the workflow a downstream user follows to evaluate their own DPM
/// before implementing it in firmware.
///
/// The policy implemented here is a duty-cycling DPM: instead of arming the
/// shutdown timer in every idle period, it arms it only every N-th idle
/// period, bounding how often the server pays the wake-up transient.  We
/// write our DPM element type in Æmilia, swap it into the shipped rpc
/// architecture, run the noninterference check, and sweep N on the
/// Markovian model.

#include <cstdio>

#include "adl/compose.hpp"
#include "adl/measure.hpp"
#include "aemilia/parser.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"
#include "noninterference/noninterference.hpp"

namespace {

using namespace dpma;

/// A DPM that arms its shutdown timer only on every `limit`-th idle
/// notification (the revised server alternates busy/idle notifications
/// strictly, so "idle notices seen" counts completed service cycles).
/// Written in Æmilia like the shipped policies, as a parameterised
/// behaviour, inside a one-instance architecture that only carries it.
constexpr const char* kCountingDpm = R"(
ARCHI_TYPE Counting_DPM_Carrier(void)

ARCHI_ELEM_TYPES

ELEM_TYPE DPM_Type(void)
  BEHAVIOR
    Counting_DPM(integer seen, integer limit; void) = choice {
      cond(seen + 1 < limit) ->
        <receive_idle_notice, _> . Counting_DPM(seen + 1, limit),
      cond(seen + 1 == limit) ->
        <receive_idle_notice, _> . Armed_DPM(limit),
      <receive_busy_notice, _> . Counting_DPM(seen, limit)
    };
    Armed_DPM(integer limit; void) = choice {
      <send_shutdown, exp(0.2)> . Counting_DPM(0, limit),
      <receive_busy_notice, _> . Armed_DPM(limit),
      <receive_idle_notice, _> . Armed_DPM(limit)
    }
  INPUT_INTERACTIONS UNI receive_busy_notice; receive_idle_notice
  OUTPUT_INTERACTIONS UNI send_shutdown

ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    DPM : DPM_Type(0, 1)
END
)";

/// The shipped revised rpc architecture (5 ms shutdown timeout) with our DPM
/// element type in place of the idle-timeout one.
adl::ArchiType with_counting_dpm(int threshold) {
    adl::ArchiType archi = models::archi("rpc_revised_markov.aem");
    const adl::ElemType counting = aemilia::parse_archi_type(kCountingDpm).elem_types[0];
    for (adl::ElemType& type : archi.elem_types) {
        if (type.name == "DPM_Type") type = counting;
    }
    for (adl::Instance& inst : archi.instances) {
        if (inst.name == models::kDpm) inst.args = {0, threshold};
    }
    return archi;
}

}  // namespace

int main() {
    std::printf("== custom DPM policy: shutdown after N consecutive idles ==\n\n");

    // Functional phase first, as the methodology prescribes.  The check
    // ignores rates, so the timed architecture is checked as is.
    {
        const adl::ArchiType archi = with_counting_dpm(3);
        const adl::ComposedModel model = adl::compose(archi);
        const auto verdict = noninterference::check_dpm_transparency(
            model, models::high_action_labels(archi), "C");
        std::printf("noninterference of the counting DPM: %s (%zu states)\n\n",
                    verdict.noninterfering ? "PASS" : "FAIL",
                    model.graph.num_states());
    }

    // Markovian phase: sweep the idle-count threshold.
    std::printf("%12s %12s %12s %12s\n", "threshold N", "throughput", "wait/req",
                "energy/req");
    const auto measures = models::measures("rpc_measures.msr");
    const auto& throughput = measures[models::measure_index(measures, "throughput")];
    const auto& waiting = measures[models::measure_index(measures, "waiting")];
    const auto& energy_rate = measures[models::measure_index(measures, "energy")];
    for (const int threshold : {1, 2, 3, 5, 8}) {
        const adl::ComposedModel model = adl::compose(with_counting_dpm(threshold));
        const ctmc::MarkovModel markov = ctmc::build_markov(model);
        const auto pi = ctmc::steady_state(markov.chain);
        const double tput = ctmc::evaluate_measure(markov, model, pi, throughput);
        const double wait = ctmc::evaluate_measure(markov, model, pi, waiting);
        const double energy = ctmc::evaluate_measure(markov, model, pi, energy_rate);
        std::printf("%12d %12.6f %12.4f %12.4f\n", threshold, tput, wait / tput,
                    energy / tput);
    }
    std::printf(
        "\n(N=1 is the paper's idle-timeout policy; larger N trades energy\n"
        " savings for performance — exactly the tradeoff a predictive\n"
        " wake-up-cost-aware policy tunes)\n");
    return 0;
}
