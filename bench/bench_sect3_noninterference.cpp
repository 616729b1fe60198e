/// \file bench_sect3_noninterference.cpp
/// Reproduces the functional-phase results of Sect. 3:
///  * the simplified rpc system *fails* the noninterference check and the
///    checker emits the TwoTowers-style distinguishing formula of Sect. 3.1
///    (an rpc is sent and no result can ever be delivered);
///  * the revised rpc system passes;
///  * the streaming system passes (Sect. 3.2).

#include <cstdio>

#include "bench/harness.hpp"
#include "bisim/hml.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"
#include "noninterference/noninterference.hpp"

namespace {

using namespace dpma;

/// The functional phase of a shipped spec: composed as is (the check ignores
/// rates), with the DPM's command attachments as the high actions.
void report(const char* name, const adl::ArchiType& archi, bool expect_pass) {
    const adl::ComposedModel model = adl::compose(archi);
    const std::vector<std::string> high = models::high_action_labels(archi);
    const auto result = noninterference::check_dpm_transparency(model, high, "C");
    std::printf("%-28s states=%6zu  verdict=%-15s expected=%s\n", name,
                model.graph.num_states(),
                result.noninterfering ? "NONINTERFERING" : "INTERFERING",
                expect_pass ? "NONINTERFERING" : "INTERFERING");
    if (!result.noninterfering) {
        std::printf("  distinguishing formula (cf. Sect. 3.1):\n%s\n\n",
                    bisim::to_two_towers(result.formula).c_str());
    }
}

}  // namespace

int main(int argc, char** argv) {
    const dpma::bench::ScopedObservation observation("sect3_noninterference", argc, argv);
    std::printf("== Sect. 3: noninterference analysis of the DPM ==\n\n");

    const adl::ArchiType untimed = models::archi("rpc_untimed.aem");
    const adl::ArchiType streaming = models::archi("streaming_markov.aem");
    report("rpc simplified (2.3)", untimed, /*expect_pass=*/false);
    report("rpc revised (3.1)", models::archi("rpc_revised_markov.aem"),
           /*expect_pass=*/true);
    report("streaming, buffers=3 (3.2)", models::with_capacity(streaming, {"AP", "B"}, 3),
           /*expect_pass=*/true);

    report("streaming, buffers=5 (3.2)", models::with_capacity(streaming, {"AP", "B"}, 5),
           /*expect_pass=*/true);
    report("streaming, buffers=10 (3.2)",
           models::with_capacity(streaming, {"AP", "B"}, 10), /*expect_pass=*/true);

    // Why weak bisimulation and not trace equivalence?  The trace-based
    // noninterference property (SNNI, Focardi–Gorrieri [7]) is blind to the
    // simplified system's defect: the DPM-induced deadlock removes no trace,
    // it only removes *futures*.  The comparison below demonstrates it.
    std::printf("\n== bisimulation-based vs trace-based noninterference ==\n");
    const adl::ComposedModel simplified = adl::compose(untimed);
    const std::vector<std::string> high = models::high_action_labels(untimed);
    const auto bisim_verdict =
        noninterference::check_dpm_transparency(simplified, high, "C");
    const auto trace_verdict =
        noninterference::check_dpm_trace_transparency(simplified, high, "C");
    std::printf(
        "simplified rpc: weak-bisimulation check: %s ; weak-trace check: %s\n"
        "(the deadlock the DPM introduces is a branching-time phenomenon —\n"
        " invisible to traces, caught by the equivalence the paper uses)\n",
        bisim_verdict.noninterfering ? "NONINTERFERING" : "INTERFERING",
        trace_verdict.noninterfering ? "NONINTERFERING" : "INTERFERING");

    return 0;
}
