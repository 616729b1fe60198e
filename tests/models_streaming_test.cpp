// The streaming case study (specs/streaming_markov.aem,
// specs/streaming_general.aem, specs/streaming_measures.msr): transparency
// of the PSP DPM and the Sect. 4.2 trends of its Markovian phase.

#include <gtest/gtest.h>

#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "lts/ops.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"
#include "noninterference/noninterference.hpp"

namespace dpma::models {
namespace {

struct Solved {
    std::vector<adl::Measure> measures;
    std::vector<double> values;

    [[nodiscard]] double at(const char* name) const {
        return values[measure_index(measures, name)];
    }
    [[nodiscard]] double energy_per_frame() const {
        return at("nic_energy") / at("frames_received");
    }
    [[nodiscard]] double loss() const {
        return (at("ap_loss") + at("b_loss")) / at("generated");
    }
    [[nodiscard]] double miss() const { return at("miss") / (at("miss") + at("hits")); }
    [[nodiscard]] double quality() const {
        return at("hits") / (at("miss") + at("hits"));
    }
};

/// The Markovian streaming model at awake period \p period.
adl::ComposedModel markovian(double period, bool dpm) {
    return compose_point("streaming_markov.aem", "send_wakeup", period, dpm);
}

/// The functional phase: the timed spec with both buffers cut to \p capacity.
adl::ArchiType functional(long capacity) {
    return with_capacity(archi("streaming_markov.aem"), {"AP", "B"}, capacity);
}

Solved solve(const adl::ComposedModel& model) {
    const ctmc::MarkovModel markov = ctmc::build_markov(model);
    const auto pi = ctmc::steady_state(markov.chain);
    Solved out{measures("streaming_measures.msr"), {}};
    for (const auto& m : out.measures) {
        out.values.push_back(ctmc::evaluate_measure(markov, model, pi, m));
    }
    return out;
}

TEST(StreamingStructure, MeasureSetHasThePrimitiveMeasuresInOrder) {
    std::vector<std::string> names;
    for (const adl::Measure& m : measures("streaming_measures.msr")) names.push_back(m.name);
    EXPECT_EQ(names, (std::vector<std::string>{"nic_energy", "frames_received", "ap_loss",
                                               "b_loss", "miss", "hits", "generated"}));
}

TEST(StreamingStructure, FunctionalModelIsDeadlockFree) {
    EXPECT_TRUE(lts::deadlock_states(adl::compose(functional(2)).graph).empty());
}

TEST(StreamingStructure, MarkovianModelIsDeadlockFree) {
    EXPECT_TRUE(lts::deadlock_states(markovian(100.0, true).graph).empty());
}

TEST(StreamingStructure, BufferCapacityBoundsStateSpace) {
    const adl::ComposedModel small = adl::compose(functional(1));
    const adl::ComposedModel large = adl::compose(functional(3));
    EXPECT_LT(small.graph.num_states(), large.graph.num_states());
}

TEST(StreamingStructure, PerformanceModelsKeepThePapersBufferCapacity) {
    for (const char* spec : {"streaming_markov.aem", "streaming_general.aem"}) {
        const adl::ArchiType a = archi(spec);
        EXPECT_EQ(a.find_instance("AP")->args, (std::vector<long>{0, 10})) << spec;
        EXPECT_EQ(a.find_instance("B")->args, (std::vector<long>{0, 10})) << spec;
    }
}

TEST(StreamingNoninterference, PspDpmIsTransparent) {
    // Sect. 3.2: the streaming functional model satisfies noninterference.
    for (const long capacity : {2L, 3L}) {
        const adl::ArchiType a = functional(capacity);
        const auto result = noninterference::check_dpm_transparency(
            adl::compose(a), high_action_labels(a), "C");
        EXPECT_TRUE(result.noninterfering) << "capacity " << capacity;
    }
}

TEST(StreamingMarkov, SolvableAndNormalised) {
    const ctmc::MarkovModel markov = ctmc::build_markov(markovian(100.0, true));
    const auto pi = ctmc::steady_state(markov.chain);
    double total = 0.0;
    for (double p : pi) total += p;
    EXPECT_NEAR(total, 1.0, 1e-8);
}

TEST(StreamingMarkov, DpmSavesEnergy) {
    const Solved no_dpm = solve(markovian(100.0, false));
    const Solved with = solve(markovian(100.0, true));
    EXPECT_LT(with.energy_per_frame(), no_dpm.energy_per_frame());
}

TEST(StreamingMarkov, LongerAwakePeriodSavesMoreEnergy) {
    // Sect. 4.2: "the longer the awake period, the longer the sleep time of
    // the NIC", with a beneficial impact on consumption...
    const Solved p50 = solve(markovian(50.0, true));
    const Solved p200 = solve(markovian(200.0, true));
    const Solved p800 = solve(markovian(800.0, true));
    EXPECT_GT(p50.energy_per_frame(), p200.energy_per_frame());
    EXPECT_GT(p200.energy_per_frame(), p800.energy_per_frame());
}

TEST(StreamingMarkov, LongerAwakePeriodDegradesQuality) {
    // ...and a negative effect on service quality.
    const Solved p50 = solve(markovian(50.0, true));
    const Solved p400 = solve(markovian(400.0, true));
    EXPECT_LT(p400.quality(), p50.quality());
    EXPECT_GT(p400.miss(), p50.miss());
}

TEST(StreamingMarkov, QualityAndMissAreComplementary) {
    const Solved s = solve(markovian(100.0, true));
    EXPECT_NEAR(s.quality() + s.miss(), 1.0, 1e-9);
    EXPECT_GE(s.loss(), 0.0);
}

TEST(StreamingMarkov, ModerateAwakePeriodSavesMostEnergyCheaply) {
    // Sect. 4.2: around 50 ms the energy saving is large while the quality
    // impact stays small.
    const Solved no_dpm = solve(markovian(50.0, false));
    const Solved with = solve(markovian(50.0, true));
    const double saving =
        1.0 - with.energy_per_frame() / no_dpm.energy_per_frame();
    EXPECT_GT(saving, 0.35);
    EXPECT_LT(no_dpm.quality() - with.quality(), 0.05);
}

TEST(StreamingMarkov, FlowConservationAtTheNic) {
    // Frames received by the NIC = frames forwarded to B (the NIC never
    // drops), which in turn bounds the client's hit rate.
    const adl::ComposedModel model = markovian(100.0, true);
    const ctmc::MarkovModel markov = ctmc::build_markov(model);
    const auto pi = ctmc::steady_state(markov.chain);
    const auto freq = ctmc::action_frequencies(markov, model, pi);
    const auto& table = *model.graph.actions();
    const double received = freq[table.find("RSC.deliver_packet#NIC.receive_frame")];
    const double forwarded = freq[table.find("NIC.forward_frame#B.receive_frame")];
    EXPECT_NEAR(received, forwarded, 1e-10);
}

TEST(StreamingMarkov, GeneratedSplitsIntoDeliveredAndLost) {
    const adl::ComposedModel model = markovian(200.0, true);
    const ctmc::MarkovModel markov = ctmc::build_markov(model);
    const auto pi = ctmc::steady_state(markov.chain);
    const auto freq = ctmc::action_frequencies(markov, model, pi);
    const auto& table = *model.graph.actions();
    const double generated = freq[table.find("S.generate_frame")];
    const double ap_drop = freq[table.find("AP.drop_frame")];
    const double channel_lost = freq[table.find("RSC.lose_packet")];
    const double b_drop = freq[table.find("B.drop_frame")];
    const double served = freq[table.find("C.get_frame#B.serve_frame")];
    // In steady state every generated frame is eventually dropped, lost or
    // rendered.
    EXPECT_NEAR(generated, ap_drop + channel_lost + b_drop + served, 1e-8);
}

TEST(StreamingGeneral, SpecCarriesGeneralRates) {
    const adl::ComposedModel model = adl::compose(archi("streaming_general.aem"));
    bool has_general = false;
    for (lts::StateId s = 0; s < model.graph.num_states(); ++s) {
        for (const lts::Transition& t : model.graph.out(s)) {
            if (lts::is_general(model.graph.rate(t))) has_general = true;
        }
    }
    EXPECT_TRUE(has_general);
}

}  // namespace
}  // namespace dpma::models
