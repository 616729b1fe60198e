#include <gtest/gtest.h>

#include "adl/compose.hpp"
#include "aemilia/parser.hpp"
#include "core/error.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"
#include "noninterference/noninterference.hpp"

namespace dpma::models {
namespace {

TEST(Specs, UnknownNameThrows) {
    EXPECT_THROW((void)spec("no_such_spec.aem"), Error);
    EXPECT_THROW((void)spec("rpc_untimed"), Error);
}

TEST(Specs, RpcUntimedParses) {
    const adl::ArchiType a = archi("rpc_untimed.aem");
    EXPECT_EQ(a.name, "RPC_DPM_Untimed");
    EXPECT_EQ(a.instances.size(), 5u);
}

TEST(Specs, RpcUntimedFailsNoninterferenceLikeThePaper) {
    const adl::ArchiType a = archi("rpc_untimed.aem");
    const auto verdict = noninterference::check_dpm_transparency(
        adl::compose(a), high_action_labels(a), "C");
    EXPECT_FALSE(verdict.noninterfering);
}

TEST(Specs, RpcRevisedMarkovParses) {
    const adl::ArchiType a = archi("rpc_revised_markov.aem");
    EXPECT_EQ(a.name, "RPC_DPM_Markov");
    EXPECT_EQ(a.attachments.size(), 7u);
}

TEST(Specs, StreamingMarkovParses) {
    const adl::ArchiType a = archi("streaming_markov.aem");
    EXPECT_EQ(a.name, "Streaming_DPM_Markov");
    EXPECT_EQ(a.instances.size(), 7u);
    EXPECT_EQ(a.find_instance("AP")->args, (std::vector<long>{0, 10}));
}

TEST(Specs, PhasesOfOneArchitectureShareTheStateSpace) {
    // The Markovian and general specs of a case study differ only in their
    // rate annotations: the composed graphs have the same shape.
    for (const auto& [markov, general] :
         {std::pair{"rpc_revised_markov.aem", "rpc_general.aem"},
          std::pair{"streaming_markov.aem", "streaming_general.aem"}}) {
        const adl::ComposedModel a = adl::compose(archi(markov));
        const adl::ComposedModel b = adl::compose(archi(general));
        EXPECT_EQ(a.graph.num_states(), b.graph.num_states()) << general;
        EXPECT_EQ(a.graph.num_transitions(), b.graph.num_transitions()) << general;
    }
}

TEST(Specs, GeneralSpecsCarryGeneralRates) {
    for (const char* name : {"rpc_general.aem", "streaming_general.aem"}) {
        const adl::ComposedModel model = adl::compose(archi(name));
        bool has_general = false;
        for (lts::StateId st = 0; st < model.graph.num_states(); ++st) {
            for (const lts::Transition& t : model.graph.out(st)) {
                if (lts::is_general(model.graph.rate(t))) has_general = true;
            }
        }
        EXPECT_TRUE(has_general) << name;
    }
}

TEST(Specs, MeasureSpecsParse) {
    const auto rpc = measures("rpc_measures.msr");
    ASSERT_EQ(rpc.size(), 3u);
    EXPECT_EQ(rpc[0].name, "throughput");
    EXPECT_EQ(rpc[1].name, "waiting");
    EXPECT_EQ(rpc[2].name, "energy");
    EXPECT_EQ(rpc[2].clauses.size(), 4u);
    EXPECT_EQ(measures("disk_measures.msr").size(), 4u);
    EXPECT_EQ(measures("streaming_measures.msr").size(), 7u);
}

}  // namespace
}  // namespace dpma::models
