// Variants of the shipped specs (models/variants.hpp): the Sect. 2.1
// shutdown-while-busy server under the trivial DPM, the zero awake period,
// asymmetric buffers and retimed rpc parameters.

#include <gtest/gtest.h>

#include "bisim/hml.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "exp/cache.hpp"
#include "lts/ops.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"
#include "noninterference/noninterference.hpp"
#include "sim/gsmp.hpp"

namespace dpma::models {
namespace {

double solve_measure(const adl::ComposedModel& model, const char* msr, const char* name) {
    const ctmc::MarkovModel markov = ctmc::build_markov(model);
    const auto pi = ctmc::steady_state(markov.chain);
    const auto ms = measures(msr);
    return ctmc::evaluate_measure(markov, model, pi, ms[measure_index(ms, name)]);
}

double rpc_throughput(const adl::ComposedModel& model) {
    return solve_measure(model, "rpc_measures.msr", "throughput");
}

/// The Sect. 2.1 variant: the revised server also accepts shutdowns while
/// busy/responding, exercised through the trivial (free-running) DPM at
/// shutdown period \p period.
adl::ComposedModel busy_sensitive(double period, bool shutdown_when_busy = true) {
    return exp::with_delay(
        adl::compose(with_trivial_dpm(archi("rpc_revised_markov.aem"), shutdown_when_busy)),
        kDpm, "send_shutdown", period);
}

TEST(ShutdownWhenBusy, ArchitectureIsDeadlockFree) {
    // The revised client's resend timeout keeps the system live even though
    // in-service requests can be killed.
    EXPECT_TRUE(lts::deadlock_states(busy_sensitive(5.0).graph).empty());
}

TEST(ShutdownWhenBusy, ServerCanReachSleepFromBusy) {
    const adl::ComposedModel model = busy_sensitive(1.0);
    // The busy -> sleeping transition must exist in the composed graph.
    const Symbol shutdown =
        model.graph.actions()->find("DPM.send_shutdown#S.receive_shutdown");
    ASSERT_NE(shutdown, kNoSymbol);
    const std::size_t server = model.instance_index("S");
    bool killed_in_service = false;
    for (lts::StateId s = 0; s < model.graph.num_states(); ++s) {
        if (model.local_label(s, server).rfind("Busy_Server", 0) != 0) continue;
        for (const lts::Transition& t : model.graph.out(s)) {
            if (t.action == shutdown) killed_in_service = true;
        }
    }
    EXPECT_TRUE(killed_in_service);
}

TEST(ShutdownWhenBusy, CostsThroughput) {
    EXPECT_LT(rpc_throughput(busy_sensitive(1.0)),
              rpc_throughput(busy_sensitive(1.0, /*shutdown_when_busy=*/false)));
}

TEST(ShutdownWhenBusy, StaysObservableDespiteTheClientTimeout) {
    // The client's resend timeout removes the *deadlock* of Sect. 2.3, but
    // killing an in-service request is still observable: the number of
    // results that can reach the client after a send/timeout/resend pattern
    // differs between the hidden and the restricted view (the generated
    // formula nests <<receive_result>> multiplicities under
    // <<expire_timeout>>).  This substantiates the paper's second revision
    // step — "the DPM cannot shut down the server while it is busy" — as
    // *necessary* for transparency, not merely prudent.
    const adl::ArchiType a = with_trivial_dpm(archi("rpc_revised_markov.aem"), true);
    const auto verdict =
        noninterference::check_dpm_transparency(adl::compose(a), high_action_labels(a), "C");
    EXPECT_FALSE(verdict.noninterfering);
    ASSERT_NE(verdict.formula, nullptr);
    // The witness involves the client's timeout capability.
    EXPECT_NE(bisim::to_compact(verdict.formula).find("C.expire_timeout"),
              std::string::npos);
}

TEST(TrivialDpm, MarkovIdenticalToIdleTimeoutByMemorylessness) {
    // The trivial DPM's free-running exponential timer can only synchronise
    // while the server is idle, so it generates the same CTMC as the
    // idle-timeout DPM (Ablation 1 of bench_ablation_policies).
    const adl::ArchiType rpc = archi("rpc_revised_markov.aem");
    for (const char* measure : {"throughput", "waiting", "energy"}) {
        EXPECT_NEAR(solve_measure(adl::compose(rpc), "rpc_measures.msr", measure),
                    solve_measure(adl::compose(with_trivial_dpm(rpc)), "rpc_measures.msr",
                                  measure),
                    1e-12)
            << measure;
    }
}

TEST(NoDpm, DropsOnlyTheDpmCommandAttachments) {
    const adl::ArchiType streaming = archi("streaming_markov.aem");
    const adl::ArchiType stripped = without_dpm(streaming);
    EXPECT_EQ(stripped.attachments.size(), streaming.attachments.size() - 2);
    for (const adl::Attachment& a : stripped.attachments) {
        EXPECT_NE(a.from_instance, kDpm);
    }
    EXPECT_EQ(high_action_labels(streaming),
              (std::vector<std::string>{"DPM.send_shutdown#NIC.receive_shutdown",
                                        "DPM.send_wakeup#NIC.receive_wakeup"}));
}

TEST(StreamingVariants, ZeroAwakePeriodBehavesLikeHighDutyCycle) {
    // awake period 0: the DPM wakes the NIC immediately after shutdown; the
    // wake-up/check transients dominate and energy per frame *exceeds* the
    // always-on baseline (paper Fig. 4 leftmost point).
    const auto epf = [](double period, bool dpm) {
        const adl::ComposedModel model =
            compose_point("streaming_markov.aem", "send_wakeup", period, dpm);
        return solve_measure(model, "streaming_measures.msr", "nic_energy") /
               solve_measure(model, "streaming_measures.msr", "frames_received");
    };
    EXPECT_GT(epf(0.0, true), epf(100.0, false));
}

TEST(StreamingVariants, AsymmetricBufferCapacitiesCompose) {
    const adl::ArchiType a = with_capacity(
        with_capacity(archi("streaming_markov.aem"), {"AP"}, 3), {"B"}, 7);
    EXPECT_EQ(a.find_instance("B")->args, (std::vector<long>{0, 7}));
    const adl::ComposedModel model = adl::compose(a);
    EXPECT_TRUE(lts::deadlock_states(model.graph).empty());
    const ctmc::MarkovModel markov = ctmc::build_markov(model);
    const auto pi = ctmc::steady_state(markov.chain);
    double total = 0.0;
    for (double p : pi) total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_THROW((void)with_capacity(a, {"S"}, 3), ModelError);
}

TEST(StreamingVariants, GeneralPhaseSimulatesWithMixedDistributions) {
    // The general streaming model mixes deterministic timers with the
    // Gaussian channel; a short smoke simulation must produce sane values.
    const auto ms = measures("streaming_measures.msr");
    const adl::ComposedModel model = adl::compose(archi("streaming_general.aem"));
    const sim::Simulator simulator(model, ms);
    sim::SimOptions options;
    options.warmup = 2000.0;
    options.horizon = 20000.0;
    options.seed = 5;
    const sim::RunResult run = simulator.run(options);
    EXPECT_NEAR(run.values[measure_index(ms, "generated")], 1.0 / 67.0, 0.002);
    EXPECT_GE(run.values[measure_index(ms, "miss")], 0.0);
    EXPECT_GT(run.values[measure_index(ms, "hits")], 0.0);
}

TEST(RpcVariants, LossProbabilityZeroRemovesChannelLoss) {
    // Set the channels' keep/lose weights to 1/0 on the parsed architecture.
    adl::ArchiType a = archi("rpc_revised_markov.aem");
    for (adl::ElemType& type : a.elem_types) {
        if (type.name != "Radio_Channel_Type") continue;
        for (adl::BehaviorDef& b : type.behaviors) {
            for (adl::Alternative& alt : b.alternatives) {
                adl::Action& first = alt.actions.front();
                if (first.name == "keep_packet") first.rate = lts::RateImmediate{1, 1.0};
                if (first.name == "lose_packet") first.rate = lts::RateImmediate{1, 0.0};
            }
        }
    }
    const adl::ComposedModel model = adl::compose(a);
    const ctmc::MarkovModel markov = ctmc::build_markov(model);
    const auto pi = ctmc::steady_state(markov.chain);
    const auto freq = ctmc::action_frequencies(markov, model, pi);
    for (const char* lose : {"RCS.lose_packet", "RSC.lose_packet"}) {
        const Symbol action = model.graph.actions()->find(lose);
        ASSERT_NE(action, kNoSymbol) << lose;
        EXPECT_DOUBLE_EQ(freq[action], 0.0) << lose;
    }
}

TEST(RpcVariants, FasterServerRaisesThroughput) {
    const adl::ComposedModel model =
        compose_point("rpc_revised_markov.aem", "send_shutdown", 10.0, true);
    EXPECT_GT(rpc_throughput(exp::with_delay(model, "S", "prepare_result_packet", 0.1)),
              rpc_throughput(exp::with_delay(model, "S", "prepare_result_packet", 2.0)));
}

}  // namespace
}  // namespace dpma::models
