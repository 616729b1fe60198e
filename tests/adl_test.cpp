#include <gtest/gtest.h>

#include "adl/compose.hpp"
#include "adl/expr.hpp"
#include "adl/measure.hpp"
#include "adl/model.hpp"
#include "core/error.hpp"
#include "lts/ops.hpp"

namespace dpma::adl {
namespace {


TEST(Expr, EvaluatesArithmetic) {
    const long params[] = {7, 3};
    const auto e = Expr::binary(Expr::Kind::Add, Expr::param(0, "n"),
                                Expr::binary(Expr::Kind::Mul, Expr::param(1, "m"),
                                             Expr::constant(2)));
    EXPECT_EQ(e->eval(params), 13);
}

TEST(Expr, DivisionAndModulo) {
    const long params[] = {17};
    const auto d = Expr::binary(Expr::Kind::Div, Expr::param(0, "n"), Expr::constant(5));
    const auto m = Expr::binary(Expr::Kind::Mod, Expr::param(0, "n"), Expr::constant(5));
    EXPECT_EQ(d->eval(params), 3);
    EXPECT_EQ(m->eval(params), 2);
}

TEST(Expr, DivisionByZeroThrows) {
    const auto e = Expr::binary(Expr::Kind::Div, Expr::constant(1), Expr::constant(0));
    EXPECT_THROW((void)e->eval({}), Error);
}

TEST(Expr, ParamIndexOutOfRangeThrows) {
    const auto e = Expr::param(3, "ghost");
    const long params[] = {1};
    EXPECT_THROW((void)e->eval(params), Error);
}

TEST(Expr, ToStringIsReadable) {
    const auto e = Expr::binary(Expr::Kind::Sub, Expr::param(0, "n"), Expr::constant(1));
    EXPECT_EQ(e->to_string(), "(n - 1)");
}

TEST(BoolExpr, ComparisonsAndConnectives) {
    const long params[] = {5};
    const auto n = Expr::param(0, "n");
    const auto lt5 = BoolExpr::compare(BoolExpr::CmpOp::Lt, n, Expr::constant(5));
    const auto eq5 = BoolExpr::compare(BoolExpr::CmpOp::Eq, n, Expr::constant(5));
    EXPECT_FALSE(lt5->eval(params));
    EXPECT_TRUE(eq5->eval(params));
    EXPECT_TRUE(BoolExpr::disj(lt5, eq5)->eval(params));
    EXPECT_FALSE(BoolExpr::conj(lt5, eq5)->eval(params));
    EXPECT_TRUE(BoolExpr::negate(lt5)->eval(params));
    EXPECT_TRUE(BoolExpr::always_true()->eval(params));
}

/// A minimal two-component system: a producer handing items to a consumer.
ArchiType producer_consumer(lts::Rate produce_rate, lts::Rate hand_rate) {
    ArchiType archi;
    archi.name = "ProdCons";

    ElemType producer;
    producer.name = "Producer_Type";
    producer.behaviors = {
        BehaviorDef{"Making", {}, {{nullptr, {{"produce", produce_rate}}, {"Handing", {}}}}},
        BehaviorDef{"Handing", {}, {{nullptr, {{"hand_over", hand_rate}}, {"Making", {}}}}},
    };
    producer.output_interactions = {"hand_over"};

    ElemType consumer;
    consumer.name = "Consumer_Type";
    consumer.behaviors = {
        BehaviorDef{"Waiting", {},
                    {{nullptr, {{"take", lts::RatePassive{}}}, {"Waiting", {}}}}},
    };
    consumer.input_interactions = {"take"};

    archi.elem_types = {producer, consumer};
    archi.instances = {Instance{"P", "Producer_Type", {}}, Instance{"Q", "Consumer_Type", {}}};
    archi.attachments = {Attachment{"P", "hand_over", "Q", "take"}};
    return archi;
}

TEST(Validate, AcceptsWellFormedModel) {
    const ArchiType archi =
        producer_consumer(lts::RateExp{1.0}, lts::RateImmediate{1, 1.0});
    EXPECT_NO_THROW(validate(archi));
}

TEST(Validate, RejectsUnknownBehaviourInvocation) {
    ArchiType archi = producer_consumer(lts::RateExp{1.0}, lts::RateImmediate{});
    archi.elem_types[0].behaviors[0].alternatives[0].continuation.behavior = "Ghost";
    EXPECT_THROW(validate(archi), ModelError);
}

TEST(Validate, RejectsArityMismatch) {
    ArchiType archi = producer_consumer(lts::RateExp{1.0}, lts::RateImmediate{});
    archi.elem_types[0].behaviors[0].alternatives[0].continuation.args.push_back(
        Expr::constant(3));
    EXPECT_THROW(validate(archi), ModelError);
}

TEST(Validate, RejectsUnknownInstanceType) {
    ArchiType archi = producer_consumer(lts::RateExp{1.0}, lts::RateImmediate{});
    archi.instances[0].type = "Missing_Type";
    EXPECT_THROW(validate(archi), ModelError);
}

TEST(Validate, RejectsAttachmentFromInputPort) {
    ArchiType archi = producer_consumer(lts::RateExp{1.0}, lts::RateImmediate{});
    archi.attachments[0] = Attachment{"Q", "take", "P", "hand_over"};
    EXPECT_THROW(validate(archi), ModelError);
}

TEST(Validate, RejectsDoubleAttachment) {
    ArchiType archi = producer_consumer(lts::RateExp{1.0}, lts::RateImmediate{});
    archi.attachments.push_back(archi.attachments[0]);
    EXPECT_THROW(validate(archi), ModelError);
}

TEST(Validate, RejectsDuplicateInstanceNames) {
    ArchiType archi = producer_consumer(lts::RateExp{1.0}, lts::RateImmediate{});
    archi.instances.push_back(archi.instances[0]);
    EXPECT_THROW(validate(archi), ModelError);
}

TEST(Validate, RejectsEmptyActionSequence) {
    ArchiType archi = producer_consumer(lts::RateExp{1.0}, lts::RateImmediate{});
    archi.elem_types[0].behaviors[0].alternatives[0].actions.clear();
    EXPECT_THROW(validate(archi), ModelError);
}

TEST(LocalLts, UnfoldsParameterisedBuffer) {
    ElemType buffer;
    buffer.name = "Buffer_Type";
    BehaviorDef def{"Buf", {"n", "cap"}, {}};
    const auto n = Expr::param(0, "n");
    const auto cap = Expr::param(1, "cap");
    const auto one = Expr::constant(1);
    // cond(n < cap) -> <put, _> . Buf(n + 1, cap)
    def.alternatives.push_back({BoolExpr::compare(BoolExpr::CmpOp::Lt, n, cap),
                                {{"put", lts::RatePassive{}}},
                                {"Buf", {Expr::binary(Expr::Kind::Add, n, one), cap}}});
    // cond(n > 0) -> <get, _> . Buf(n - 1, cap)
    def.alternatives.push_back({BoolExpr::compare(BoolExpr::CmpOp::Gt, n, Expr::constant(0)),
                                {{"get", lts::RatePassive{}}},
                                {"Buf", {Expr::binary(Expr::Kind::Sub, n, one), cap}}});
    buffer.behaviors = {def};
    buffer.input_interactions = {"put", "get"};

    lts::ActionTable actions;
    const long args[] = {0, 3};
    const LocalLts local = build_local_lts(buffer, args, actions, 1000);
    EXPECT_EQ(local.out.size(), 4u);  // occupancies 0..3
    EXPECT_EQ(local.state_names[local.initial], "Buf(0,3)");
    // Occupancy 0 has only "put"; occupancy 3 only "get"; middle both.
    EXPECT_EQ(local.out[local.initial].size(), 1u);
}

TEST(LocalLts, GuardsAgainstUnboundedParameters) {
    ElemType counter;
    counter.name = "Counter_Type";
    BehaviorDef def{"Count", {"n"}, {}};
    const auto n_plus_1 =
        Expr::binary(Expr::Kind::Add, Expr::param(0, "n"), Expr::constant(1));
    def.alternatives.push_back(
        {nullptr, {{"tick", lts::RateExp{1.0}}}, {"Count", {n_plus_1}}});
    counter.behaviors = {def};

    lts::ActionTable actions;
    const long args[] = {0};
    EXPECT_THROW((void)build_local_lts(counter, args, actions, 50), ModelError);
}

TEST(Compose, SynchronisedLabelNamesBothParties) {
    const ArchiType archi =
        producer_consumer(lts::RateExp{2.0}, lts::RateImmediate{1, 1.0});
    const ComposedModel model = compose(archi);
    EXPECT_NE(model.graph.actions()->find("P.hand_over#Q.take"), kNoSymbol);
    EXPECT_NE(model.graph.actions()->find("P.produce"), kNoSymbol);
}

TEST(Compose, PassiveInheritsActiveRate) {
    const ArchiType archi =
        producer_consumer(lts::RateExp{2.0}, lts::RateExp{7.0});
    const ComposedModel model = compose(archi);
    bool found = false;
    for (lts::StateId s = 0; s < model.graph.num_states(); ++s) {
        for (const lts::Transition& t : model.graph.out(s)) {
            if (model.graph.actions()->name(t.action) == "P.hand_over#Q.take") {
                const auto* rate = std::get_if<lts::RateExp>(&model.graph.rate(t));
                ASSERT_NE(rate, nullptr);
                EXPECT_DOUBLE_EQ(rate->rate, 7.0);
                found = true;
            }
        }
    }
    EXPECT_TRUE(found);
}

TEST(Compose, SyncTakesTheActivePartnersRateInEachState) {
    // One passive output attached to an input whose rate depends on the
    // consumer's state: the same initiator transition synchronises at two
    // rates, so each synchronised transition must carry its partner's.
    ArchiType archi = producer_consumer(lts::RateExp{2.0}, lts::RatePassive{});
    archi.elem_types[1].behaviors = {
        BehaviorDef{"Slow", {}, {{nullptr, {{"take", lts::RateExp{1.0}}}, {"Fast", {}}}}},
        BehaviorDef{"Fast", {}, {{nullptr, {{"take", lts::RateExp{3.0}}}, {"Slow", {}}}}},
    };
    const ComposedModel model = compose(archi);
    const std::size_t consumer = model.instance_index("Q");
    std::size_t found = 0;
    for (lts::StateId s = 0; s < model.graph.num_states(); ++s) {
        for (const lts::Transition& t : model.graph.out(s)) {
            if (model.graph.actions()->name(t.action) != "P.hand_over#Q.take") continue;
            const double want = model.local_label(s, consumer) == "Slow" ? 1.0 : 3.0;
            EXPECT_EQ(model.graph.rate(t), lts::Rate{lts::RateExp{want}}) << "state " << s;
            ++found;
        }
    }
    EXPECT_EQ(found, 2u);
}

TEST(Compose, TwoActivePartiesAreRejected) {
    ArchiType archi = producer_consumer(lts::RateExp{2.0}, lts::RateExp{7.0});
    // Make the consumer's take active as well.
    archi.elem_types[1].behaviors[0].alternatives[0].actions[0].rate = lts::RateExp{1.0};
    EXPECT_THROW((void)compose(archi), ModelError);
}

TEST(Compose, UnattachedInteractionIsBlocked) {
    ArchiType archi = producer_consumer(lts::RateExp{2.0}, lts::RateImmediate{});
    archi.attachments.clear();
    const ComposedModel model = compose(archi);
    // P can produce, then is stuck in Handing (hand_over blocked).
    EXPECT_EQ(model.graph.num_states(), 2u);
    const auto deadlocks = lts::deadlock_states(model.graph);
    ASSERT_EQ(deadlocks.size(), 1u);
}

TEST(Compose, TracksLocalStatesPerInstance) {
    const ArchiType archi =
        producer_consumer(lts::RateExp{2.0}, lts::RateImmediate{1, 1.0});
    const ComposedModel model = compose(archi, ComposeOptions{.max_states = 1000});
    ASSERT_EQ(model.instance_names.size(), 2u);
    EXPECT_EQ(model.instance_index("P"), 0u);
    EXPECT_EQ(model.instance_index("Q"), 1u);
    EXPECT_EQ(model.local_label(model.graph.initial(), 0), "Making");
    EXPECT_THROW((void)model.instance_index("Z"), ModelError);
}

TEST(Compose, StateLabelNamesTheLocalStates) {
    const ArchiType archi =
        producer_consumer(lts::RateExp{2.0}, lts::RateImmediate{1, 1.0});
    const ComposedModel model = compose(archi);
    const lts::StateId init = model.graph.initial();
    EXPECT_EQ(model.state_label(init), "P:Making | Q:Waiting");
}

TEST(Compose, StateLimitIsEnforced) {
    const ArchiType archi =
        producer_consumer(lts::RateExp{2.0}, lts::RateImmediate{1, 1.0});
    EXPECT_THROW((void)compose(archi, ComposeOptions{.max_states = 1}), ModelError);
}

TEST(Measure, StateMaskSelectsLocalStatesByPrefix) {
    const ArchiType archi =
        producer_consumer(lts::RateExp{2.0}, lts::RateImmediate{1, 1.0});
    const ComposedModel model = compose(archi);
    const auto mask = state_mask(model, InStatePredicate{"P", "Making"});
    ASSERT_EQ(mask.size(), model.graph.num_states());
    EXPECT_TRUE(mask[model.graph.initial()]);
}

TEST(Measure, EnabledPredicateMatchesEitherParty) {
    const ArchiType archi =
        producer_consumer(lts::RateExp{2.0}, lts::RateImmediate{1, 1.0});
    const ComposedModel model = compose(archi);
    const auto by_producer = action_mask(model, EnabledPredicate{"P", "hand_over"});
    const auto by_consumer = action_mask(model, EnabledPredicate{"Q", "take"});
    EXPECT_EQ(by_producer, by_consumer);
}

TEST(Measure, ActionMaskRejectsInStatePredicates) {
    const ArchiType archi =
        producer_consumer(lts::RateExp{2.0}, lts::RateImmediate{1, 1.0});
    const ComposedModel model = compose(archi);
    EXPECT_THROW((void)action_mask(model, InStatePredicate{"P", "Making"}), Error);
}

TEST(Measure, ActionsOfInstanceCoversInternalAndSyncLabels) {
    const ArchiType archi =
        producer_consumer(lts::RateExp{2.0}, lts::RateImmediate{1, 1.0});
    const ComposedModel model = compose(archi);
    const auto actions = actions_of_instance(model, "P");
    // P.produce and P.hand_over#Q.take.
    EXPECT_EQ(actions.size(), 2u);
}

}  // namespace
}  // namespace dpma::adl
