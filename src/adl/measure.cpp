#include "adl/measure.hpp"

#include "core/error.hpp"
#include "core/text.hpp"

namespace dpma::adl {
namespace {

/// Parses a composed label into its (instance, action) parties.
/// "C.a#S.b" -> {{C,a},{S,b}};  "C.a" -> {{C,a}};  "tau" -> {}.
std::vector<std::pair<std::string, std::string>> parties_of_label(const std::string& label) {
    std::vector<std::pair<std::string, std::string>> parties;
    if (label == "tau") return parties;
    for (const std::string& part : split(label, '#')) {
        const std::size_t dot = part.find('.');
        if (dot == std::string::npos) continue;  // not an instance-qualified label
        parties.emplace_back(part.substr(0, dot), part.substr(dot + 1));
    }
    return parties;
}

bool label_involves(const std::string& label, const std::string& instance,
                    const std::string& action) {
    for (const auto& [inst, act] : parties_of_label(label)) {
        if (inst == instance && act == action) return true;
    }
    return false;
}

}  // namespace

RewardClause state_reward(std::string instance, std::string action, double reward) {
    return RewardClause{RewardClause::Target::State,
                        EnabledPredicate{std::move(instance), std::move(action)}, reward};
}

RewardClause state_reward_in(std::string instance, std::string state_prefix, double reward) {
    return RewardClause{RewardClause::Target::State,
                        InStatePredicate{std::move(instance), std::move(state_prefix)}, reward};
}

RewardClause trans_reward(std::string instance, std::string action, double reward) {
    return RewardClause{RewardClause::Target::Trans,
                        EnabledPredicate{std::move(instance), std::move(action)}, reward};
}

StateTest::StateTest(const ComposedModel& model, const Predicate& predicate)
    : model_(&model), enabled_(std::holds_alternative<EnabledPredicate>(predicate)) {
    if (enabled_) {
        labels_ = action_mask(model, predicate);
        return;
    }
    const auto& in_state = std::get<InStatePredicate>(predicate);
    instance_ = model.instance_index(in_state.instance);
    const auto& names = model.local_state_names(instance_);
    local_.assign(names.size(), 0);
    for (std::size_t i = 0; i < names.size(); ++i) {
        local_[i] = starts_with(names[i], in_state.state_prefix) ? 1 : 0;
    }
}

bool StateTest::operator()(lts::StateId state) const {
    if (!enabled_) return local_[model_->local_state(state, instance_)] != 0;
    for (const lts::Transition& t : model_->graph.out(state)) {
        if (labels_[t.action]) return true;
    }
    return false;
}

std::vector<char> state_mask(const ComposedModel& model, const Predicate& predicate) {
    const StateTest test(model, predicate);
    std::vector<char> mask(model.graph.num_states(), 0);
    for (lts::StateId s = 0; s < mask.size(); ++s) mask[s] = test(s) ? 1 : 0;
    return mask;
}

std::vector<char> action_mask(const ComposedModel& model, const Predicate& predicate) {
    const auto* enabled = std::get_if<EnabledPredicate>(&predicate);
    DPMA_REQUIRE(enabled != nullptr, "TRANS_REWARD needs an ENABLED predicate");
    const auto& table = *model.graph.actions();
    std::vector<char> mask(table.size(), 0);
    for (Symbol a = 0; a < table.size(); ++a) {
        mask[a] = label_involves(table.name(a), enabled->instance, enabled->action) ? 1 : 0;
    }
    return mask;
}

std::vector<lts::ActionId> actions_of_instance(const ComposedModel& model,
                                               const std::string& instance) {
    const auto& table = *model.graph.actions();
    std::vector<lts::ActionId> out;
    for (Symbol a = 0; a < table.size(); ++a) {
        for (const auto& [inst, act] : parties_of_label(table.name(a))) {
            (void)act;
            if (inst == instance) {
                out.push_back(a);
                break;
            }
        }
    }
    return out;
}

}  // namespace dpma::adl
