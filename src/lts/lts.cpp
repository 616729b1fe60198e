#include "lts/lts.hpp"

#include <memory>
#include <sstream>

#include "core/error.hpp"

namespace dpma::lts {

std::string rate_to_string(const Rate& rate) {
    struct Visitor {
        std::string operator()(const RateUnspecified&) const { return "_"; }
        std::string operator()(const RateExp& r) const {
            return "exp(" + std::to_string(r.rate) + ")";
        }
        std::string operator()(const RateImmediate& r) const {
            return "inf(" + std::to_string(r.priority) + ", " + std::to_string(r.weight) + ")";
        }
        std::string operator()(const RatePassive&) const { return "passive"; }
        std::string operator()(const RateGeneral& r) const { return r.dist.to_string(); }
    };
    return std::visit(Visitor{}, rate);
}

Lts::Lts() : actions_(std::make_shared<ActionTable>()) {}

Lts::Lts(std::shared_ptr<ActionTable> actions, std::vector<std::uint32_t> offsets,
         std::vector<Transition> transitions, StateId initial)
    : actions_(std::move(actions)),
      offsets_(std::move(offsets)),
      transitions_(std::move(transitions)),
      initial_(initial) {}

LtsBuilder::LtsBuilder(std::shared_ptr<ActionTable> actions) : actions_(std::move(actions)) {
    DPMA_REQUIRE(actions_ != nullptr, "Lts needs an action table");
}

LtsBuilder::LtsBuilder() : LtsBuilder(std::make_shared<ActionTable>()) {}

StateId LtsBuilder::add_state() {
    DPMA_REQUIRE(num_states() < kNoState, "state-space overflow");
    degree_.push_back(0);
    return static_cast<StateId>(num_states() - 1);
}

void LtsBuilder::add_transition(StateId from, ActionId action, StateId to, Rate rate) {
    DPMA_REQUIRE(from < num_states() && to < num_states(), "transition endpoint out of range");
    if (sources_.empty() && from < last_source_) {
        // First transition out of source order: the ones before it were in
        // order, so their sources follow from the degrees.
        sources_.reserve(transitions_.capacity());
        for (StateId s = 0; s < num_states(); ++s) {
            sources_.insert(sources_.end(), degree_[s + 1], s);
        }
    }
    if (!sources_.empty()) sources_.push_back(from);
    last_source_ = from;
    ++degree_[from + 1];
    transitions_.push_back(Transition{action, to, std::move(rate)});
}

void LtsBuilder::set_initial(StateId state) {
    DPMA_REQUIRE(state < num_states(), "initial state out of range");
    initial_ = state;
}

Lts LtsBuilder::build() && {
    DPMA_REQUIRE(transitions_.size() < 0xFFFFFFFFull, "CSR offsets overflow");
    for (std::size_t s = 1; s < degree_.size(); ++s) degree_[s] += degree_[s - 1];
    if (!sources_.empty()) {
        // Stable counting sort by source.
        std::vector<std::uint32_t> cursor(degree_.begin(), degree_.end() - 1);
        std::vector<Transition> sorted(transitions_.size());
        for (std::size_t k = 0; k < transitions_.size(); ++k) {
            sorted[cursor[sources_[k]]++] = std::move(transitions_[k]);
        }
        transitions_ = std::move(sorted);
    }
    return Lts(std::move(actions_), std::move(degree_), std::move(transitions_), initial_);
}

std::string Lts::dump() const {
    std::ostringstream outstr;
    outstr << "lts: " << num_states() << " states, " << num_transitions()
           << " transitions, initial " << initial_ << '\n';
    for (StateId s = 0; s < num_states(); ++s) {
        outstr << "  s" << s << '\n';
        for (const Transition& t : out(s)) {
            outstr << "    --" << actions_->name(t.action) << ", "
                   << rate_to_string(t.rate) << "--> s" << t.target << '\n';
        }
    }
    return outstr.str();
}

}  // namespace dpma::lts
