#include "lts/lts.hpp"

#include <memory>
#include <sstream>
#include <variant>

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

Lts::Lts() : actions_(std::make_shared<ActionTable>()) {
    static const auto empty = std::make_shared<const Structure>();
    structure_ = empty;
}

Lts::Lts(std::shared_ptr<ActionTable> actions, std::shared_ptr<const Structure> structure,
         std::vector<RateSlot> slots, StateId initial)
    : actions_(std::move(actions)),
      structure_(std::move(structure)),
      slots_(std::move(slots)),
      initial_(initial) {}

LtsBuilder::LtsBuilder(std::shared_ptr<ActionTable> actions) : actions_(std::move(actions)) {
    DPMA_REQUIRE(actions_ != nullptr, "Lts needs an action table");
}

LtsBuilder::LtsBuilder() : LtsBuilder(std::make_shared<ActionTable>()) {}

SlotId LtsBuilder::intern_slot(ActionId action, const Rate& rate) {
    for (SlotId slot = 0; slot < slots_.size(); ++slot) {
        if (slots_[slot].action == action && slots_[slot].rate == rate) return slot;
    }
    DPMA_REQUIRE(slots_.size() < kNoSlot, "rate slot overflow");
    const auto slot = static_cast<SlotId>(slots_.size());
    slots_.push_back(RateSlot{action, rate});
    if (std::holds_alternative<RateUnspecified>(rate)) {
        if (action >= unspecified_.size()) unspecified_.resize(action + 1, kNoSlot);
        unspecified_[action] = slot;
    }
    return slot;
}

void LtsBuilder::record_source(StateId from) {
    if (sources_.empty()) {
        // First transition out of source order: the ones before it were in
        // order, so their sources follow from the degrees.
        sources_.reserve(transitions_.capacity());
        for (StateId s = 0; s < num_states(); ++s) {
            sources_.insert(sources_.end(), degree_[s + 1], s);
        }
    }
    sources_.push_back(from);
}

void LtsBuilder::renumber_slots() {
    std::vector<SlotId> renumbered(slots_.size(), kNoSlot);
    SlotId used = 0;
    bool moved = false;
    for (const Transition& t : transitions_) {
        SlotId& to = renumbered[t.slot];
        if (to != kNoSlot) continue;
        moved = moved || t.slot != used;
        to = used++;
    }
    if (!moved && used == slots_.size()) return;
    std::vector<RateSlot> kept(used);
    for (SlotId slot = 0; slot < slots_.size(); ++slot) {
        if (renumbered[slot] != kNoSlot) kept[renumbered[slot]] = std::move(slots_[slot]);
    }
    for (Transition& t : transitions_) t.slot = renumbered[t.slot];
    slots_ = std::move(kept);
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
            sorted[cursor[sources_[k]]++] = transitions_[k];
        }
        transitions_ = std::move(sorted);
    }
    renumber_slots();
    auto structure = std::make_shared<Lts::Structure>();
    structure->offsets = std::move(degree_);
    structure->transitions = std::move(transitions_);
    return Lts(std::move(actions_), std::move(structure), std::move(slots_), initial_);
}

std::string Lts::dump() const {
    std::ostringstream outstr;
    outstr << "lts: " << num_states() << " states, " << num_transitions()
           << " transitions, initial " << initial_ << '\n';
    for (StateId s = 0; s < num_states(); ++s) {
        outstr << "  s" << s << '\n';
        for (const Transition& t : out(s)) {
            outstr << "    --" << actions_->name(t.action) << ", "
                   << rate_to_string(rate(t)) << "--> s" << t.target << '\n';
        }
    }
    return outstr.str();
}

}  // namespace dpma::lts
