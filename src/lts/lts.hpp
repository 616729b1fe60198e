#pragma once

/// \file lts.hpp
/// Labelled transition systems: the common semantic object of the whole
/// toolchain.  The functional phase analyses an Lts ignoring rates; the
/// Markovian phase reads RateExp / RateImmediate annotations; the general
/// phase reads RateGeneral annotations.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.hpp"
#include "core/intern.hpp"
#include "lts/rate.hpp"

namespace dpma::lts {

using StateId = std::uint32_t;
using ActionId = Symbol;

inline constexpr StateId kNoState = 0xFFFFFFFFu;

/// Interning table for action labels with the invisible action tau
/// pre-interned as id 0.
class ActionTable {
public:
    ActionTable() { tau_ = interner_.intern("tau"); }

    /// Id of the invisible action.
    [[nodiscard]] ActionId tau() const noexcept { return tau_; }

    ActionId intern(std::string_view name) { return interner_.intern(name); }

    /// Id of \p name, or kNoSymbol when never interned.
    [[nodiscard]] ActionId find(std::string_view name) const noexcept {
        return interner_.find(name);
    }

    [[nodiscard]] const std::string& name(ActionId id) const { return interner_.text(id); }

    [[nodiscard]] std::size_t size() const noexcept { return interner_.size(); }

private:
    StringInterner interner_;
    ActionId tau_;
};

/// One outgoing transition.
struct Transition {
    ActionId action;
    StateId target;
    Rate rate;
};

/// A rooted labelled transition system with rate-annotated transitions,
/// stored as one compressed sparse row: the transitions of state s are
/// transitions()[offsets()[s] .. offsets()[s+1]).
///
/// Shares its ActionTable through a shared_ptr so that several models built
/// for comparison (with DPM / without DPM, hidden / restricted) agree on
/// action ids.
///
/// An Lts is built whole by an LtsBuilder; afterwards its structure never
/// changes and only mutate_rates() can patch the annotations, so a const Lts
/// can be read from any number of threads.  Copies are plain member-wise
/// copies of the two arrays.
class Lts {
public:
    /// The empty system (no states) over a fresh action table.
    Lts();

    [[nodiscard]] const std::shared_ptr<ActionTable>& actions() const noexcept {
        return actions_;
    }

    [[nodiscard]] StateId initial() const noexcept { return initial_; }

    [[nodiscard]] std::size_t num_states() const noexcept { return offsets_.size() - 1; }
    [[nodiscard]] std::size_t num_transitions() const noexcept {
        return transitions_.size();
    }

    [[nodiscard]] std::span<const Transition> out(StateId state) const {
        DPMA_REQUIRE(state < num_states(), "state out of range");
        return {transitions_.data() + offsets_[state],
                transitions_.data() + offsets_[state + 1]};
    }

    /// All transitions, grouped by source state in state order.
    [[nodiscard]] std::span<const Transition> transitions() const noexcept {
        return transitions_;
    }

    /// num_states() + 1 offsets into transitions().
    [[nodiscard]] std::span<const std::uint32_t> offsets() const noexcept {
        return offsets_;
    }

    /// Multi-line textual dump (for debugging and golden tests).
    [[nodiscard]] std::string dump() const;

    /// Applies \p fn(action, rate&) to every transition, in state order: the
    /// one way to change a built system (model refiners and sweep-time
    /// patches swap rates; the structure stays as built).
    template <typename Fn>
    void mutate_rates(Fn&& fn) {
        for (Transition& t : transitions_) fn(t.action, t.rate);
    }

private:
    friend class LtsBuilder;
    Lts(std::shared_ptr<ActionTable> actions, std::vector<std::uint32_t> offsets,
        std::vector<Transition> transitions, StateId initial);

    std::shared_ptr<ActionTable> actions_;
    std::vector<std::uint32_t> offsets_{0};
    std::vector<Transition> transitions_;
    StateId initial_ = kNoState;
};

/// Collects the states and transitions of an Lts and builds it whole.
///
/// Transitions may be added in any source order; build() groups them by
/// source with a stable counting sort, so the transitions of one state keep
/// their insertion order.  Producers that add them in source order (the
/// usual case) never pay for the sort: the array is moved into the Lts as is.
class LtsBuilder {
public:
    explicit LtsBuilder(std::shared_ptr<ActionTable> actions);

    /// Creates a fresh action table and an empty builder over it.
    LtsBuilder();

    [[nodiscard]] const std::shared_ptr<ActionTable>& actions() const noexcept {
        return actions_;
    }

    /// Convenience: interns \p name in the shared action table.
    ActionId action(std::string_view name) { return actions_->intern(name); }

    StateId add_state();

    void add_transition(StateId from, ActionId action, StateId to, Rate rate = RateUnspecified{});

    void set_initial(StateId state);

    /// Reserves room for \p count transitions (producers that know their
    /// size skip the growth copies).
    void reserve_transitions(std::size_t count) { transitions_.reserve(count); }

    [[nodiscard]] std::size_t num_states() const noexcept { return degree_.size() - 1; }

    [[nodiscard]] Lts build() &&;

private:
    std::shared_ptr<ActionTable> actions_;
    /// degree_[s + 1] = out-degree of s so far; build() prefix-sums it into
    /// the offsets.
    std::vector<std::uint32_t> degree_{0};
    std::vector<Transition> transitions_;
    /// Source of every transition, recorded only from the first transition
    /// that arrives out of source order on (build() then sorts).
    std::vector<StateId> sources_;
    StateId last_source_ = 0;
    StateId initial_ = kNoState;
};

}  // namespace dpma::lts
