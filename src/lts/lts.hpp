#pragma once

/// \file lts.hpp
/// Labelled transition systems: the common semantic object of the whole
/// toolchain.  The functional phase analyses an Lts ignoring rates; the
/// Markovian phase reads RateExp / RateImmediate annotations; the general
/// phase reads RateGeneral annotations.

#include <cstdint>
#include <memory>
#include <mutex>
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

/// Index into the slot table of an Lts.
using SlotId = std::uint32_t;

inline constexpr SlotId kNoSlot = 0xFFFFFFFFu;

/// One outgoing transition.  Its rate is not stored here but in the slot
/// table of the owning Lts (Lts::rate), one entry per distinct (action, rate)
/// pair, so the array holds 12 bytes per transition.
struct Transition {
    ActionId action;
    StateId target;
    SlotId slot;
};
static_assert(sizeof(Transition) == 12);

/// One entry of the slot table: a distinct (action, rate) pair.
struct RateSlot {
    ActionId action;
    Rate rate;
};

/// Base of a value that a layer derives from the structure of an Lts (and
/// whatever else it keys the value by) and keeps with it: see Lts::memo.
class StructureMemo {
public:
    StructureMemo() = default;
    StructureMemo(const StructureMemo&) = delete;
    StructureMemo& operator=(const StructureMemo&) = delete;
    virtual ~StructureMemo() = default;
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
/// changes.  The structure (offsets and transitions) sits behind one
/// shared_ptr, so copies share it and own only their slot table, and
/// mutate_rates() is the one way to patch a rate.  The structure also holds
/// one memo slot (memo()), so a value derived from it once serves every
/// copy.  A const Lts can be read from any number of threads.
class Lts {
public:
    /// The empty system (no states) over a fresh action table.
    Lts();

    [[nodiscard]] const std::shared_ptr<ActionTable>& actions() const noexcept {
        return actions_;
    }

    [[nodiscard]] StateId initial() const noexcept { return initial_; }

    [[nodiscard]] std::size_t num_states() const noexcept {
        return structure_->offsets.size() - 1;
    }
    [[nodiscard]] std::size_t num_transitions() const noexcept {
        return structure_->transitions.size();
    }

    [[nodiscard]] std::span<const Transition> out(StateId state) const {
        DPMA_REQUIRE(state < num_states(), "state out of range");
        const Transition* base = structure_->transitions.data();
        return {base + structure_->offsets[state], base + structure_->offsets[state + 1]};
    }

    /// All transitions, grouped by source state in state order.
    [[nodiscard]] std::span<const Transition> transitions() const noexcept {
        return structure_->transitions;
    }

    /// num_states() + 1 offsets into transitions().
    [[nodiscard]] std::span<const std::uint32_t> offsets() const noexcept {
        return structure_->offsets;
    }

    /// The slot table: one entry per distinct (action, rate) pair the system
    /// was built with (mutate_rates may later give two slots equal rates).
    /// Every slot is used by some transition, and slots are numbered in the
    /// order of their first use in transitions(), so the first slot with
    /// some property is the slot of the first transition with it.
    [[nodiscard]] std::span<const RateSlot> slots() const noexcept { return slots_; }

    /// Rate of transition \p t of this system.
    [[nodiscard]] const Rate& rate(const Transition& t) const { return slots_[t.slot].rate; }

    /// Multi-line textual dump (for debugging and golden tests).
    [[nodiscard]] std::string dump() const;

    /// Applies \p fn(action, rate&) to every slot, in slot order: the one way
    /// to change a built system (model refiners and sweep-time patches swap
    /// rates; the structure stays as built).  Each slot is visited once, so
    /// \p fn sees every distinct (action, rate) pair once however many
    /// transitions carry it.
    template <typename Fn>
    void mutate_rates(Fn&& fn) {
        for (RateSlot& slot : slots_) fn(slot.action, slot.rate);
    }

    /// The value kept with this system's structure, if it is a \p T and
    /// \p fits(value) holds; otherwise \p make(), kept in its place.  Every
    /// copy sharing the structure shares this one slot, so one value lives
    /// per structure at most.  The lookup and make() run under the slot's
    /// lock, so concurrent callers make a fitting value once; if make()
    /// throws, the slot is left as it was.
    template <typename T, typename Fits, typename Make>
    [[nodiscard]] std::shared_ptr<const T> memo(Fits&& fits, Make&& make) const {
        Structure::Memo& slot = structure_->memo;
        const std::lock_guard<std::mutex> lock(slot.mutex);
        std::shared_ptr<const T> held = std::dynamic_pointer_cast<const T>(slot.value);
        if (held != nullptr && fits(*held)) return held;
        held = make();
        slot.value = held;
        return held;
    }

private:
    friend class LtsBuilder;
    struct Structure {
        std::vector<std::uint32_t> offsets{0};
        std::vector<Transition> transitions;
        /// The one derived value kept with the structure (Lts::memo).
        struct Memo {
            std::mutex mutex;
            std::shared_ptr<const StructureMemo> value;
        };
        mutable Memo memo;
    };
    Lts(std::shared_ptr<ActionTable> actions, std::shared_ptr<const Structure> structure,
        std::vector<RateSlot> slots, StateId initial);

    std::shared_ptr<ActionTable> actions_;
    std::shared_ptr<const Structure> structure_;
    std::vector<RateSlot> slots_;
    StateId initial_ = kNoState;
};

/// Per slot of \p model, its rate as an \p Alternative of Rate (RateExp,
/// RateImmediate, ...) or null.  Rate readers classify each slot once this
/// way and look the class up per transition by Transition::slot.
template <typename Alternative>
[[nodiscard]] std::vector<const Alternative*> slot_rates(const Lts& model) {
    std::vector<const Alternative*> out;
    out.reserve(model.slots().size());
    for (const RateSlot& slot : model.slots()) out.push_back(std::get_if<Alternative>(&slot.rate));
    return out;
}

/// Collects the states and transitions of an Lts and builds it whole.
///
/// Transitions may be added in any source order; build() groups them by
/// source with a stable counting sort, so the transitions of one state keep
/// their insertion order.  Producers that add them in source order (the
/// usual case) never pay for the sort: the array is moved into the Lts as is.
///
/// Rates are interned into the slot table, one slot per distinct (action,
/// rate) pair.  Producers that add many transitions with a few rates intern
/// each pair once (intern_slot) and add by slot (add_slot_transition);
/// add_transition with a rate interns on every call, without one it looks
/// up the action's rate-less slot in a table.  build() drops unused
/// slots and numbers the rest in order of first use (one read pass over the
/// transitions, which rewrites them only when some slot moves).
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

    StateId add_state() {
        DPMA_REQUIRE(num_states() < kNoState, "state-space overflow");
        degree_.push_back(0);
        return static_cast<StateId>(num_states() - 1);
    }

    /// Slot of the pair (\p action, \p rate), added on first request.  A
    /// linear search: a system has a few distinct pairs, and producers call
    /// this once per pair, not per transition.
    SlotId intern_slot(ActionId action, const Rate& rate);

    /// Inline: composition and the producers of the functional phase add
    /// every transition of systems with millions of them through here.
    void add_slot_transition(StateId from, SlotId slot, StateId to) {
        DPMA_REQUIRE(from < num_states() && to < num_states(),
                     "transition endpoint out of range");
        DPMA_REQUIRE(slot < slots_.size(), "unknown rate slot");
        if (from < last_source_ || !sources_.empty()) record_source(from);
        last_source_ = from;
        ++degree_[from + 1];
        transitions_.push_back(Transition{slots_[slot].action, to, slot});
    }

    /// A transition without a rate (the functional phase).
    void add_transition(StateId from, ActionId action, StateId to) {
        SlotId slot = action < unspecified_.size() ? unspecified_[action] : kNoSlot;
        if (slot == kNoSlot) slot = intern_slot(action, RateUnspecified{});
        add_slot_transition(from, slot, to);
    }

    /// Interns (\p action, \p rate) on every call (see intern_slot).
    void add_transition(StateId from, ActionId action, StateId to, const Rate& rate) {
        add_slot_transition(from, intern_slot(action, rate), to);
    }

    void set_initial(StateId state);

    /// Reserve room for \p count states or transitions (producers that know
    /// a bound skip the growth copies).
    void reserve_states(std::size_t count) { degree_.reserve(count + 1); }
    void reserve_transitions(std::size_t count) { transitions_.reserve(count); }

    [[nodiscard]] std::size_t num_states() const noexcept { return degree_.size() - 1; }

    [[nodiscard]] Lts build() &&;

private:
    /// Records the source of a transition that arrives out of source order,
    /// or of any transition after one did.
    void record_source(StateId from);

    /// Drops unused slots and renumbers the rest in order of first use.
    void renumber_slots();

    std::shared_ptr<ActionTable> actions_;
    /// degree_[s + 1] = out-degree of s so far; build() prefix-sums it into
    /// the offsets.
    std::vector<std::uint32_t> degree_{0};
    std::vector<Transition> transitions_;
    std::vector<RateSlot> slots_;
    /// Per action id, its rate-less slot or kNoSlot: the functional phase's
    /// producers add every transition through it.
    std::vector<SlotId> unspecified_;
    /// Source of every transition, recorded only from the first transition
    /// that arrives out of source order on (build() then sorts).
    std::vector<StateId> sources_;
    StateId last_source_ = 0;
    StateId initial_ = kNoState;
};

/// Carries the rates of a source system into an LtsBuilder that copies some
/// of its transitions: the slot of a copied transition is interned in the
/// builder on first use, under the action the copy carries, so the slots
/// arrive in order of first use and build() leaves them in place.  The
/// copy's action must be a function of the source slot's action (a
/// relabelling), since each source slot is mapped once.
class SlotRemap {
public:
    SlotRemap(const Lts& source, LtsBuilder& out)
        : source_(source), out_(out), to_(source.slots().size(), kNoSlot) {}

    /// Slot in the builder of source slot \p slot, relabelled to \p action.
    SlotId operator()(SlotId slot, ActionId action) {
        SlotId& mapped = to_[slot];
        if (mapped == kNoSlot) mapped = out_.intern_slot(action, source_.slots()[slot].rate);
        return mapped;
    }

private:
    const Lts& source_;
    LtsBuilder& out_;
    std::vector<SlotId> to_;
};

}  // namespace dpma::lts
