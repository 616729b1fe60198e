#pragma once

/// \file compiled.hpp
/// Frozen per-state scheduler tables for the GSMP simulator.
///
/// The simulator's hot loop used to interrogate the composed graph on every
/// event: a two-pass variant scan over the out-transitions to resolve the
/// maximal-progress immediate choice, a `dist_of` variant dispatch per clock
/// sample, an `unordered_map<ActionId,double>` clear/emplace/swap per timed
/// round, and a full sweep over *all* measures per residence interval.  All
/// of that is a pure function of the model and the measure list, so the
/// constructor now compiles it once into flat arrays:
///
///  * per state, the best-priority immediate candidates (weight > 0, in
///    out-transition order) together with the reference implementation's
///    floating-point total weight, so the choice is one uniform draw plus a
///    short cumulative scan;
///  * per state, the timed labels in first-occurrence order with their
///    pre-resolved `Dist` and the contiguous group of candidate targets
///    (same-label transitions share a clock; the firing picks uniformly
///    within the group);
///  * per state, the *tie-scan permutation*: the order in which the retired
///    scheduler's `unordered_map` iterated the clocks.  Tie resolution
///    draws `rng.below(k)` per minimal clock *in encounter order*, so the
///    scan order is part of the sampled process; the permutation replays
///    libstdc++'s hashtable iteration order (see compiled.cpp) and keeps
///    compiled traces bit-identical to the reference even through ties;
///  * sparse (measure, value) reward lists per state and per action label,
///    ordered by measure index — the same KahanSum accumulation order as
///    the dense loops they replace.
///
/// Construction also diagnoses the silent `choose_immediate` edge case: a
/// state whose best-priority immediates all have weight <= 0 used to fall
/// through to timed scheduling, simulating a semantically different
/// process; it is now a ModelError.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "adl/compose.hpp"
#include "core/dist.hpp"

namespace dpma::sim {

struct CompiledModel {
    /// One best-priority immediate candidate (weight > 0), in
    /// out-transition order.
    struct ImmediateCandidate {
        double weight = 0.0;
        lts::ActionId action = 0;
        lts::StateId target = 0;
    };

    /// One timed label of a state (first-occurrence order).  Candidates are
    /// targets[cand_begin, cand_end), in out-transition order.
    struct TimedLabel {
        Dist dist = Dist::deterministic(0.0);
        lts::ActionId action = 0;
        std::uint32_t cand_begin = 0;
        std::uint32_t cand_end = 0;
    };

    /// One nonzero reward entry of a sparse per-state / per-action list.
    struct RewardEntry {
        std::uint32_t measure = 0;
        double value = 0.0;
    };

    struct StateInfo {
        std::uint32_t imm_begin = 0, imm_end = 0;        ///< into immediates
        std::uint32_t timed_begin = 0, timed_end = 0;    ///< into timed / tie_order
        std::uint32_t reward_begin = 0, reward_end = 0;  ///< into state_rewards
        /// Reference-order sum of the best-priority immediate weights (the
        /// exact double the retired scanner multiplied the uniform by).
        double imm_total_weight = 0.0;
    };

    std::vector<StateInfo> states;
    std::vector<ImmediateCandidate> immediates;
    std::vector<TimedLabel> timed;
    /// Candidate targets, grouped per timed label.
    std::vector<lts::StateId> targets;
    /// Parallel to `timed`: tie_order[timed_begin + k] is the offset (from
    /// timed_begin) of the k-th label in the reference tie-scan order.
    std::vector<std::uint32_t> tie_order;
    std::vector<RewardEntry> state_rewards;
    /// Per-action sparse rewards: action_rewards[action_reward_begin[a],
    /// action_reward_begin[a + 1]).
    std::vector<RewardEntry> action_rewards;
    std::vector<std::uint32_t> action_reward_begin;
    std::size_t num_actions = 0;
};

/// Builds the tables from the composed graph and the dense reward matrices
/// (state_reward_rate[m][s], action_reward[m][a]).  Throws ModelError when a
/// state's best-priority immediates sum to a non-positive weight.
[[nodiscard]] CompiledModel compile_model(
    const adl::ComposedModel& model,
    const std::vector<std::vector<double>>& state_reward_rate,
    const std::vector<std::vector<double>>& action_reward);

}  // namespace dpma::sim
