#pragma once

/// \file ops.hpp
/// Structural operations on labelled transition systems used by the
/// functional phase of the methodology: hiding and restriction of action
/// sets (the two sides of the noninterference check), reachability pruning,
/// deadlock detection, weak saturation and disjoint union.

#include <unordered_set>
#include <vector>

#include "lts/lts.hpp"

namespace dpma::lts {

/// Set of action ids.
using ActionSet = std::unordered_set<ActionId>;

/// Returns a copy of \p model in which every transition labelled with an
/// action in \p actions is relabelled to tau (Æmilia/CCS hiding, written
/// M / H in the paper).  Rates are preserved.
[[nodiscard]] Lts hide(const Lts& model, const ActionSet& actions);

/// Returns a copy of \p model in which every transition labelled with an
/// action in \p actions is removed (CCS restriction, written M \ H).
[[nodiscard]] Lts restrict_actions(const Lts& model, const ActionSet& actions);

/// Returns the sub-LTS reachable from the initial state (states renumbered).
[[nodiscard]] Lts reachable_part(const Lts& model);

/// States with no outgoing transitions (after an optional restriction these
/// witness deadlocks introduced by a DPM, cf. the blocked rpc client).
[[nodiscard]] std::vector<StateId> deadlock_states(const Lts& model);

/// Result of collapsing the tau-strongly-connected components of a system.
struct TauCollapseResult {
    Lts collapsed;
    /// representative_of[original state] = collapsed state id.
    std::vector<StateId> representative_of;
};

/// Collapses every tau-SCC (set of mutually tau-reachable states) into one
/// state.  Sound for weak bisimulation: mutually tau-reachable states are
/// weakly bisimilar.  Used as a pre-pass before saturation, where it turns
/// the mostly-hidden systems of the noninterference check from O(n^2)
/// saturations into small ones.  Tau self-loops are dropped; rates are not
/// meaningful after this transformation and are reset.
[[nodiscard]] TauCollapseResult collapse_tau_sccs(const Lts& model);

/// Weak saturation: for every visible action a adds s =a=> t whenever
/// s (tau)* -a-> (tau)* t, and replaces tau transitions by s =tau=> t for all
/// tau-paths of length >= 0 (hence reflexive tau self-loops).  Strong
/// bisimilarity on the saturated system coincides with weak bisimilarity on
/// the original one.  All rates are dropped (functional analysis only).
/// Traced as span "lts.saturate" with `states` and `weak_transitions`.
[[nodiscard]] Lts saturate(const Lts& model);

/// Result of a disjoint union of two systems over a merged action table.
struct UnionResult {
    Lts combined;
    StateId initial_lhs;
    StateId initial_rhs;
};

/// Disjoint union of \p lhs and \p rhs.  Action ids are merged by name, so
/// the inputs may use different ActionTable instances.
[[nodiscard]] UnionResult disjoint_union(const Lts& lhs, const Lts& rhs);

/// Interns the given action names and returns the id set.  Names that were
/// never used in the model are interned anyway (harmless: no transition
/// carries them).
[[nodiscard]] ActionSet make_action_set(const Lts& model,
                                        const std::vector<std::string>& names);

}  // namespace dpma::lts
