#pragma once

/// \file equivalence.hpp
/// Strong and weak bisimulation equivalence checking of two rooted LTSs,
/// with distinguishing-formula generation on failure.  Weak bisimilarity is
/// decided as strong bisimilarity of the weak saturations (tau-reflexive
/// closure), the textbook reduction also used by TwoTowers, after the union
/// has been reduced modulo branching bisimilarity so that only its quotient
/// is saturated.

#include <string>

#include "bisim/hml.hpp"
#include "bisim/partition.hpp"
#include "lts/lts.hpp"
#include "lts/ops.hpp"

namespace dpma::bisim {

/// Outcome of an equivalence check.
struct EquivalenceResult {
    bool equivalent = false;
    /// Distinguishing formula satisfied by the *first* system's initial state
    /// but not by the second's; null when equivalent.
    FormulaPtr distinguishing;
};

/// Checks strong bisimilarity of the initial states of \p lhs and \p rhs.
[[nodiscard]] EquivalenceResult strongly_bisimilar(const lts::Lts& lhs, const lts::Lts& rhs);

/// Checks weak bisimilarity of the two roots of \p merged, initial_lhs
/// against initial_rhs.  A returned distinguishing formula uses weak
/// modalities.
[[nodiscard]] EquivalenceResult weakly_bisimilar(const lts::UnionResult& merged);

/// Checks weak bisimilarity of the initial states of \p lhs and \p rhs: the
/// union entry above on disjoint_union(lhs, rhs).
[[nodiscard]] EquivalenceResult weakly_bisimilar(const lts::Lts& lhs, const lts::Lts& rhs);

/// Distinguishing formula for two non-bisimilar states of one system, given
/// a completed refinement.  \p weak_modality only affects printing.
/// Precondition: the states are in different final blocks.
[[nodiscard]] FormulaPtr distinguishing_formula(const lts::Lts& model,
                                                const RefinementResult& refinement,
                                                lts::StateId lhs, lts::StateId rhs,
                                                bool weak_modality);

}  // namespace dpma::bisim
