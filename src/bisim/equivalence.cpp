#include "bisim/equivalence.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "lts/ops.hpp"
#include "obs/trace.hpp"

namespace dpma::bisim {
namespace {

/// Finds an action/block witness present in the round-(r-1) signature of
/// \p from but absent from the signature of \p other, together with the
/// concrete successor of \p from that realises it.
struct Witness {
    lts::ActionId action;
    lts::StateId successor;  // successor of `from` landing in the witness block
};

std::optional<Witness> find_witness(const lts::Lts& model,
                                    const std::vector<BlockId>& prev_blocks,
                                    lts::StateId from, lts::StateId other) {
    for (const lts::Transition& t : model.out(from)) {
        const BlockId target_block = prev_blocks[t.target];
        bool matched = false;
        for (const lts::Transition& u : model.out(other)) {
            if (u.action == t.action && prev_blocks[u.target] == target_block) {
                matched = true;
                break;
            }
        }
        if (!matched) return Witness{t.action, t.target};
    }
    return std::nullopt;
}

FormulaPtr distinguish(const lts::Lts& model, const RefinementResult& refinement,
                       lts::StateId lhs, lts::StateId rhs, bool weak_modality) {
    const std::size_t round = refinement.separation_round(lhs, rhs);
    DPMA_ASSERT(round >= 1, "distinguish called on equivalent states");
    const std::vector<BlockId>& prev = refinement.rounds[round - 1];

    if (auto witness = find_witness(model, prev, lhs, rhs)) {
        // lhs moves with `action` into block B; every same-action move of rhs
        // lands outside B, so each rhs-successor is separated from our
        // successor strictly earlier than `round` -- the recursion terminates.
        const BlockId target_block = prev[witness->successor];
        std::vector<FormulaPtr> conjuncts;
        for (const lts::Transition& u : model.out(rhs)) {
            if (u.action != witness->action) continue;
            DPMA_ASSERT(prev[u.target] != target_block, "witness not distinguishing");
            conjuncts.push_back(
                distinguish(model, refinement, witness->successor, u.target, weak_modality));
        }
        return hml_diamond(model.actions()->name(witness->action), weak_modality,
                           hml_and(std::move(conjuncts)));
    }

    // Symmetric case: rhs has the extra capability; negate its formula.
    auto witness = find_witness(model, prev, rhs, lhs);
    DPMA_ASSERT(witness.has_value(), "states separated but no witness found");
    const BlockId target_block = prev[witness->successor];
    std::vector<FormulaPtr> conjuncts;
    for (const lts::Transition& u : model.out(lhs)) {
        if (u.action != witness->action) continue;
        conjuncts.push_back(
            distinguish(model, refinement, witness->successor, u.target, weak_modality));
    }
    (void)target_block;
    return hml_not(hml_diamond(model.actions()->name(witness->action), weak_modality,
                               hml_and(std::move(conjuncts))));
}

/// Strong check of two states of one system, with a formula on failure.
EquivalenceResult check_states(const lts::Lts& system, lts::StateId lhs, lts::StateId rhs,
                               bool weak_modality) {
    const RefinementResult refinement = refine_strong(system);
    EquivalenceResult result;
    result.equivalent = refinement.same_block(lhs, rhs);
    if (!result.equivalent) {
        result.distinguishing =
            distinguishing_formula(system, refinement, lhs, rhs, weak_modality);
    }
    return result;
}

}  // namespace

FormulaPtr distinguishing_formula(const lts::Lts& model,
                                  const RefinementResult& refinement,
                                  lts::StateId lhs, lts::StateId rhs,
                                  bool weak_modality) {
    DPMA_REQUIRE(!refinement.same_block(lhs, rhs),
                 "states are bisimilar; nothing to distinguish");
    return distinguish(model, refinement, lhs, rhs, weak_modality);
}

EquivalenceResult strongly_bisimilar(const lts::Lts& lhs, const lts::Lts& rhs) {
    DPMA_SPAN("bisim.strong_check", "bisim");
    const lts::UnionResult merged = lts::disjoint_union(lhs, rhs);
    return check_states(merged.combined, merged.initial_lhs, merged.initial_rhs,
                        /*weak_modality=*/false);
}

EquivalenceResult weakly_bisimilar(const lts::Lts& lhs, const lts::Lts& rhs) {
    return weakly_bisimilar(lts::disjoint_union(lhs, rhs));
}

EquivalenceResult weakly_bisimilar(const lts::UnionResult& merged) {
    DPMA_SPAN("bisim.weak_check", "bisim");
    // Mutually tau-reachable states are weakly bisimilar, so collapsing the
    // tau-SCCs is sound; it also leaves tau edges descending in id, which
    // refine_branching needs.
    const lts::TauCollapseResult collapsed = lts::collapse_tau_sccs(merged.combined);
    const lts::StateId root_lhs = collapsed.representative_of[merged.initial_lhs];
    const lts::StateId root_rhs = collapsed.representative_of[merged.initial_rhs];
    if (root_lhs == root_rhs) return EquivalenceResult{true, nullptr};

    // Branching bisimilarity implies weak bisimilarity, and it needs no
    // saturation: a shared block settles the check.
    const std::vector<BlockId> branching = refine_branching(collapsed.collapsed);
    if (branching[root_lhs] == branching[root_rhs]) return EquivalenceResult{true, nullptr};

    // Otherwise decide on the quotient, whose states are branching-, hence
    // weakly, bisimilar to their members: only that small system is
    // saturated.  It has no tau self-loops (see quotient), so it needs no
    // second collapse.  A weak formula built on it holds on the original
    // roots too, because weak modal formulas are invariant under weak
    // bisimilarity.
    const lts::Lts reduced = lts::saturate(quotient(collapsed.collapsed, branching));
    return check_states(reduced, branching[root_lhs], branching[root_rhs],
                        /*weak_modality=*/true);
}

}  // namespace dpma::bisim
