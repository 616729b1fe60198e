#pragma once

/// \file partition.hpp
/// Signature-based partition refinement for strong bisimulation, recording
/// the per-round partitions, and for branching bisimilarity on tau-acyclic
/// systems.  The strong round history is what makes it possible to construct
/// distinguishing formulae with guaranteed termination (Cleaveland, "On
/// automatically explaining bisimulation inequivalence").

#include <cstdint>
#include <vector>

#include "lts/lts.hpp"

namespace dpma::bisim {

using BlockId = std::uint32_t;

/// Outcome of the refinement: rounds[0] is the trivial partition (all states
/// in block 0); rounds.back() is the stable partition, i.e. strong
/// bisimilarity on the input system.  Each later round refines the previous
/// one (blocks only ever split).
struct RefinementResult {
    std::vector<std::vector<BlockId>> rounds;

    [[nodiscard]] const std::vector<BlockId>& final_blocks() const {
        return rounds.back();
    }

    [[nodiscard]] bool same_block(lts::StateId a, lts::StateId b) const {
        return final_blocks()[a] == final_blocks()[b];
    }

    /// First round index at which \p a and \p b land in different blocks;
    /// returns 0 when they are never separated (i.e. bisimilar).
    [[nodiscard]] std::size_t separation_round(lts::StateId a, lts::StateId b) const;
};

/// Runs signature refinement to a fixpoint.  Rates are ignored: this is the
/// functional notion of bisimulation used by the noninterference check.
///
/// The refiner works incrementally on the CSR arrays of \p model: after the
/// first round only *dirty* states — those with a successor whose block
/// changed in the previous round — are re-signed, into a preallocated
/// signature arena.  \p jobs > 1 computes the per-round signatures on a
/// thread pool; block splitting and numbering stay serial (new sub-blocks
/// numbered by first-state occurrence), so the result is bit-identical for
/// every jobs value.  jobs == 0 uses exp::default_jobs() (DPMA_JOBS).
[[nodiscard]] RefinementResult refine_strong(const lts::Lts& model, std::size_t jobs);

/// Same, with jobs == 0 (the DPMA_JOBS / hardware default).
[[nodiscard]] RefinementResult refine_strong(const lts::Lts& model);

/// Branching bisimilarity on \p model by signature refinement (Blom & Orzan):
/// the final block of every state, blocks numbered as in refine_strong.
///
/// Precondition: every tau transition goes from a higher to a lower state
/// id, so the system is tau-acyclic and a walk by ascending id sees every
/// tau-successor first.  lts::collapse_tau_sccs guarantees that order.  A
/// tau move into the mover's own block is *inert*; a state's signature is
/// its other moves as (action, target block) plus the signatures of its
/// inert tau-successors, so no weak saturation is needed.  Every round
/// re-signs all states against the previous partition and splits blocks by
/// signature, until nothing splits.  Branching bisimilarity is finer than
/// weak bisimilarity, so quotienting by it first is sound for weak checks.
[[nodiscard]] std::vector<BlockId> refine_branching(const lts::Lts& model);

/// Quotient of \p model by the partition \p blocks (one block id per state,
/// e.g. RefinementResult::final_blocks() or refine_branching()): one state per
/// block, transitions deduplicated.  A block's moves are those of its
/// lowest-id member.  That is exact for a strong partition, whose members
/// share their moves, and for a branching one under refine_branching's
/// precondition: the lowest-id member has no inert tau move, so its moves
/// are the block's whole signature and the quotient has no tau self-loops.
/// Keeps the block of the initial state as the new initial state.
[[nodiscard]] lts::Lts quotient(const lts::Lts& model, const std::vector<BlockId>& blocks);

}  // namespace dpma::bisim
