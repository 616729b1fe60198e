#pragma once

/// \file ctmc.hpp
/// Continuous-time Markov chains extracted from a composed stochastic model.
///
/// The composed graph may contain *vanishing* states (states with enabled
/// immediate transitions; by maximal progress the timed transitions of such
/// states are pre-empted).  Construction eliminates them, producing a CTMC
/// over the *tangible* states, while keeping enough structure to compute
/// the firing frequency of every action — including actions that only occur
/// on immediate transitions — once the steady-state vector is known.

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "adl/compose.hpp"
#include "lts/lts.hpp"

namespace dpma::ctmc {

/// Index of a tangible state in the CTMC (dense, 0-based).
using TangibleId = std::uint32_t;

inline constexpr TangibleId kNoTangible = 0xFFFFFFFFu;

/// One entry of the sparse generator: `rate` from the row state to `target`.
struct RateEntry {
    TangibleId target;
    double rate;
};

/// Sparse CTMC in compressed-row form: row s is one contiguous slice of a
/// single RateEntry array, with distinct targets and no self-loop.
/// Diagonal entries are implicit (exit rates).
class Ctmc {
public:
    /// One rate of a chain under construction: `rate` from `from` to `to`.
    struct Triplet {
        TangibleId from;
        TangibleId to;
        double rate;
    };

    Ctmc() = default;

    /// Chain over \p num_states states with the given rates.  Parallel rates
    /// between one pair are summed in the order given, self-loops are dropped
    /// (they do not affect the dynamics), and every rate must be positive.
    /// Each row lists its targets in first-seen order.
    explicit Ctmc(std::size_t num_states, const std::vector<Triplet>& rates = {});

    /// Chain from finished rows: row s is entries[row_start[s] ..
    /// row_start[s+1]), with distinct targets, no self-loop and positive
    /// rates (checked, except distinctness).  Exit rates are the row sums.
    Ctmc(std::vector<std::size_t> row_start, std::vector<RateEntry> entries);

    [[nodiscard]] std::size_t num_states() const noexcept { return row_start_.size() - 1; }
    [[nodiscard]] std::size_t num_entries() const noexcept { return entries_.size(); }
    [[nodiscard]] std::span<const RateEntry> row(TangibleId s) const {
        return {entries_.data() + row_start_[s], entries_.data() + row_start_[s + 1]};
    }
    [[nodiscard]] double exit_rate(TangibleId s) const { return exit_[s]; }

    /// Largest exit rate (uniformisation constant baseline).
    [[nodiscard]] double max_exit_rate() const;

private:
    std::vector<std::size_t> row_start_{0};
    std::vector<RateEntry> entries_;
    std::vector<double> exit_;
};

/// Immediate branch out of a vanishing state after maximal progress and
/// weight normalisation.
struct VanishingBranch {
    lts::StateId target;    ///< composed-graph state id
    lts::ActionId action;   ///< label, for transition rewards
    double probability;     ///< branch probability (weights normalised)
};

/// One rate-independent term of the action frequencies of a tangible state
/// t: the expected number of firings of `action` along the immediate paths
/// that t's timed transitions of `slot` enter, i.e. branch probabilities
/// multiplied along each path and summed over the paths.  t contributes
/// pi_t * rate(slot) * coefficient firings of `action` per unit of time.
struct FrequencyTerm {
    double coefficient;
    lts::SlotId slot;
    lts::ActionId action;
};
static_assert(sizeof(FrequencyTerm) == 16);

/// The frequency terms of every tangible state, flat: those of state t are
/// terms[term_start[t] .. term_start[t+1]), one per (slot, action) in the
/// order t's transitions first reach them.
struct FrequencyTerms {
    std::vector<std::size_t> term_start;
    std::vector<FrequencyTerm> terms;

    [[nodiscard]] std::span<const FrequencyTerm> of(TangibleId t) const {
        return {terms.data() + term_start[t], terms.data() + term_start[t + 1]};
    }
};

/// The part of a CTMC extraction that no exponential rate changes: which
/// states are tangible, the immediate branches and the initial
/// distribution.  build_markov derives it once per composed structure (and
/// immediate slots and initial state) and shares it, read-only, among the
/// MarkovModels built on every rate-patched copy.  The frequency terms are
/// derived from it too, but only when a measure first asks for them.
struct VanishingElimination {
    /// tangible_of[g] = dense CTMC index of composed state g, or kNoTangible.
    std::vector<TangibleId> tangible_of;
    /// orig_of[t] = composed-graph state id of CTMC state t.
    std::vector<lts::StateId> orig_of;

    /// The normalised immediate branches of every composed state, flat: those
    /// of state g are branches[branch_start[g] .. branch_start[g+1]), none
    /// for a tangible state.  The vanishing subgraph is acyclic (checked
    /// during construction).
    std::vector<std::size_t> branch_start;
    std::vector<VanishingBranch> branches;

    /// Vanishing states in a topological order of the vanishing subgraph
    /// (sources first).
    std::vector<lts::StateId> vanishing_topo_order;

    /// Initial probability distribution over tangible states (the composed
    /// initial state, pushed through vanishing states if needed).
    std::vector<std::pair<TangibleId, double>> initial_distribution;

    [[nodiscard]] bool is_tangible(lts::StateId g) const {
        return tangible_of[g] != kNoTangible;
    }
    [[nodiscard]] std::span<const VanishingBranch> branches_of(lts::StateId g) const {
        return {branches.data() + branch_start[g], branches.data() + branch_start[g + 1]};
    }

    /// The frequency terms of the tangible states.  \p graph must share the
    /// structure and the immediate slots this elimination was derived from
    /// (any copy build_markov accepted with it will do).  The first call
    /// derives them, pushing unit mass from each tangible state's timed
    /// transitions through the vanishing states they reach, traced as span
    /// "ctmc.frequency_terms" (args `vanishing`, `terms`); every later call,
    /// also a concurrent one, returns the same table.
    [[nodiscard]] const FrequencyTerms& frequency_terms(const lts::Lts& graph) const;

private:
    mutable std::once_flag terms_once_;
    mutable FrequencyTerms terms_;
};

/// Result of extracting a CTMC from a composed model: the chain, plus
/// read-only views of the shared VanishingElimination behind it.
struct MarkovModel {
    MarkovModel(Ctmc chain_in, std::shared_ptr<const VanishingElimination> elimination_in)
        : chain(std::move(chain_in)), elimination(std::move(elimination_in)) {}

    Ctmc chain;
    /// Shared by every build on copies of one composed structure, with the
    /// frequency terms it derives lazily; the members below view it.
    /// Const, so a moved-from model keeps it too.
    const std::shared_ptr<const VanishingElimination> elimination;

    const std::vector<TangibleId>& tangible_of = elimination->tangible_of;
    const std::vector<lts::StateId>& orig_of = elimination->orig_of;
    const std::vector<std::size_t>& branch_start = elimination->branch_start;
    const std::vector<VanishingBranch>& branches = elimination->branches;
    const std::vector<lts::StateId>& vanishing_topo_order = elimination->vanishing_topo_order;
    const std::vector<std::pair<TangibleId, double>>& initial_distribution =
        elimination->initial_distribution;

    [[nodiscard]] bool is_tangible(lts::StateId g) const { return elimination->is_tangible(g); }
    [[nodiscard]] std::span<const VanishingBranch> branches_of(lts::StateId g) const {
        return elimination->branches_of(g);
    }
};

/// Extracts the CTMC.  Requirements checked:
///  * every transition is exponential, immediate or (RateUnspecified ==
///    forbidden) — a functional model cannot be solved;
///  * no passive transition survives composition;
///  * the vanishing subgraph (after maximal progress) has no cycles;
///  * every tangible state has at least one outgoing timed transition
///    unless \p allow_absorbing is true.
///
/// Two stages.  The elimination depends on no exponential rate, so it runs
/// once per composed structure and is kept with it (lts::Lts::memo), keyed
/// by the immediate slots (priority, weight) and the initial state: four
/// flat passes classify and normalise the branches, order the vanishing
/// states (Kahn), compute each vanishing state's distribution over the
/// tangible states it enters in reverse topological order, and fix the
/// generator's pattern — per tangible row its targets, per entry its terms
/// (rate slot, path probability).  Every call, the first included, then
/// checks the rates and fills the generator in O(slots + terms): each entry
/// sums rate × probability over its terms in first-seen transition order,
/// so the result is the same on every standard library, and a rate-patched
/// copy (exp::with_exp_rate, with_delay, ...) gets bit for bit the chain a
/// fresh composition would.  A copy that changes the key (with_delay 0
/// makes a slot immediate) rebuilds the elimination and replaces it.  The
/// elimination's frequency terms are not derived here: the first
/// TRANS_REWARD measure on any model sharing it derives them, once.
[[nodiscard]] MarkovModel build_markov(const adl::ComposedModel& model,
                                       bool allow_absorbing = false);

}  // namespace dpma::ctmc
