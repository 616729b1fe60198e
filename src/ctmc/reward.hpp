#pragma once

/// \file reward.hpp
/// Evaluation of reward-based measures on a solved CTMC.
///
/// STATE_REWARD clauses weight the steady-state probability of the tangible
/// states satisfying the predicate.  TRANS_REWARD clauses weight the firing
/// frequency of the matching actions; frequencies of actions that occur on
/// immediate transitions are recovered by propagating entry frequencies
/// through the (acyclic) vanishing subgraph, so throughput-style measures
/// can be attached to any action of the model, timed or immediate.

#include <span>
#include <vector>

#include "adl/measure.hpp"
#include "ctmc/ctmc.hpp"

namespace dpma::ctmc {

/// Firing frequency (events per unit of time) of every action label, given
/// the steady-state distribution over tangible states.  Indexed by the
/// composed model's ActionId.  Each call walks every tangible state's
/// transitions and the vanishing subgraph once, counted as
/// ctmc.frequency_walks.
[[nodiscard]] std::vector<double> action_frequencies(const MarkovModel& markov,
                                                     const adl::ComposedModel& model,
                                                     const std::vector<double>& pi);

/// Value of every measure at steady state, in order, bit-identical to one
/// evaluate_measure call per measure.  The action frequencies are computed
/// once, and only if some clause is TRANS_REWARD.
[[nodiscard]] std::vector<double> evaluate_measures(const MarkovModel& markov,
                                                    const adl::ComposedModel& model,
                                                    const std::vector<double>& pi,
                                                    std::span<const adl::Measure> measures);

/// Value of one measure at steady state: evaluate_measures on \p measure
/// alone.
[[nodiscard]] double evaluate_measure(const MarkovModel& markov,
                                      const adl::ComposedModel& model,
                                      const std::vector<double>& pi,
                                      const adl::Measure& measure);

/// Steady-state probability that the predicate holds (state predicates only).
[[nodiscard]] double state_probability(const MarkovModel& markov,
                                       const adl::ComposedModel& model,
                                       const std::vector<double>& pi,
                                       const adl::Predicate& predicate);

}  // namespace dpma::ctmc
