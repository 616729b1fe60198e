#pragma once

/// \file absorption.hpp
/// First-passage analysis on CTMCs: expected time to hit a target set of
/// states.  Complements the simulator's run_until (which handles general
/// distributions and reward thresholds) with exact answers on the Markovian
/// model — e.g. "expected time until the access-point buffer first
/// overflows" as a function of the DPM awake period.

#include <cstddef>
#include <vector>

#include "ctmc/ctmc.hpp"

namespace dpma::ctmc {

/// Expected hitting time h[s] of the target set from every state.
///
///  * h[s] = 0 for target states;
///  * h[s] = +infinity for states that cannot reach the target set
///    (including absorbing non-target states);
///  * otherwise the unique solution of  h(s) = 1/E(s) + sum_t P(s,t) h(t).
///
/// Solved by the direct sparse elimination in index order (GTH-style pivots,
/// no subtraction; see DESIGN.md §5), which throws NumericalError when its
/// factor would exceed 2^25 entries.  Up to \p dense_threshold unknown
/// states, dense Gauss–Jordan elimination with partial pivoting solves
/// instead: the oracle for the sparse path, reached only by passing a
/// threshold.  Both are traced as span "ctmc.hitting" and counted as
/// ctmc.solve.sparse_elimination / ctmc.solve.dense_elimination.
[[nodiscard]] std::vector<double> expected_hitting_times(
    const Ctmc& chain, const std::vector<char>& targets, std::size_t dense_threshold = 0);

/// Probability of reaching the target set at all, per state (1 for targets),
/// by the same direct sparse elimination at every size.
[[nodiscard]] std::vector<double> hitting_probabilities(const Ctmc& chain,
                                                        const std::vector<char>& targets);

}  // namespace dpma::ctmc
