#pragma once

/// \file absorption.hpp
/// First-passage analysis on CTMCs: expected time to hit a target set of
/// states.  Complements the simulator's run_until (which handles general
/// distributions and reward thresholds) with exact answers on the Markovian
/// model — e.g. "expected time until the access-point buffer first
/// overflows" as a function of the DPM awake period.

#include <vector>

#include "ctmc/ctmc.hpp"
#include "ctmc/solve.hpp"

namespace dpma::ctmc {

/// Expected hitting time h[s] of the target set from every state.
///
///  * h[s] = 0 for target states;
///  * h[s] = +infinity for states that cannot reach the target set
///    (including absorbing non-target states);
///  * otherwise the unique solution of  h(s) = 1/E(s) + sum_t P(s,t) h(t).
///
/// Solved by dense Gaussian elimination with partial pivoting up to
/// \p dense_threshold unknown states, and above it by the direct sparse
/// elimination in index order (GTH-style pivots, no subtraction; see
/// DESIGN.md §5), which throws NumericalError when its factor would exceed
/// 2^25 entries.  Both are traced as span "ctmc.hitting" and counted as
/// ctmc.solve.dense_elimination / ctmc.solve.sparse_elimination.
[[nodiscard]] std::vector<double> expected_hitting_times(
    const Ctmc& chain, const std::vector<char>& targets,
    std::size_t dense_threshold = kDenseThreshold);

/// Probability of reaching the target set at all, per state (1 for targets),
/// by the same direct sparse elimination at every size.
[[nodiscard]] std::vector<double> hitting_probabilities(const Ctmc& chain,
                                                        const std::vector<char>& targets);

}  // namespace dpma::ctmc
