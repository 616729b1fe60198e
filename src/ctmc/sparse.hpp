#pragma once

/// \file sparse.hpp
/// Internal to dpma_ctmc: compressed sparse rows, the two graph helpers
/// built on them, and the one Gauss–Seidel kernel behind every iterative
/// solve (steady state, hitting times, hitting probabilities).

#include <cstddef>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "ctmc/solve.hpp"

namespace dpma::ctmc {

/// Sparse matrix in compressed-row form: row i holds the entries
/// (col[k], val[k]) for k in [start[i], start[i+1]).
struct Csr {
    std::vector<std::size_t> start{0};
    std::vector<TangibleId> col;
    std::vector<double> val;

    [[nodiscard]] std::size_t rows() const noexcept { return start.size() - 1; }
};

/// The chain's rate matrix as CSR.  Row s lists (t, rate(s,t)); when
/// \p transposed, row t lists (s, rate(s,t)) with s ascending — the incoming
/// rates the balance equations sum over.
[[nodiscard]] Csr adjacency(const Ctmc& chain, bool transposed);

/// Marks every state reachable from a seed (seed[s] != 0) along the rows
/// of \p graph: breadth-first, seeds included.
[[nodiscard]] std::vector<char> reach(const Csr& graph, std::vector<char> seeds);

/// Solves x_i = (b_i + sum_j a_ij x_j) / d_i by Gauss–Seidel sweeps,
/// starting from \p x and updating it in place (b empty means b = 0).  With
/// \p normalise, x is rescaled to unit mass after every sweep (the
/// steady-state case).  Stops when the max-norm change of a sweep is at most
/// tolerance × scale, where the scale is 1 for a normalised vector and
/// max|x| otherwise.  Records the solve as method "gauss_seidel" in the
/// registry and in \p diagnostics (when non-null); throws NumericalError
/// with the iteration count and last residual when \p max_iterations sweeps
/// do not converge, or when some d_i is not positive.
void gauss_seidel(const Csr& a, const std::vector<double>& b,
                  const std::vector<double>& d, std::vector<double>& x, bool normalise,
                  double tolerance, std::size_t max_iterations,
                  SolveDiagnostics* diagnostics);

}  // namespace dpma::ctmc
