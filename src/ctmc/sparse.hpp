#pragma once

/// \file sparse.hpp
/// Internal to dpma_ctmc: compressed sparse rows, the two graph helpers
/// built on them, the Gauss–Seidel kernel behind the iterative steady-state
/// solve, and the direct elimination behind every first-passage solve
/// (hitting times, hitting probabilities).

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

/// The chain's transposed rate matrix: row t lists (s, rate(s,t)) with s
/// ascending — the incoming rates the balance equations sum over.  (The
/// chain's own rows are already compressed; read them through Ctmc::row.)
[[nodiscard]] Csr transpose(const Ctmc& chain);

/// Marks every state reachable from a seed (seed[s] != 0) along the rows
/// of \p graph: breadth-first, seeds included.
[[nodiscard]] std::vector<char> reach(const Csr& graph, std::vector<char> seeds);

/// Counts one finished solve as ctmc.solve.<method> in the registry (and its
/// iteration count in the ctmc.solve.iterations histogram, when nonzero),
/// closes out \p diagnostics when non-null, and logs it at debug level.
void record_solve(SolveDiagnostics* diagnostics, const char* method, std::size_t states,
                  std::size_t iterations, double residual);

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

/// Most entries the factor of eliminate() may hold: 2^25 column/value pairs,
/// ~400 MB.  A chain that fills beyond it ends in NumericalError instead of
/// an out-of-memory kill.
inline constexpr std::size_t kFactorBudget = std::size_t{1} << 25;

/// A direct solve: the solution and the number of off-diagonal entries its
/// factor held.
struct Elimination {
    std::vector<double> x;
    std::size_t factor_entries = 0;
};

/// Solves the first-passage system  (leak_i + sum_j a_ij) x_i - sum_j a_ij x_j
/// = b_i,  where a holds the non-negative rates between unknowns and leak_i
/// the rate from i to states outside the unknown set, by sparse Gaussian
/// elimination in index order followed by back substitution.  As in GTH,
/// each pivot is leak_i plus the remaining off-diagonal rates of row i — a
/// sum of non-negative terms, never a subtraction — so no pivoting is
/// needed and nothing cancels.  Records the solve as method
/// "sparse_elimination"; throws NumericalError when the factor would exceed
/// \p budget entries or a pivot is zero (some unknown cannot leak).
[[nodiscard]] Elimination eliminate(const Csr& a, std::vector<double> leak,
                                    std::vector<double> b,
                                    std::size_t budget = kFactorBudget);

}  // namespace dpma::ctmc
