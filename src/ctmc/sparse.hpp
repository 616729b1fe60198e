#pragma once

/// \file sparse.hpp
/// Internal to dpma_ctmc: compressed sparse rows, the two graph helpers
/// built on them, and the two direct eliminations: sparse GTH behind every
/// steady-state solve, and the first-passage elimination behind hitting
/// times and hitting probabilities.

#include <cstddef>
#include <vector>

#include "ctmc/ctmc.hpp"

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

/// Counts one finished direct solve as ctmc.solve.<method> in the registry
/// and logs it at debug level.
void record_solve(const char* method, std::size_t states, std::size_t factor_entries);

/// Most slots the factor of eliminate() or sparse_gth() may hold: 2^25.
/// eliminate() stores a column/value pair per entry (12 B, ~400 MB at the
/// budget); sparse_gth() stores a bare double per slot of its L skyline
/// and U profile rows, zeros included (8 B, ~270 MB).  A chain that fills
/// beyond it ends in NumericalError instead of an out-of-memory kill.
inline constexpr std::size_t kFactorBudget = std::size_t{1} << 25;

/// A direct solve: the solution, the number of nonzero off-diagonal
/// entries its factor held, and the slots that held them (stored zeros
/// included; equal to the entries for an indexed factor).
struct Elimination {
    std::vector<double> x;
    std::size_t factor_entries = 0;
    std::size_t factor_slots = 0;
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

/// Stationary distribution of an irreducible chain by sparse GTH: up-looking
/// row elimination in reverse state-index order, each pivot the remaining
/// off-diagonal rates of its row (no subtraction), the multipliers
/// L(i,k) = w[k] / pivot[k] kept, then back substitution from the last
/// eliminated state down, which only adds non-negative terms.  L is a dense
/// skyline over each row's envelope, allocated once from an O(nnz) pre-pass.
/// U row k is dense over its profile (k, last_k], zeros included, so each
/// fold is one contiguous a*x + y; stored zeros add +0 to non-negative sums,
/// so the result is the one the nonzeros alone give, bit for bit.  A U row
/// lives in a sliding window until the last row whose envelope reaches its
/// column has been eliminated.  Records the solve as method "gth";
/// factor_entries counts nonzeros, factor_slots the L and U slots.  Throws
/// NumericalError when the slots would exceed \p budget, or when a pivot is
/// zero (the chain is not irreducible).
[[nodiscard]] Elimination sparse_gth(const Ctmc& chain, std::size_t budget = kFactorBudget);

}  // namespace dpma::ctmc
