#pragma once

/// \file trace_equiv.hpp
/// Weak (observational) trace equivalence: two systems are equivalent when
/// they exhibit the same set of finite sequences of visible actions,
/// ignoring tau.  This is the equivalence underlying the *trace-based*
/// noninterference properties (NNI/SNNI) of the Focardi–Gorrieri
/// classification the paper cites [7].  It is strictly coarser than weak
/// bisimilarity: in particular it cannot see deadlocks — which is exactly
/// why the simplified rpc system of Sect. 2.3 passes the trace-based check
/// while failing the bisimulation-based one (see the Sect. 3 bench).
///
/// Decided by subset construction over the weak transition relation and a
/// BFS over pairs of determinised state sets (prefix-closed languages are
/// equal iff no reachable pair enables a visible action on one side only).

#include <string>
#include <vector>

#include "lts/lts.hpp"
#include "lts/ops.hpp"

namespace dpma::bisim {

struct TraceEquivalenceResult {
    bool equivalent = false;
    /// When not equivalent: a shortest distinguishing trace (visible action
    /// names) and which side can perform it.
    std::vector<std::string> distinguishing_trace;
    bool lhs_has_trace = false;
    /// Determinised pairs explored (diagnostic).
    std::size_t explored_pairs = 0;
};

/// Checks weak trace equivalence of the two roots of \p merged, initial_lhs
/// against initial_rhs.  Throws NumericalError when the subset construction
/// exceeds \p max_pairs pairs (exponential in the worst case; the
/// methodology's models are far below).
[[nodiscard]] TraceEquivalenceResult weakly_trace_equivalent(
    const lts::UnionResult& merged, std::size_t max_pairs = 1u << 20);

/// Checks weak trace equivalence of the initial states of \p lhs and \p rhs:
/// the union entry above on disjoint_union(lhs, rhs).
[[nodiscard]] TraceEquivalenceResult weakly_trace_equivalent(
    const lts::Lts& lhs, const lts::Lts& rhs, std::size_t max_pairs = 1u << 20);

}  // namespace dpma::bisim
