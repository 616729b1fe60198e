#pragma once

/// \file solve.hpp
/// Numerical solution of CTMCs: steady-state distribution by GTH
/// (Grassmann–Taksar–Heyman, direct and subtraction-free) on a sparse factor,
/// with the dense GTH kept as its reference, and transient analysis via
/// uniformisation.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ctmc/ctmc.hpp"

namespace dpma::ctmc {

/// Record of one steady-state solve, filled when the caller hangs a
/// SolveDiagnostics off SolveOptions.  Every steady-state solve is direct,
/// so iterations and final_residual stay 0; factor_entries is the size of
/// the factor the solve built (L and U entries for the sparse kernel, n^2
/// for the dense reference).
struct SolveDiagnostics {
    std::string method;            ///< "gth"
    std::size_t states = 0;        ///< size of the chain actually solved
    std::size_t iterations = 0;
    double final_residual = 0.0;
    std::size_t factor_entries = 0;

    /// JSON object with the fields above (valid per obs::json_valid); what
    /// exp::ResultSet embeds as a point's "diagnostics".
    [[nodiscard]] std::string json() const;
};

struct SolveOptions {
    /// Recurrent classes up to this size go to the dense reference GTH
    /// instead of the sparse kernel.  No production caller sets it; oracles
    /// pass SIZE_MAX to reach the reference.
    std::size_t dense_threshold = 0;
    /// When non-null, the solver writes its record here (the caller keeps
    /// ownership; one solve per struct).
    SolveDiagnostics* diagnostics = nullptr;
};

/// True when every state can reach every other state (the chain is one
/// strongly connected component).
[[nodiscard]] bool is_irreducible(const Ctmc& chain);

/// Bottom strongly connected components (recurrent classes) of the chain, in
/// the order Tarjan's search from state 0 completes them.  Each inner vector
/// lists the member states of one BSCC in ascending order.
[[nodiscard]] std::vector<std::vector<TangibleId>> bottom_sccs(const Ctmc& chain);

/// Steady-state distribution by the sparse GTH kernel (sparse.hpp), traced
/// as span "ctmc.solve" with its `factor_entries`.
///
/// Chains with transient states (e.g. a client's one-shot prebuffering
/// delay) are handled by restricting to the recurrent class (its rows,
/// sliced out of the chain; the ctmc.solve span records its size as
/// `recurrent`): the chain must have exactly one bottom SCC, which receives
/// all the probability mass; transient states get probability zero.  Multiple bottom SCCs raise
/// NumericalError (the long-run behaviour would depend on the initial state).
[[nodiscard]] std::vector<double> steady_state(const Ctmc& chain,
                                               const SolveOptions& options = {});

/// Dense GTH state reduction, the reference for the sparse kernel.  O(n^3)
/// time, O(n^2) memory; exact up to rounding, no subtractions.  Counted as
/// ctmc.solve.gth_dense.
[[nodiscard]] std::vector<double> steady_state_gth(const Ctmc& chain);

/// Streams the Poisson(lt) probabilities w_k = e^{-lt} lt^k / k! that weight
/// the uniformisation series, without a lgamma per term: each weight follows
/// from its predecessor via w_{k+1} = w_k * lt / (k+1).  For large lt the
/// head of the series underflows; those terms are walked in log space (they
/// report weight 0) until the mass becomes representable, then the recurrence
/// takes over.  Relative error grows like k ulps from the switch point —
/// invisible next to the 1e-12 truncation thresholds of the series users.
class PoissonWeights {
public:
    /// \p lt must be finite and >= 0 (the uniformisation rate times t).
    explicit PoissonWeights(double lt);

    /// Weight of the current term (starts at k = 0).
    [[nodiscard]] double current() const noexcept { return w_; }

    /// Moves to the next term.
    void advance() noexcept;

private:
    double lt_;
    double w_ = 0.0;
    double log_w_;          ///< tracked only while the head underflows
    std::uint64_t k_ = 0;
    bool in_log_;
};

/// Transient distribution pi(t) from \p initial via uniformisation with
/// adaptive truncation of the Poisson series: it stops past the mode once
/// the right-tail bound  sum_{j>k} w_j <= w_k lt / (k+1-lt)  drops below
/// 1e-12, and throws NumericalError (naming lt and k) if a safety cap of
/// 20 (lt+10) terms is reached first.  Each call builds the uniformised
/// matrix I + Q/lambda once, as incoming rows pre-divided by lambda, so a
/// step is one gather per state.  Traced as span "ctmc.transient" with
/// `states`, `entries` (generator entries) and `terms` (series length).
[[nodiscard]] std::vector<double> transient(
    const Ctmc& chain, const std::vector<std::pair<TangibleId, double>>& initial,
    double time);

/// Expected reward accumulated over [0, t]:  E[ integral_0^t r(X_s) ds ],
/// where r is a per-state reward rate vector.  Uses the uniformisation
/// identity  integral_0^t pois(L s, k) ds = P(Pois(L t) >= k+1) / L, and
/// truncates like transient() (tail bound below 1e-13).  The series sums
/// tail_k v_k per state, and the rewards enter once, in a final compensated
/// dot product.  Traced as span "ctmc.accumulated_reward" with the args of
/// transient()'s span.
/// Answers questions like "how much energy does a cold start cost in its
/// first second?" exactly on the Markovian model.
[[nodiscard]] double accumulated_reward(
    const Ctmc& chain, const std::vector<std::pair<TangibleId, double>>& initial,
    const std::vector<double>& reward_rates, double time);

}  // namespace dpma::ctmc
