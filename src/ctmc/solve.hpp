#pragma once

/// \file solve.hpp
/// Numerical solution of CTMCs: steady-state distribution via GTH
/// (Grassmann–Taksar–Heyman, subtraction-free and numerically stable, used
/// for small chains), Gauss–Seidel and power iteration (sparse, for large
/// chains), and transient analysis via uniformisation.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ctmc/ctmc.hpp"

namespace dpma::ctmc {

/// Convergence record of one steady-state solve, filled when the caller
/// hangs a SolveDiagnostics off SolveOptions.  For the iterative methods the
/// residual history is the max-norm change of successive iterates, thinned
/// to at most ~2048 samples (residual_stride reports the decimation factor);
/// GTH is direct, so it reports zero iterations and an empty history.
struct SolveDiagnostics {
    std::string method;            ///< "gth", "gauss_seidel" or "power"
    std::size_t states = 0;        ///< size of the chain actually solved
    std::size_t iterations = 0;
    double final_residual = 0.0;
    std::size_t residual_stride = 1;
    std::vector<double> residuals;

    /// JSON object with the fields above (valid per obs::json_valid); what
    /// exp::ResultSet embeds as a point's "diagnostics".
    [[nodiscard]] std::string json() const;

    void record_residual(double residual);

private:
    std::size_t pending_ = 0;  ///< samples skipped since the last kept one
};

/// Up to this many states the direct dense methods (GTH for steady state,
/// Gaussian elimination for hitting times) solve a chain; above it the
/// sparse ones do (Gauss–Seidel for steady state, the direct elimination of
/// sparse.hpp for hitting times).
inline constexpr std::size_t kDenseThreshold = 1500;

struct SolveOptions {
    double tolerance = 1e-12;  ///< relative max-norm change of successive iterates
    std::size_t max_iterations = 500000;
    std::size_t dense_threshold = kDenseThreshold;  ///< up to this size use GTH
    /// When non-null, the solver writes its convergence record here (the
    /// caller keeps ownership; one solve per struct).
    SolveDiagnostics* diagnostics = nullptr;
};

/// True when every state can reach every other state (the chain is one
/// strongly connected component).
[[nodiscard]] bool is_irreducible(const Ctmc& chain);

/// Bottom strongly connected components (recurrent classes) of the chain.
/// Each inner vector lists the member states of one BSCC.
[[nodiscard]] std::vector<std::vector<TangibleId>> bottom_sccs(const Ctmc& chain);

/// Steady-state distribution, dispatching on chain size: GTH below the dense
/// threshold, Gauss–Seidel (with power-iteration fallback) above.
///
/// Chains with transient states (e.g. a client's one-shot prebuffering
/// delay) are handled by restricting to the recurrent class (its rows,
/// sliced out of the chain; the ctmc.solve span records its size as
/// `recurrent`): the chain must have exactly one bottom SCC, which receives
/// all the probability mass; transient states get probability zero.  Multiple bottom SCCs raise
/// NumericalError (the long-run behaviour would depend on the initial state).
[[nodiscard]] std::vector<double> steady_state(const Ctmc& chain,
                                               const SolveOptions& options = {});

/// GTH state reduction.  O(n^3) time, O(n^2) memory; exact up to rounding,
/// no subtractions.
[[nodiscard]] std::vector<double> steady_state_gth(const Ctmc& chain);

/// Gauss–Seidel iteration on the balance equations pi Q = 0.
/// Throws NumericalError when the iteration limit is reached.
[[nodiscard]] std::vector<double> steady_state_gauss_seidel(const Ctmc& chain,
                                                            const SolveOptions& options = {});

/// Power iteration on the uniformised DTMC P = I + Q/Lambda.
[[nodiscard]] std::vector<double> steady_state_power(const Ctmc& chain,
                                                     const SolveOptions& options = {});

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
/// adaptive truncation of the Poisson series (truncation mass < 1e-12).
[[nodiscard]] std::vector<double> transient(
    const Ctmc& chain, const std::vector<std::pair<TangibleId, double>>& initial,
    double time);

/// Expected reward accumulated over [0, t]:  E[ integral_0^t r(X_s) ds ],
/// where r is a per-state reward rate vector.  Uses the uniformisation
/// identity  integral_0^t pois(L s, k) ds = P(Pois(L t) >= k+1) / L.
/// Answers questions like "how much energy does a cold start cost in its
/// first second?" exactly on the Markovian model.
[[nodiscard]] double accumulated_reward(
    const Ctmc& chain, const std::vector<std::pair<TangibleId, double>>& initial,
    const std::vector<double>& reward_rates, double time);

}  // namespace dpma::ctmc
