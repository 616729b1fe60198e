#include "ctmc/absorption.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/error.hpp"
#include "ctmc/sparse.hpp"

namespace dpma::ctmc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Sweep cap of the iterative first-passage solves.  Stiff chains need a lot:
/// the streaming AP-buffer overflow at awake period 50 ms takes ~530k sweeps.
constexpr std::size_t kMaxSweeps = 1'000'000;

/// First-passage equations over the states marked \p unknown, re-indexed
/// densely:  E(s) x(s) = b(s) + sum_{t unknown} rate(s,t) x(t).
/// into_targets[i] is the rate from states[i] into the target set; edges to
/// any other state (where x is known) are dropped.
struct PassageSystem {
    std::vector<TangibleId> states;  ///< dense index -> chain state
    Csr a;
    std::vector<double> exit;
    std::vector<double> into_targets;
};

PassageSystem passage_system(const Ctmc& chain, const std::vector<char>& targets,
                             const std::vector<char>& unknown) {
    PassageSystem out;
    std::vector<TangibleId> index_of(chain.num_states(), kNoTangible);
    for (TangibleId s = 0; s < chain.num_states(); ++s) {
        if (unknown[s]) {
            index_of[s] = static_cast<TangibleId>(out.states.size());
            out.states.push_back(s);
        }
    }
    for (const TangibleId s : out.states) {
        double into_targets = 0.0;
        for (const RateEntry& e : chain.row(s)) {
            if (targets[e.target]) {
                into_targets += e.rate;
            } else if (index_of[e.target] != kNoTangible) {
                out.a.col.push_back(index_of[e.target]);
                out.a.val.push_back(e.rate);
            }
        }
        out.a.start.push_back(out.a.col.size());
        out.exit.push_back(chain.exit_rate(s));
        out.into_targets.push_back(into_targets);
    }
    return out;
}

/// Dense solve of the hitting-time equations (b = 1) by Gaussian
/// elimination with partial pivoting.
std::vector<double> solve_dense(const PassageSystem& system) {
    const std::size_t m = system.states.size();
    std::vector<std::vector<double>> a(m, std::vector<double>(m + 1, 0.0));
    for (std::size_t i = 0; i < m; ++i) {
        a[i][i] = system.exit[i];
        a[i][m] = 1.0;
        for (std::size_t k = system.a.start[i]; k < system.a.start[i + 1]; ++k) {
            a[i][system.a.col[k]] -= system.a.val[k];
        }
    }
    for (std::size_t col = 0; col < m; ++col) {
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < m; ++r) {
            if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
        }
        if (std::abs(a[pivot][col]) < 1e-300) {
            throw NumericalError("singular hitting-time system");
        }
        std::swap(a[col], a[pivot]);
        for (std::size_t r = 0; r < m; ++r) {
            if (r == col || a[r][col] == 0.0) continue;
            const double f = a[r][col] / a[col][col];
            for (std::size_t c = col; c <= m; ++c) {
                a[r][c] -= f * a[col][c];
            }
        }
    }
    std::vector<double> h(m);
    for (std::size_t i = 0; i < m; ++i) {
        h[i] = a[i][m] / a[i][i];
    }
    return h;
}

/// Iterative solve of the first-passage system with right-hand side \p b.
std::vector<double> solve_iterative(const PassageSystem& system,
                                    const std::vector<double>& b) {
    std::vector<double> x(system.states.size(), 0.0);
    gauss_seidel(system.a, b, system.exit, x, /*normalise=*/false,
                 SolveOptions{}.tolerance, kMaxSweeps, nullptr);
    return x;
}

}  // namespace

std::vector<double> expected_hitting_times(const Ctmc& chain,
                                           const std::vector<char>& targets,
                                           std::size_t dense_threshold) {
    const std::size_t n = chain.num_states();
    DPMA_REQUIRE(targets.size() == n, "target mask does not match the chain");
    DPMA_REQUIRE(std::find(targets.begin(), targets.end(), 1) != targets.end(),
                 "empty target set");

    // h(s) is finite iff the target is hit with probability 1 from s, i.e.
    // iff s cannot reach any state from which the target is unreachable.
    const Csr incoming = adjacency(chain, true);
    const std::vector<char> reachable = reach(incoming, targets);
    std::vector<char> traps(n, 0);
    for (TangibleId s = 0; s < n; ++s) traps[s] = !targets[s] && !reachable[s];
    const std::vector<char> diverging = reach(incoming, std::move(traps));

    std::vector<char> unknown(n, 0);
    std::vector<double> result(n, kInf);
    for (TangibleId s = 0; s < n; ++s) {
        if (targets[s]) result[s] = 0.0;
        unknown[s] = !targets[s] && !diverging[s];
    }
    const PassageSystem system = passage_system(chain, targets, unknown);
    if (system.states.empty()) return result;
    const std::vector<double> h =
        system.states.size() <= dense_threshold
            ? solve_dense(system)
            : solve_iterative(system, std::vector<double>(system.states.size(), 1.0));
    for (std::size_t i = 0; i < h.size(); ++i) result[system.states[i]] = h[i];
    return result;
}

std::vector<double> hitting_probabilities(const Ctmc& chain,
                                          const std::vector<char>& targets) {
    const std::size_t n = chain.num_states();
    DPMA_REQUIRE(targets.size() == n, "target mask does not match the chain");
    // p(s) = sum_t P(s,t) p(t); p = 1 on targets, 0 where they are unreachable.
    const std::vector<char> reachable = reach(adjacency(chain, true), targets);
    std::vector<char> unknown(n, 0);
    std::vector<double> result(n, 0.0);
    for (TangibleId s = 0; s < n; ++s) {
        if (targets[s]) result[s] = 1.0;
        unknown[s] = !targets[s] && reachable[s];
    }
    const PassageSystem system = passage_system(chain, targets, unknown);
    if (system.states.empty()) return result;
    const std::vector<double> p = solve_iterative(system, system.into_targets);
    for (std::size_t i = 0; i < p.size(); ++i) result[system.states[i]] = p[i];
    return result;
}

}  // namespace dpma::ctmc
