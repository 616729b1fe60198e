#include "ctmc/absorption.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "core/error.hpp"
#include "ctmc/sparse.hpp"
#include "obs/trace.hpp"

namespace dpma::ctmc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// First-passage equations over the states marked \p unknown, re-indexed
/// densely:  E(s) x(s) = b(s) + sum_{t unknown} rate(s,t) x(t).
/// leak[i] is the rate from states[i] to every state outside the unknown
/// set and into_targets[i] the part of it that enters the target set; the
/// edges behind both (where x is known) are dropped from a.
struct PassageSystem {
    std::vector<TangibleId> states;  ///< dense index -> chain state
    Csr a;
    std::vector<double> exit;
    std::vector<double> leak;
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
        double leak = 0.0;
        double into_targets = 0.0;
        for (const RateEntry& e : chain.row(s)) {
            if (index_of[e.target] != kNoTangible) {
                out.a.col.push_back(index_of[e.target]);
                out.a.val.push_back(e.rate);
                continue;
            }
            leak += e.rate;
            if (targets[e.target]) into_targets += e.rate;
        }
        out.a.start.push_back(out.a.col.size());
        out.exit.push_back(chain.exit_rate(s));
        out.leak.push_back(leak);
        out.into_targets.push_back(into_targets);
    }
    return out;
}

/// Dense solve of the hitting-time equations (b = 1) by Gauss–Jordan
/// elimination with partial pivoting on one row-major m x (m+1) buffer.
std::vector<double> solve_dense(const PassageSystem& system) {
    const std::size_t m = system.states.size();
    const std::size_t stride = m + 1;
    std::vector<double> a(m * stride, 0.0);
    const auto row = [&](std::size_t r) { return a.data() + r * stride; };
    for (std::size_t i = 0; i < m; ++i) {
        row(i)[i] = system.exit[i];
        row(i)[m] = 1.0;
        for (std::size_t k = system.a.start[i]; k < system.a.start[i + 1]; ++k) {
            row(i)[system.a.col[k]] -= system.a.val[k];
        }
    }
    for (std::size_t col = 0; col < m; ++col) {
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < m; ++r) {
            if (std::abs(row(r)[col]) > std::abs(row(pivot)[col])) pivot = r;
        }
        if (std::abs(row(pivot)[col]) < 1e-300) {
            throw NumericalError("singular hitting-time system");
        }
        if (pivot != col) std::swap_ranges(row(col), row(col + 1), row(pivot));
        const double* pivot_row = row(col);
        for (std::size_t r = 0; r < m; ++r) {
            double* target = row(r);
            if (r == col || target[col] == 0.0) continue;
            const double f = target[col] / pivot_row[col];
            for (std::size_t c = col; c <= m; ++c) {
                target[c] -= f * pivot_row[c];
            }
        }
    }
    std::vector<double> h(m);
    for (std::size_t i = 0; i < m; ++i) {
        h[i] = row(i)[m] / row(i)[i];
    }
    record_solve("dense_elimination", m, m * m);
    return h;
}

}  // namespace

Elimination eliminate(const Csr& a, std::vector<double> leak, std::vector<double> b,
                      std::size_t budget) {
    const std::size_t m = a.rows();
    // Strictly upper part of the factor, row by row (columns ascending); the
    // diagonal is kept apart in pivot.
    Csr u;
    std::vector<double> pivot(m);
    // Row i under elimination, scattered densely.  Every entry is a sum of
    // positive terms, so w[j] != 0 marks the pattern; [first, last] bounds it.
    std::vector<double> w(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
        std::size_t first = i;
        std::size_t last = i;
        for (std::size_t p = a.start[i]; p < a.start[i + 1]; ++p) {
            w[a.col[p]] += a.val[p];
            first = std::min<std::size_t>(first, a.col[p]);
            last = std::max<std::size_t>(last, a.col[p]);
        }
        // Eliminate the earlier columns in index order; folding row k only
        // touches columns above k, so one ascending scan sees all the fill.
        for (std::size_t k = first; k < i; ++k) {
            if (w[k] == 0.0) continue;
            const double f = w[k] / pivot[k];
            w[k] = 0.0;
            const std::size_t end = u.start[k + 1];
            for (std::size_t p = u.start[k]; p < end; ++p) w[u.col[p]] += f * u.val[p];
            if (end > u.start[k]) last = std::max<std::size_t>(last, u.col[end - 1]);
            leak[i] += f * leak[k];
            b[i] += f * b[k];
        }
        // What folded onto the diagonal is a return to i; the pivot is instead
        // the rate of leaving i for good, which needs no subtraction.
        w[i] = 0.0;
        double diagonal = leak[i];
        for (std::size_t j = i + 1; j <= last; ++j) {
            if (w[j] == 0.0) continue;
            if (u.col.size() == budget) {
                throw NumericalError("direct first-passage solve of " + std::to_string(m) +
                                     " states needs more than " + std::to_string(budget) +
                                     " factor entries (budget exhausted at row " +
                                     std::to_string(i) + ")");
            }
            diagonal += w[j];
            u.col.push_back(static_cast<TangibleId>(j));
            u.val.push_back(w[j]);
            w[j] = 0.0;
        }
        u.start.push_back(u.col.size());
        if (!(diagonal > 0.0)) {
            throw NumericalError("singular first-passage system: state " + std::to_string(i) +
                                 " of " + std::to_string(m) + " cannot leave the unknown set");
        }
        pivot[i] = diagonal;
    }
    Elimination out;
    out.x.resize(m);
    for (std::size_t i = m; i-- > 0;) {
        double acc = b[i];
        for (std::size_t p = u.start[i]; p < u.start[i + 1]; ++p) acc += u.val[p] * out.x[u.col[p]];
        out.x[i] = acc / pivot[i];
    }
    out.factor_entries = u.col.size();
    out.factor_slots = out.factor_entries;
    record_solve("sparse_elimination", m, out.factor_entries);
    return out;
}

std::vector<double> expected_hitting_times(const Ctmc& chain,
                                           const std::vector<char>& targets,
                                           std::size_t dense_threshold) {
    const std::size_t n = chain.num_states();
    DPMA_REQUIRE(targets.size() == n, "target mask does not match the chain");
    DPMA_REQUIRE(std::find(targets.begin(), targets.end(), 1) != targets.end(),
                 "empty target set");
    DPMA_NAMED_SPAN(span, "ctmc.hitting", "solve");

    // h(s) is finite iff the target is hit with probability 1 from s, i.e.
    // iff s cannot reach any state from which the target is unreachable.
    const Csr incoming = transpose(chain);
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
    PassageSystem system = passage_system(chain, targets, unknown);
    const std::size_t m = system.states.size();
    span.arg("states", static_cast<double>(m));
    if (m == 0) return result;
    std::vector<double> h;
    if (m <= dense_threshold) {
        h = solve_dense(system);
        span.arg("factor_entries", static_cast<double>(m * m));
    } else {
        Elimination solved = eliminate(system.a, std::move(system.leak),
                                       std::vector<double>(m, 1.0));
        h = std::move(solved.x);
        span.arg("factor_entries", static_cast<double>(solved.factor_entries));
    }
    for (std::size_t i = 0; i < m; ++i) result[system.states[i]] = h[i];
    return result;
}

std::vector<double> hitting_probabilities(const Ctmc& chain,
                                          const std::vector<char>& targets) {
    const std::size_t n = chain.num_states();
    DPMA_REQUIRE(targets.size() == n, "target mask does not match the chain");
    DPMA_NAMED_SPAN(span, "ctmc.hitting", "solve");
    // p(s) = sum_t P(s,t) p(t); p = 1 on targets, 0 where they are unreachable.
    const std::vector<char> reachable = reach(transpose(chain), targets);
    std::vector<char> unknown(n, 0);
    std::vector<double> result(n, 0.0);
    for (TangibleId s = 0; s < n; ++s) {
        if (targets[s]) result[s] = 1.0;
        unknown[s] = !targets[s] && reachable[s];
    }
    PassageSystem system = passage_system(chain, targets, unknown);
    span.arg("states", static_cast<double>(system.states.size()));
    if (system.states.empty()) return result;
    const Elimination solved =
        eliminate(system.a, std::move(system.leak), std::move(system.into_targets));
    span.arg("factor_entries", static_cast<double>(solved.factor_entries));
    for (std::size_t i = 0; i < solved.x.size(); ++i) result[system.states[i]] = solved.x[i];
    return result;
}

}  // namespace dpma::ctmc
