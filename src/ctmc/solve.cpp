#include "ctmc/solve.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>

#include "core/error.hpp"
#include "core/stats_math.hpp"
#include "ctmc/sparse.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dpma::ctmc {
namespace {

void normalize(std::vector<double>& pi) {
    KahanSum sum;
    for (double p : pi) sum.add(p);
    const double total = sum.value();
    DPMA_REQUIRE(total > 0.0, "probability vector has zero mass");
    for (double& p : pi) p /= total;
}

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
    double best = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        best = std::max(best, std::abs(a[i] - b[i]));
    }
    return best;
}

}  // namespace

void record_solve(SolveDiagnostics* diagnostics, const char* method, std::size_t states,
                  std::size_t iterations, double residual) {
    obs::counter(std::string("ctmc.solve.") + method).add();
    if (iterations > 0) {
        obs::histogram("ctmc.solve.iterations").observe(static_cast<double>(iterations));
    }
    if (diagnostics != nullptr) {
        diagnostics->method = method;
        diagnostics->states = states;
        diagnostics->iterations = iterations;
        diagnostics->final_residual = residual;
    }
    if (obs::log_enabled(obs::LogLevel::Debug)) {
        obs::logf(obs::LogLevel::Debug,
                  "solve: %s on %zu states, %zu iterations, residual %g", method,
                  states, iterations, residual);
    }
}

Csr transpose(const Ctmc& chain) {
    const std::size_t n = chain.num_states();
    Csr out;
    out.start.assign(n + 1, 0);
    for (TangibleId s = 0; s < n; ++s) {
        for (const RateEntry& e : chain.row(s)) ++out.start[e.target + 1];
    }
    for (std::size_t i = 0; i < n; ++i) out.start[i + 1] += out.start[i];
    out.col.resize(out.start[n]);
    out.val.resize(out.start[n]);
    std::vector<std::size_t> fill(out.start.begin(), out.start.end() - 1);
    for (TangibleId s = 0; s < n; ++s) {
        for (const RateEntry& e : chain.row(s)) {
            const std::size_t k = fill[e.target]++;
            out.col[k] = s;
            out.val[k] = e.rate;
        }
    }
    return out;
}

std::vector<char> reach(const Csr& graph, std::vector<char> seeds) {
    std::deque<TangibleId> queue;
    for (TangibleId s = 0; s < seeds.size(); ++s) {
        if (seeds[s]) queue.push_back(s);
    }
    while (!queue.empty()) {
        const TangibleId u = queue.front();
        queue.pop_front();
        for (std::size_t k = graph.start[u]; k < graph.start[u + 1]; ++k) {
            const TangibleId v = graph.col[k];
            if (!seeds[v]) {
                seeds[v] = 1;
                queue.push_back(v);
            }
        }
    }
    return seeds;
}

void gauss_seidel(const Csr& a, const std::vector<double>& b,
                  const std::vector<double>& d, std::vector<double>& x, bool normalise,
                  double tolerance, std::size_t max_iterations,
                  SolveDiagnostics* diagnostics) {
    const std::size_t n = a.rows();
    if (diagnostics != nullptr) *diagnostics = SolveDiagnostics{};
    if (std::any_of(d.begin(), d.end(), [](double di) { return !(di > 0.0); })) {
        throw NumericalError("Gauss-Seidel: zero diagonal (absorbing state in chain)");
    }
    std::vector<double> prev;
    double change = 0.0;
    for (std::size_t iter = 0; iter < max_iterations; ++iter) {
        if (normalise) prev = x;
        change = 0.0;
        double scale = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            double acc = b.empty() ? 0.0 : b[i];
            for (std::size_t k = a.start[i]; k < a.start[i + 1]; ++k) {
                acc += a.val[k] * x[a.col[k]];
            }
            const double next = acc / d[i];
            change = std::max(change, std::abs(next - x[i]));
            scale = std::max(scale, std::abs(next));
            x[i] = next;
        }
        if (normalise) {
            normalize(x);
            change = max_abs_diff(x, prev);
            scale = 1.0;
        }
        if (diagnostics != nullptr) diagnostics->record_residual(change);
        if (change <= tolerance * scale) {
            record_solve(diagnostics, "gauss_seidel", n, iter + 1, change);
            return;
        }
    }
    char residual[32];
    std::snprintf(residual, sizeof residual, "%g", change);
    throw NumericalError("Gauss-Seidel did not converge within " +
                         std::to_string(max_iterations) + " iterations (residual " +
                         residual + ")");
}

void SolveDiagnostics::record_residual(double residual) {
    // Thin in place: once the history is full, keep every other sample and
    // double the stride, so memory stays bounded for 500k-iteration solves
    // while the curve's shape survives.
    constexpr std::size_t kMaxSamples = 2048;
    ++pending_;
    if (pending_ < residual_stride) return;
    pending_ = 0;
    residuals.push_back(residual);
    if (residuals.size() >= kMaxSamples) {
        for (std::size_t i = 1; 2 * i < residuals.size(); ++i) {
            residuals[i] = residuals[2 * i];
        }
        residuals.resize(residuals.size() / 2);
        residual_stride *= 2;
    }
}

std::string SolveDiagnostics::json() const {
    std::string out = "{\"solver\": {\"method\": " + obs::json_quote(method) +
                      ", \"states\": " + std::to_string(states) +
                      ", \"iterations\": " + std::to_string(iterations) +
                      ", \"final_residual\": " + obs::json_number(final_residual) +
                      ", \"residual_stride\": " + std::to_string(residual_stride) +
                      ", \"residuals\": [";
    for (std::size_t i = 0; i < residuals.size(); ++i) {
        if (i > 0) out += ", ";
        out += obs::json_number(residuals[i]);
    }
    out += "]}}";
    return out;
}

std::vector<double> steady_state_gth(const Ctmc& chain) {
    const std::size_t n = chain.num_states();
    DPMA_REQUIRE(n >= 1, "empty chain");
    if (n == 1) return {1.0};

    // Dense off-diagonal rate matrix.
    std::vector<std::vector<double>> a(n, std::vector<double>(n, 0.0));
    for (TangibleId s = 0; s < n; ++s) {
        for (const RateEntry& e : chain.row(s)) {
            a[s][e.target] += e.rate;
        }
    }

    // Forward elimination, censoring states n-1 .. 1 (Grassmann, Taksar,
    // Heyman; see Stewart, "Introduction to the Numerical Solution of Markov
    // Chains", sect. 2.7).  Only additions/divisions of non-negative
    // quantities: no cancellation.
    for (std::size_t k = n - 1; k >= 1; --k) {
        KahanSum departure;
        for (std::size_t j = 0; j < k; ++j) departure.add(a[k][j]);
        const double s = departure.value();
        if (s <= 0.0) {
            throw NumericalError(
                "GTH: state " + std::to_string(k) +
                " cannot reach lower-numbered states (chain not irreducible)");
        }
        for (std::size_t i = 0; i < k; ++i) a[i][k] /= s;
        for (std::size_t i = 0; i < k; ++i) {
            const double f = a[i][k];
            if (f == 0.0) continue;
            for (std::size_t j = 0; j < k; ++j) {
                if (j != i) a[i][j] += f * a[k][j];
            }
        }
    }

    // Back substitution: unnormalised stationary weights.
    std::vector<double> pi(n, 0.0);
    pi[0] = 1.0;
    for (std::size_t k = 1; k < n; ++k) {
        KahanSum sum;
        for (std::size_t i = 0; i < k; ++i) sum.add(pi[i] * a[i][k]);
        pi[k] = sum.value();
    }
    normalize(pi);
    record_solve(nullptr, "gth", n, 0, 0.0);
    return pi;
}

std::vector<double> steady_state_gauss_seidel(const Ctmc& chain,
                                              const SolveOptions& options) {
    const std::size_t n = chain.num_states();
    DPMA_REQUIRE(n >= 1, "empty chain");
    // Balance equations pi_j E(j) = sum_i pi_i q_ij: the rows of the
    // transposed rate matrix, no constant term.
    std::vector<double> exit(n);
    for (TangibleId s = 0; s < n; ++s) exit[s] = chain.exit_rate(s);
    std::vector<double> pi(n, 1.0 / static_cast<double>(n));
    gauss_seidel(transpose(chain), {}, exit, pi, /*normalise=*/true,
                 options.tolerance, options.max_iterations, options.diagnostics);
    return pi;
}

std::vector<double> steady_state_power(const Ctmc& chain, const SolveOptions& options) {
    const std::size_t n = chain.num_states();
    DPMA_REQUIRE(n >= 1, "empty chain");
    SolveDiagnostics* diag = options.diagnostics;
    if (diag != nullptr) *diag = SolveDiagnostics{};
    const double lambda = chain.max_exit_rate() * 1.05 + 1e-12;
    std::vector<double> pi(n, 1.0 / static_cast<double>(n));
    std::vector<double> next(n);

    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
        // next = pi * (I + Q / lambda)
        for (TangibleId s = 0; s < n; ++s) {
            next[s] = pi[s] * (1.0 - chain.exit_rate(s) / lambda);
        }
        for (TangibleId s = 0; s < n; ++s) {
            const double mass = pi[s] / lambda;
            if (mass == 0.0) continue;
            for (const RateEntry& e : chain.row(s)) {
                next[e.target] += mass * e.rate;
            }
        }
        normalize(next);
        const double diff = max_abs_diff(next, pi);
        pi.swap(next);
        if (diag != nullptr) diag->record_residual(diff);
        if (diff < options.tolerance) {
            record_solve(diag, "power", n, iter + 1, diff);
            return pi;
        }
    }
    throw NumericalError("power iteration did not converge within " +
                         std::to_string(options.max_iterations) + " iterations");
}

namespace {

/// Strongly connected components (iterative Tarjan): the component of every
/// state and the number of components.
struct Components {
    std::vector<int> of;
    int count = 0;
};

Components strong_components(const Ctmc& chain) {
    const std::size_t n = chain.num_states();
    std::vector<int> index(n, -1);
    std::vector<int> lowlink(n, 0);
    std::vector<char> on_stack(n, 0);
    std::vector<TangibleId> stack;
    Components out;
    out.of.assign(n, -1);
    int next_index = 0;

    struct Frame {
        TangibleId v;
        std::size_t child = 0;
    };
    std::vector<Frame> frames;
    for (TangibleId root = 0; root < n; ++root) {
        if (index[root] != -1) continue;
        frames.push_back(Frame{root, 0});
        index[root] = lowlink[root] = next_index++;
        stack.push_back(root);
        on_stack[root] = 1;
        while (!frames.empty()) {
            Frame& frame = frames.back();
            const TangibleId v = frame.v;
            const auto row = chain.row(v);
            if (frame.child < row.size()) {
                const TangibleId w = row[frame.child++].target;
                if (index[w] == -1) {
                    index[w] = lowlink[w] = next_index++;
                    stack.push_back(w);
                    on_stack[w] = 1;
                    frames.push_back(Frame{w, 0});
                } else if (on_stack[w]) {
                    lowlink[v] = std::min(lowlink[v], index[w]);
                }
                continue;
            }
            if (lowlink[v] == index[v]) {
                while (true) {
                    const TangibleId w = stack.back();
                    stack.pop_back();
                    on_stack[w] = 0;
                    out.of[w] = out.count;
                    if (w == v) break;
                }
                ++out.count;
            }
            frames.pop_back();
            if (!frames.empty()) {
                const TangibleId parent = frames.back().v;
                lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
            }
        }
    }
    return out;
}

}  // namespace

bool is_irreducible(const Ctmc& chain) {
    return chain.num_states() > 0 && strong_components(chain).count == 1;
}

std::vector<std::vector<TangibleId>> bottom_sccs(const Ctmc& chain) {
    const std::size_t n = chain.num_states();
    const Components scc = strong_components(chain);
    // A SCC is "bottom" when no member has an edge leaving it.
    std::vector<char> is_bottom(static_cast<std::size_t>(scc.count), 1);
    for (TangibleId v = 0; v < n; ++v) {
        for (const RateEntry& e : chain.row(v)) {
            if (scc.of[e.target] != scc.of[v]) {
                is_bottom[static_cast<std::size_t>(scc.of[v])] = 0;
            }
        }
    }
    std::vector<std::vector<TangibleId>> out(static_cast<std::size_t>(scc.count));
    for (TangibleId v = 0; v < n; ++v) {
        out[static_cast<std::size_t>(scc.of[v])].push_back(v);
    }
    std::vector<std::vector<TangibleId>> bottoms;
    for (std::size_t c = 0; c < out.size(); ++c) {
        if (is_bottom[c]) bottoms.push_back(std::move(out[c]));
    }
    return bottoms;
}

namespace {

std::vector<double> steady_state_irreducible(const Ctmc& chain,
                                             const SolveOptions& options) {
    if (chain.num_states() <= options.dense_threshold) {
        std::vector<double> pi = steady_state_gth(chain);
        if (options.diagnostics != nullptr) {
            *options.diagnostics = SolveDiagnostics{};
            options.diagnostics->method = "gth";
            options.diagnostics->states = chain.num_states();
        }
        return pi;
    }
    try {
        return steady_state_gauss_seidel(chain, options);
    } catch (const NumericalError& e) {
        obs::logf(obs::LogLevel::Warn,
                  "solve: Gauss-Seidel failed on %zu states (%s); "
                  "falling back to power iteration",
                  chain.num_states(), e.what());
        return steady_state_power(chain, options);
    }
}

}  // namespace

std::vector<double> steady_state(const Ctmc& chain, const SolveOptions& options) {
    DPMA_REQUIRE(chain.num_states() >= 1, "empty chain");
    DPMA_NAMED_SPAN(span, "ctmc.solve", "solve");
    span.arg("states", static_cast<double>(chain.num_states()));
    obs::counter("ctmc.solve.calls").add();
    const auto bottoms = bottom_sccs(chain);
    if (bottoms.size() != 1) {
        throw NumericalError(
            "chain has " + std::to_string(bottoms.size()) +
            " recurrent classes; the long-run distribution depends on the "
            "initial state (is the model deadlock-free?)");
    }
    const std::vector<TangibleId>& recurrent = bottoms.front();
    if (recurrent.size() == chain.num_states()) {
        return steady_state_irreducible(chain, options);
    }
    span.arg("recurrent", static_cast<double>(recurrent.size()));
    // The recurrent rows, sliced out and renumbered (no edge leaves them).
    std::vector<TangibleId> dense_of(chain.num_states(), kNoTangible);
    for (std::size_t i = 0; i < recurrent.size(); ++i) {
        dense_of[recurrent[i]] = static_cast<TangibleId>(i);
    }
    std::vector<std::size_t> row_start{0};
    std::vector<RateEntry> entries;
    for (const TangibleId s : recurrent) {
        for (const RateEntry& e : chain.row(s)) {
            DPMA_ASSERT(dense_of[e.target] != kNoTangible, "edge leaves a bottom SCC");
            entries.push_back(RateEntry{dense_of[e.target], e.rate});
        }
        row_start.push_back(entries.size());
    }
    const std::vector<double> sub_pi = steady_state_irreducible(
        Ctmc(std::move(row_start), std::move(entries)), options);
    std::vector<double> pi(chain.num_states(), 0.0);
    for (std::size_t i = 0; i < recurrent.size(); ++i) {
        pi[recurrent[i]] = sub_pi[i];
    }
    return pi;
}

namespace {

/// Below this log weight std::exp lands in the subnormal range where the
/// multiplicative recurrence would start from almost no significand bits;
/// PoissonWeights stays in log space until the series climbs back above it.
constexpr double kPoissonLogSwitch = -690.0;

}  // namespace

PoissonWeights::PoissonWeights(double lt) : lt_(lt), log_w_(-lt) {
    DPMA_REQUIRE(std::isfinite(lt) && lt >= 0.0,
                 "poisson weight parameter must be finite and >= 0");
    in_log_ = log_w_ < kPoissonLogSwitch;
    w_ = in_log_ ? 0.0 : std::exp(log_w_);
}

void PoissonWeights::advance() noexcept {
    ++k_;
    if (in_log_) {
        log_w_ += std::log(lt_) - std::log(static_cast<double>(k_));
        if (log_w_ >= kPoissonLogSwitch) {
            in_log_ = false;
            w_ = std::exp(log_w_);
        }
        return;
    }
    w_ *= lt_ / static_cast<double>(k_);
}

namespace {

/// Normalised initial distribution over the chain's states.
std::vector<double> initial_vector(
    const Ctmc& chain, const std::vector<std::pair<TangibleId, double>>& initial) {
    std::vector<double> pi(chain.num_states(), 0.0);
    for (const auto& [s, p] : initial) {
        DPMA_REQUIRE(s < pi.size(), "initial state out of range");
        pi[s] += p;
    }
    normalize(pi);
    return pi;
}

/// Uniformisation constant of the series users.
double uniformisation_rate(const Ctmc& chain) {
    return std::max(chain.max_exit_rate() * 1.05, 1e-9);
}

/// One step of the uniformised DTMC, out = v (I + Q / lambda), written into a
/// caller-owned buffer so the series loops allocate their two vectors once
/// and swap.
void uniformised_step(const Ctmc& chain, double lambda, const std::vector<double>& v,
                      std::vector<double>& out) {
    std::fill(out.begin(), out.end(), 0.0);
    for (TangibleId s = 0; s < chain.num_states(); ++s) {
        out[s] += v[s] * (1.0 - chain.exit_rate(s) / lambda);
        const double mass = v[s] / lambda;
        if (mass == 0.0) continue;
        for (const RateEntry& e : chain.row(s)) {
            out[e.target] += mass * e.rate;
        }
    }
}

}  // namespace

std::vector<double> transient(const Ctmc& chain,
                              const std::vector<std::pair<TangibleId, double>>& initial,
                              double time) {
    const std::size_t n = chain.num_states();
    DPMA_REQUIRE(n >= 1, "empty chain");
    DPMA_REQUIRE(time >= 0.0, "negative time");
    std::vector<double> vk = initial_vector(chain, initial);
    if (time == 0.0) return vk;

    const double lambda = uniformisation_rate(chain);
    const double lt = lambda * time;

    std::vector<double> result(n, 0.0);
    std::vector<double> next(n, 0.0);
    double cumulative = 0.0;
    PoissonWeights weights(lt);
    for (std::size_t k = 0;; ++k, weights.advance()) {
        const double w = weights.current();
        if (w != 0.0) {
            for (std::size_t i = 0; i < n; ++i) result[i] += w * vk[i];
        }
        cumulative += w;
        if (cumulative >= 1.0 - 1e-12 && static_cast<double>(k) >= lt) break;
        if (k > 20 * (static_cast<std::size_t>(lt) + 10)) break;  // safety cap
        uniformised_step(chain, lambda, vk, next);
        vk.swap(next);
    }
    normalize(result);
    return result;
}

double accumulated_reward(const Ctmc& chain,
                          const std::vector<std::pair<TangibleId, double>>& initial,
                          const std::vector<double>& reward_rates, double time) {
    const std::size_t n = chain.num_states();
    DPMA_REQUIRE(n >= 1, "empty chain");
    DPMA_REQUIRE(reward_rates.size() == n, "reward vector does not match the chain");
    DPMA_REQUIRE(time >= 0.0, "negative time");
    if (time == 0.0) return 0.0;

    const double lambda = uniformisation_rate(chain);
    const double lt = lambda * time;

    // tail_k = P(Pois(lt) >= k+1); accumulate (tail_k / lambda) * (v_k . r).
    KahanSum total;
    std::vector<double> vk = initial_vector(chain, initial);
    std::vector<double> next(n, 0.0);
    double cdf = 0.0;  // P(Pois(lt) <= k)
    PoissonWeights weights(lt);
    for (std::size_t k = 0;; ++k, weights.advance()) {
        cdf += weights.current();
        const double tail = std::max(0.0, 1.0 - cdf);
        KahanSum dot;
        for (std::size_t i = 0; i < n; ++i) dot.add(vk[i] * reward_rates[i]);
        total.add(tail / lambda * dot.value());
        if (tail < 1e-13 && static_cast<double>(k) >= lt) break;
        if (k > 20 * (static_cast<std::size_t>(lt) + 10)) break;  // safety cap
        uniformised_step(chain, lambda, vk, next);
        vk.swap(next);
    }
    return total.value();
}

}  // namespace dpma::ctmc
