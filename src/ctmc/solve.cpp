#include "ctmc/solve.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <string>

#include "core/error.hpp"
#include "core/stats_math.hpp"
#include "ctmc/sparse.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dpma::ctmc {
namespace {

double mass(const std::vector<double>& pi) {
    KahanSum sum;
    for (double p : pi) sum.add(p);
    return sum.value();
}

void normalize(std::vector<double>& pi) {
    const double total = mass(pi);
    DPMA_REQUIRE(total > 0.0, "probability vector has zero mass");
    for (double& p : pi) p /= total;
}

/// Normalises the unnormalised stationary weights of a GTH back
/// substitution.  When the rates span more orders of magnitude than a
/// double holds, the weights overflow to inf or NaN: a numerical limit of
/// the solve, not a caller error.
void normalize_gth_weights(std::vector<double>& pi, const char* method) {
    const double total = mass(pi);
    if (!std::isfinite(total) || !(total > 0.0)) {
        throw NumericalError(std::string(method) +
                             ": the stationary weights overflow to inf/NaN; the rates span "
                             "too many orders of magnitude");
    }
    for (double& p : pi) p /= total;
}

/// ||x Q||_1 / sum_s x_s E(s) for the generator Q of \p chain, in one pass
/// over the rows with mass (0 when nothing flows: then x Q is exactly 0).
/// \p balance is scratch of the chain's size, all zeros on entry.
double relative_residual(const Ctmc& chain, const std::vector<double>& x,
                         std::vector<double>& balance) {
    KahanSum flow;
    for (TangibleId s = 0; s < chain.num_states(); ++s) {
        if (x[s] == 0.0) continue;
        const double out = x[s] * chain.exit_rate(s);
        balance[s] -= out;
        flow.add(out);
        for (const RateEntry& e : chain.row(s)) balance[e.target] += x[s] * e.rate;
    }
    if (flow.value() == 0.0) return 0.0;
    KahanSum norm;
    for (const double b : balance) norm.add(std::abs(b));
    return norm.value() / flow.value();
}

}  // namespace

void record_solve(const char* method, std::size_t states, std::size_t factor_entries) {
    obs::counter(std::string("ctmc.solve.") + method).add();
    if (obs::log_enabled(obs::LogLevel::Debug)) {
        obs::logf(obs::LogLevel::Debug, "solve: %s on %zu states, %zu factor entries", method,
                  states, factor_entries);
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

Elimination sparse_gth(const Ctmc& chain, std::size_t budget) {
    const std::size_t n = chain.num_states();
    DPMA_REQUIRE(n >= 1, "empty chain");
    // Row i of the elimination is state n-1-i: on the streaming chains the
    // reverse index order fills about a third of what the natural one does.
    const auto state_at = [n](std::size_t i) { return static_cast<TangibleId>(n - 1 - i); };
    const auto position = [n](TangibleId s) { return n - 1 - s; };

    // Pre-pass.  Folding row k into row i only fills columns above k, so
    // L's row i lies in the envelope [first[i], i) of its original entries:
    // a dense skyline, sized exactly here.  U's row k is folded only by rows
    // whose envelope reaches k, the last of which is last_use[k]
    // (non-decreasing), so the live U rows are always a sliding window.
    std::vector<std::size_t> first(n);
    std::vector<std::size_t> l_start(n + 1, 0);
    std::vector<std::size_t> last_use(n);
    for (std::size_t i = 0; i < n; ++i) {
        first[i] = i;
        for (const RateEntry& e : chain.row(state_at(i))) {
            first[i] = std::min(first[i], position(e.target));
        }
        l_start[i + 1] = l_start[i] + (i - first[i]);
        last_use[i] = i;
        last_use[first[i]] = std::max(last_use[first[i]], i);
    }
    for (std::size_t k = 1; k < n; ++k) last_use[k] = std::max(last_use[k], last_use[k - 1]);
    const std::size_t l_slots = l_start[n];
    const auto over_budget = [&](std::size_t row) {
        return NumericalError("sparse GTH on " + std::to_string(n) + " states needs more than " +
                              std::to_string(budget) + " factor slots (budget exhausted at row " +
                              std::to_string(row) + ")");
    };
    if (l_slots > budget) throw over_budget(0);

    std::vector<double> l(l_slots, 0.0);
    std::vector<double> pivot(n, 0.0);
    // U row k is dense over its profile (k, k + len_k]: the values of
    // columns k+1.. as row k left them, zeros included, at
    // u[u_start[k] - base, u_start[k+1] - base) while it is live; rows below
    // `dead` are folded by no later row.
    std::vector<double> u;
    std::vector<std::size_t> u_start(n + 1, 0);
    std::size_t base = 0;
    std::size_t dead = 0;
    std::size_t l_entries = 0;
    std::size_t u_entries = 0;
    // Row i under elimination, scattered densely.  Every entry is a sum of
    // non-negative terms, so w[j] != 0 marks the pattern; `last` bounds it.
    std::vector<double> w(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t last = i;
        for (const RateEntry& e : chain.row(state_at(i))) {
            const std::size_t j = position(e.target);
            w[j] += e.rate;
            last = std::max(last, j);
        }
        double* l_row = l.data() + l_start[i];
        for (std::size_t k = first[i]; k < i; ++k) {
            if (w[k] == 0.0) continue;
            const double f = w[k] / pivot[k];
            w[k] = 0.0;
            l_row[k - first[i]] = f;
            ++l_entries;
            // A stored zero adds f * 0 = +0, which leaves every sum as the
            // nonzeros alone would: one contiguous a*x + y per fold.
            const double* const u_row = u.data() + (u_start[k] - base);
            const std::size_t len = u_start[k + 1] - u_start[k];
            double* const w_row = w.data() + k + 1;
            for (std::size_t j = 0; j < len; ++j) w_row[j] += f * u_row[j];
            last = std::max(last, k + len);
        }
        // What folded onto the diagonal is a return to i; GTH's pivot is the
        // rate of leaving i for the states not yet eliminated instead.
        w[i] = 0.0;
        // Slide the window: drop the dead prefix once it is half the buffer,
        // so each slot moves at most once on average.
        while (dead < i && last_use[dead] <= i) ++dead;
        const std::size_t dead_slots = u_start[dead] - base;
        if (dead_slots > 0 && 2 * dead_slots >= u.size()) {
            u.erase(u.begin(), u.begin() + static_cast<std::ptrdiff_t>(dead_slots));
            base = u_start[dead];
        }
        const std::size_t len = last - i;
        if (l_slots + u_start[i] + len > budget) throw over_budget(i);
        double out = 0.0;
        for (std::size_t j = i + 1; j <= last; ++j) {
            out += w[j];
            u_entries += w[j] != 0.0;
        }
        u.insert(u.end(), w.begin() + static_cast<std::ptrdiff_t>(i + 1),
                 w.begin() + static_cast<std::ptrdiff_t>(last + 1));
        std::fill(w.begin() + static_cast<std::ptrdiff_t>(i + 1),
                  w.begin() + static_cast<std::ptrdiff_t>(last + 1), 0.0);
        u_start[i + 1] = u_start[i] + len;
        if (i + 1 < n && !(out > 0.0)) {
            throw NumericalError("GTH: state " + std::to_string(state_at(i)) +
                                 " cannot reach lower-numbered states (chain not irreducible)");
        }
        pivot[i] = out;
    }

    // Back substitution from the last eliminated state down: pi_i is final
    // once every later row has scattered into it.
    std::vector<double> pi(n, 0.0);
    pi[n - 1] = 1.0;
    for (std::size_t i = n - 1; i > 0; --i) {
        const double* const l_row = l.data() + l_start[i];
        for (std::size_t k = first[i]; k < i; ++k) pi[k] += pi[i] * l_row[k - first[i]];
    }
    Elimination result;
    result.x.assign(pi.rbegin(), pi.rend());
    normalize_gth_weights(result.x, "GTH");
    std::fill(pi.begin(), pi.end(), 0.0);
    result.residual = relative_residual(chain, result.x, pi);
    result.factor_entries = l_entries + u_entries;
    result.factor_slots = l_slots + u_start[n];
    record_solve("gth", n, result.factor_entries);
    return result;
}

std::string SolveDiagnostics::json() const {
    return "{\"solver\": {\"method\": " + obs::json_quote(method) +
           ", \"states\": " + std::to_string(states) +
           ", \"iterations\": " + std::to_string(iterations) +
           ", \"final_residual\": " + obs::json_number(final_residual) +
           ", \"factor_entries\": " + std::to_string(factor_entries) + "}}";
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
    normalize_gth_weights(pi, "dense GTH");
    record_solve("gth_dense", n, n * n);
    return pi;
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
    // Only the bottom classes collect members: most SCCs are transient
    // singletons.
    std::vector<std::size_t> bottom_of(static_cast<std::size_t>(scc.count), SIZE_MAX);
    std::vector<std::vector<TangibleId>> bottoms;
    for (std::size_t c = 0; c < bottom_of.size(); ++c) {
        if (is_bottom[c]) {
            bottom_of[c] = bottoms.size();
            bottoms.emplace_back();
        }
    }
    for (TangibleId v = 0; v < n; ++v) {
        const std::size_t b = bottom_of[static_cast<std::size_t>(scc.of[v])];
        if (b != SIZE_MAX) bottoms[b].push_back(v);
    }
    return bottoms;
}

namespace {

/// The sparse kernel, or the dense reference up to options.dense_threshold.
Elimination solve_irreducible(const Ctmc& chain, const SolveOptions& options) {
    const std::size_t n = chain.num_states();
    if (n > options.dense_threshold) return sparse_gth(chain);
    Elimination dense{steady_state_gth(chain), n * n, n * n};
    std::vector<double> balance(n, 0.0);
    dense.residual = relative_residual(chain, dense.x, balance);
    return dense;
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
    Elimination solved;
    std::vector<double> pi;
    if (recurrent.size() == chain.num_states()) {
        solved = solve_irreducible(chain, options);
        pi = std::move(solved.x);
    } else {
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
        solved = solve_irreducible(Ctmc(std::move(row_start), std::move(entries)), options);
        pi.assign(chain.num_states(), 0.0);
        for (std::size_t i = 0; i < recurrent.size(); ++i) {
            pi[recurrent[i]] = solved.x[i];
        }
    }
    span.arg("factor_entries", static_cast<double>(solved.factor_entries));
    span.arg("factor_slots", static_cast<double>(solved.factor_slots));
    span.arg("residual", solved.residual);
    if (options.diagnostics != nullptr) {
        *options.diagnostics = SolveDiagnostics{.method = "gth",
                                                .states = recurrent.size(),
                                                .final_residual = solved.residual,
                                                .factor_entries = solved.factor_entries};
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

/// True once a uniformisation series may stop after term k: past the mode
/// (k >= lt) the Poisson right tail is bounded by a geometric series,
/// sum_{j>k} w_j <= w_k lt / (k+1-lt), which needs no subtraction from 1 and
/// so cannot be held above \p target by rounding.
bool tail_below(double w, std::size_t k, double lt, double target) {
    const double kd = static_cast<double>(k);
    return kd >= lt && w * lt <= target * (kd + 1.0 - lt);
}

/// Throws once a series has run past its safety cap of 20 (lt+10) terms.
void check_series_cap(std::size_t k, double lt) {
    if (k > 20 * (static_cast<std::size_t>(lt) + 10)) {
        throw NumericalError("uniformisation series did not reach its tail bound: lt = " +
                             std::to_string(lt) + ", k = " + std::to_string(k));
    }
}

/// The uniformisation series behind transient() and accumulated_reward():
/// hands \p term the Poisson(lambda t) weight w_k and v_k = v_0 P^k for
/// k = 0, 1, ... until tail_below(w_k, k, lt, \p target) holds, and returns
/// the number of terms.  P = I + Q / lambda is built once, in pull form:
/// row t holds the incoming rates rate(s, t) / lambda (the transposed
/// generator, s ascending) and stay[t] = 1 - E(t) / lambda, so a step is a
/// gather that divides nothing and writes each state once.
template <class Term>
std::size_t uniformisation_series(const Ctmc& chain, std::vector<double> v, double lambda,
                                  double time, double target, Term&& term) {
    const std::size_t n = chain.num_states();
    Csr in = transpose(chain);
    for (double& p : in.val) p /= lambda;
    std::vector<double> stay(n);
    for (TangibleId t = 0; t < n; ++t) stay[t] = 1.0 - chain.exit_rate(t) / lambda;

    const double lt = lambda * time;
    std::vector<double> next(n);
    PoissonWeights weights(lt);
    for (std::size_t k = 0;; ++k, weights.advance()) {
        term(weights.current(), v);
        if (tail_below(weights.current(), k, lt, target)) return k + 1;
        check_series_cap(k, lt);
        for (std::size_t t = 0; t < n; ++t) {
            double sum = stay[t] * v[t];
            for (std::size_t e = in.start[t]; e < in.start[t + 1]; ++e) {
                sum += in.val[e] * v[in.col[e]];
            }
            next[t] = sum;
        }
        v.swap(next);
    }
}

}  // namespace

std::vector<double> transient(const Ctmc& chain,
                              const std::vector<std::pair<TangibleId, double>>& initial,
                              double time) {
    const std::size_t n = chain.num_states();
    DPMA_REQUIRE(n >= 1, "empty chain");
    DPMA_REQUIRE(time >= 0.0, "negative time");
    DPMA_NAMED_SPAN(span, "ctmc.transient", "solve");
    span.arg("states", static_cast<double>(n));
    span.arg("entries", static_cast<double>(chain.num_entries()));
    std::vector<double> v0 = initial_vector(chain, initial);
    if (time == 0.0) {
        span.arg("terms", 0.0);
        return v0;
    }

    std::vector<double> result(n, 0.0);
    const std::size_t terms =
        uniformisation_series(chain, std::move(v0), uniformisation_rate(chain), time, 1e-12,
                              [&](double w, const std::vector<double>& vk) {
                                  if (w == 0.0) return;
                                  for (std::size_t i = 0; i < n; ++i) result[i] += w * vk[i];
                              });
    span.arg("terms", static_cast<double>(terms));
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
    DPMA_NAMED_SPAN(span, "ctmc.accumulated_reward", "solve");
    span.arg("states", static_cast<double>(n));
    span.arg("entries", static_cast<double>(chain.num_entries()));
    if (time == 0.0) {
        span.arg("terms", 0.0);
        return 0.0;
    }

    // The reward is sum_k (tail_k / lambda) (v_k . r) with tail_k =
    // P(Pois(lt) >= k+1).  Every tail_k v_k is non-negative, so the series
    // sums per state, compensated (Kahan: a long series adds thousands of
    // like terms), and the signed rewards enter once, in the final dot.
    const double lambda = uniformisation_rate(chain);
    std::vector<double> acc(n, 0.0);
    std::vector<double> carry(n, 0.0);
    double cdf = 0.0;  // P(Pois(lt) <= k)
    const std::size_t terms = uniformisation_series(
        chain, initial_vector(chain, initial), lambda, time, 1e-13,
        [&](double w, const std::vector<double>& vk) {
            cdf += w;
            const double tail = std::max(0.0, 1.0 - cdf);
            for (std::size_t i = 0; i < n; ++i) {
                const double y = tail * vk[i] - carry[i];
                const double sum = acc[i] + y;
                carry[i] = (sum - acc[i]) - y;
                acc[i] = sum;
            }
        });
    span.arg("terms", static_cast<double>(terms));
    KahanSum total;
    for (std::size_t i = 0; i < n; ++i) total.add(acc[i] * reward_rates[i]);
    return total.value() / lambda;
}

}  // namespace dpma::ctmc
