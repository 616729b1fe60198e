#pragma once

/// \file experiment.hpp
/// Declarative parameter sweeps.  Every reproduction artifact of this repo is
/// a sweep — solve or simulate one model family at many DPM operation rates,
/// with and without DPM — so the engine makes the sweep itself a value: an
/// Experiment is a parameter Grid (cartesian product of named Axes), a
/// point-evaluation function and the list of measures it returns.  The runner
/// (exp/runner.hpp) turns an Experiment into a ResultSet, in parallel, with
/// per-point seeds derived deterministically from (base_seed, point_index).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dpma::exp {

class ThreadPool;

/// One named sweep dimension and its values, in sweep order.
struct Axis {
    std::string name;
    std::vector<double> values;

    [[nodiscard]] static Axis list(std::string name, std::vector<double> values);
    /// \p steps evenly spaced values from lo to hi inclusive (steps >= 1;
    /// steps == 1 yields just lo).
    [[nodiscard]] static Axis linspace(std::string name, double lo, double hi,
                                       std::size_t steps);
    /// \p steps geometrically spaced values from lo to hi inclusive
    /// (lo, hi > 0).
    [[nodiscard]] static Axis logspace(std::string name, double lo, double hi,
                                       std::size_t steps);
    /// The {0, 1} axis, e.g. NO-DPM vs DPM.
    [[nodiscard]] static Axis toggle(std::string name);
};

/// One sweep point: the coordinate of every axis, by name.
struct Point {
    std::size_t index = 0;
    std::vector<std::pair<std::string, double>> coords;

    /// Coordinate of axis \p name; throws Error when the grid has no such
    /// axis (a misspelt name in an eval function should fail loudly).
    [[nodiscard]] double at(std::string_view name) const;
    /// at(name) != 0, for toggle axes.
    [[nodiscard]] bool flag(std::string_view name) const;
};

/// Cartesian product of axes.  The first axis varies slowest, the last one
/// fastest, so point order reads like nested for loops — exactly the loops
/// the bench_fig* binaries used to hand-roll.
class Grid {
public:
    Grid& axis(Axis axis);

    [[nodiscard]] std::size_t size() const;  ///< product of axis lengths (1 when empty)
    [[nodiscard]] std::vector<std::string> names() const;
    [[nodiscard]] const std::vector<Axis>& axes() const noexcept { return axes_; }

    /// Decodes linear \p index into a Point (mixed-radix).
    [[nodiscard]] Point point(std::size_t index) const;

private:
    std::vector<Axis> axes_;
};

/// What evaluating one point produced: one value per experiment measure and,
/// for statistical evaluations, the CI half-width per measure (empty for
/// exact solvers).
struct PointResult {
    std::vector<double> values;
    std::vector<double> half_widths;
    /// Optional convergence diagnostics as a JSON object literal — e.g.
    /// ctmc::SolveDiagnostics::json() or sim::convergence_json().  Empty
    /// means none; when set it is embedded verbatim in ResultSet::json().
    std::string diagnostics;
    /// Wall-clock seconds the runner spent evaluating this point, filled in
    /// by exp::run() (an eval function's own value is overwritten).  This is
    /// the per-point perf series run records diff (exp/regress.hpp); being
    /// wall clock it is *not* part of the determinism contract.
    double elapsed_s = 0.0;
    /// Failure record: empty for a successful evaluation, otherwise the
    /// exception type and message the runner captured when eval threw.
    /// Failed points keep one NaN per measure (rendered null in JSON) so
    /// they stay measure-aligned.
    std::string error;

    [[nodiscard]] bool failed() const noexcept { return !error.empty(); }
};

/// Per-point context handed to the evaluation function by the runner.
struct PointContext {
    std::uint64_t base_seed = 1;
    std::size_t point_index = 0;
    /// The pool executing the sweep; eval functions may fan out further
    /// (e.g. simulation replications via exp::simulate_replications) —
    /// nested use is safe because the pool's run() is reentrant.
    ThreadPool* pool = nullptr;

    /// Deterministic per-point seed: sim::Rng::derive_seed(base_seed,
    /// point_index).  Independent of how points are scheduled over threads,
    /// which is what makes parallel sweeps bit-identical to serial ones.
    [[nodiscard]] std::uint64_t seed() const;
};

/// A declarative sweep: evaluate `eval` at every grid point and collect the
/// named measures.
struct Experiment {
    std::string name;
    Grid grid;
    std::vector<std::string> measures;
    std::function<PointResult(const Point&, const PointContext&)> eval;
};

}  // namespace dpma::exp
