#pragma once

/// \file cache.hpp
/// Memoization over the expensive invariant of a parameter sweep, and the
/// one Markov evaluation every sweep point runs.
///
/// Sweeping a DPM operation rate re-solves the *same* state space at every
/// point: composing the architectural description (a BFS over the global
/// state space) does not depend on the value of an exponential rate, only on
/// the model's structure.  Following the amortization idea of parametric
/// model checking (Fang et al., fast parametric model checking through model
/// fragmentation), the cache keeps composed skeletons keyed by a
/// caller-chosen content key, so a sweep composes its family once and each
/// point only retimes a copy (with_exp_rate / with_delay) and hands it to
/// solve_point().  Nothing is cached per point.
///
/// Hit/miss accounting lives on the process-wide metrics registry
/// (obs::counter "cache.hits" / "cache.misses"), so bench tables, the CLI's
/// cache line and --metrics dumps all read the same numbers; stats() keeps a
/// per-instance view on top (tests, multi-cache processes).
///
/// Thread safety: all methods may be called concurrently from pool workers.
/// Builds run under the cache lock, so a concurrent request for the same key
/// does not build twice; a builder must not call back into the cache.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "adl/compose.hpp"
#include "adl/measure.hpp"
#include "core/dist.hpp"
#include "exp/experiment.hpp"

namespace dpma::exp {

class ModelCache {
public:
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
    };

    /// Process-wide totals from the metrics registry: what --metrics and the
    /// bench harness report.  Covers every ModelCache in the process.
    [[nodiscard]] static Stats global_stats();

    /// The composed model stored under \p key, calling \p build on a miss.
    [[nodiscard]] std::shared_ptr<const adl::ComposedModel> composed(
        const std::string& key, const std::function<adl::ComposedModel()>& build);

    [[nodiscard]] Stats stats() const;
    void clear();

private:
    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::shared_ptr<const adl::ComposedModel>> composed_;
    Stats stats_;
};

/// Copy of \p model with the exponential rate of every transition whose
/// label involves instance.action (either side of a synchronised label, as
/// in measure ENABLED predicates) replaced by \p rate.  The reachable state
/// space is unchanged — an exponential transition is enabled whatever its
/// rate — which is what lets a sweep patch a cached skeleton instead of
/// recomposing.  The copy shares the model's composed structure and local
/// states and owns only its rate slots, so it costs O(slots + labels)
/// whatever the state count.  Throws ModelError when \p rate is not finite
/// and positive, when nothing matches, or when a matching transition is not
/// exponential (patching an immediate or deterministic transition could
/// change the structure, so it is refused).
[[nodiscard]] adl::ComposedModel with_exp_rate(const adl::ComposedModel& model,
                                               const std::string& instance,
                                               const std::string& action, double rate);

/// General-phase counterpart: replaces the general distribution of every
/// matching transition by \p dist.  Same matching and error rules; matches
/// must carry a general distribution already.
[[nodiscard]] adl::ComposedModel with_dist(const adl::ComposedModel& model,
                                           const std::string& instance,
                                           const std::string& action, const Dist& dist);

/// Either phase: retimes every matching transition to a mean delay of
/// \p delay — rate 1/delay if it is exponential, det(delay) if it is general
/// — or makes it immediate (priority 1, weight 1) when \p delay <= 0.  The
/// immediate form still keeps the reachable state space, because composition
/// applies no maximal progress (adl/compose.hpp).  Same matching rules;
/// matches must be exponential or general, and \p delay must be finite.
[[nodiscard]] adl::ComposedModel with_delay(const adl::ComposedModel& model,
                                            const std::string& instance,
                                            const std::string& action, double delay);

/// One Markov sweep point: extracts the CTMC of \p model (the vanishing
/// elimination runs once per composed structure, so points patched from one
/// skeleton share it), solves its steady state and evaluates each of
/// \p measures, in order, over one shared action-frequency walk
/// (ctmc::evaluate_measures).  The solver's diagnostics (method, factor
/// entries) ride along in PointResult::diagnostics.  Throws what
/// build_markov / steady_state throw.
[[nodiscard]] PointResult solve_point(const adl::ComposedModel& model,
                                      const std::vector<adl::Measure>& measures);

}  // namespace dpma::exp
