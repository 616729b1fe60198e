#include "exp/cache.hpp"

#include <cmath>
#include <variant>

#include "adl/measure.hpp"
#include "core/error.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dpma::exp {
namespace {

obs::Counter& hit_counter() {
    static obs::Counter& counter = obs::counter("cache.hits");
    return counter;
}

obs::Counter& miss_counter() {
    static obs::Counter& counter = obs::counter("cache.misses");
    return counter;
}

/// Shared patching skeleton: copies the model, which shares the composed
/// structure and copies only the rate slot table, and hands the rate of every
/// slot whose label matches instance.action to \p patch, in one
/// Lts::mutate_rates pass over the copy's slots.
template <typename PatchFn>
adl::ComposedModel patch_matching(const adl::ComposedModel& model,
                                  const std::string& instance,
                                  const std::string& action, PatchFn patch) {
    DPMA_NAMED_SPAN(span, "exp.patch_model", "exp");
    const std::vector<char> labels = adl::action_mask(
        model, adl::EnabledPredicate{instance, action});
    adl::ComposedModel copy = model;
    std::size_t patched = 0;
    copy.graph.mutate_rates([&](lts::ActionId a, lts::Rate& rate) {
        if (!labels[a]) return;
        patch(a, rate);
        ++patched;
    });
    if (patched == 0) {
        throw ModelError("no transition matches " + instance + "." + action);
    }
    span.arg("slots", static_cast<double>(copy.graph.slots().size()));
    span.arg("slots_patched", static_cast<double>(patched));
    return copy;
}

}  // namespace

std::shared_ptr<const adl::ComposedModel> ModelCache::composed(
    const std::string& key, const std::function<adl::ComposedModel()>& build) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = composed_.find(key); it != composed_.end()) {
        ++stats_.hits;
        hit_counter().add();
        return it->second;
    }
    ++stats_.misses;
    miss_counter().add();
    DPMA_SPAN("cache.build_composed", "cache");
    auto model = std::make_shared<const adl::ComposedModel>(build());
    composed_.emplace(key, model);
    return model;
}

ModelCache::Stats ModelCache::global_stats() {
    return Stats{hit_counter().value(), miss_counter().value()};
}

ModelCache::Stats ModelCache::stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void ModelCache::clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    composed_.clear();
    stats_ = {};
}

adl::ComposedModel with_exp_rate(const adl::ComposedModel& model,
                                 const std::string& instance,
                                 const std::string& action, double rate) {
    if (!std::isfinite(rate) || !(rate > 0.0)) {
        throw ModelError("exponential rate of " + instance + "." + action +
                         " must be finite and > 0, got " + std::to_string(rate));
    }
    return patch_matching(
        model, instance, action,
        [&](lts::ActionId a, lts::Rate& transition_rate) {
            if (!std::holds_alternative<lts::RateExp>(transition_rate)) {
                throw ModelError("transition " + model.graph.actions()->name(a) +
                                 " is not exponential; cannot patch its rate");
            }
            transition_rate = lts::RateExp{rate};
        });
}

adl::ComposedModel with_dist(const adl::ComposedModel& model,
                             const std::string& instance, const std::string& action,
                             const Dist& dist) {
    return patch_matching(
        model, instance, action,
        [&](lts::ActionId a, lts::Rate& transition_rate) {
            if (!std::holds_alternative<lts::RateGeneral>(transition_rate)) {
                throw ModelError("transition " + model.graph.actions()->name(a) +
                                 " has no general distribution; cannot patch it");
            }
            transition_rate = lts::RateGeneral{dist};
        });
}

adl::ComposedModel with_delay(const adl::ComposedModel& model,
                              const std::string& instance, const std::string& action,
                              double delay) {
    if (!std::isfinite(delay)) {
        throw ModelError("delay of " + instance + "." + action + " must be finite, got " +
                         std::to_string(delay));
    }
    return patch_matching(
        model, instance, action,
        [&](lts::ActionId a, lts::Rate& transition_rate) {
            if (!lts::is_timed(transition_rate)) {
                throw ModelError("transition " + model.graph.actions()->name(a) +
                                 " is neither exponential nor general; cannot retime it");
            }
            if (delay <= 0.0) {
                transition_rate = lts::RateImmediate{1, 1.0};
            } else if (lts::is_exponential(transition_rate)) {
                transition_rate = lts::RateExp{1.0 / delay};
            } else {
                transition_rate = lts::RateGeneral{Dist::deterministic(delay)};
            }
        });
}

PointResult solve_point(const adl::ComposedModel& model,
                        const std::vector<adl::Measure>& measures) {
    const ctmc::MarkovModel markov = ctmc::build_markov(model);
    ctmc::SolveDiagnostics diagnostics;
    ctmc::SolveOptions options;
    options.diagnostics = &diagnostics;
    const std::vector<double> pi = ctmc::steady_state(markov.chain, options);
    PointResult result;
    result.values = ctmc::evaluate_measures(markov, model, pi, measures);
    result.diagnostics = diagnostics.json();
    return result;
}

}  // namespace dpma::exp
