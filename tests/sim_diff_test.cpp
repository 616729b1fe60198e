/// \file sim_diff_test.cpp
/// Differential tests for the compiled scheduler (sim/compiled.hpp): the
/// hot-path Simulator is compared against the retired clock-map scheduler,
/// kept here verbatim as a standalone reference, on the shipped model
/// families.  Traces, raw totals, event counts, depletion times and
/// observer callbacks must agree bit for bit, Markov families included.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "adl/compose.hpp"
#include "adl/measure.hpp"
#include "core/error.hpp"
#include "core/stats_math.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"
#include "sim/gsmp.hpp"
#include "sim/rng.hpp"

namespace dpma::sim {
namespace {


// ---------------------------------------------------------------------------
// Reference scheduler: the retired per-run implementation, verbatim except
// that reward tables are built locally and batch-means support is dropped.
// ---------------------------------------------------------------------------

/// Maximal-progress immediate choice of the retired scheduler (highest
/// priority, then a weight-proportional subtractive scan over `out`).
int ref_choose_immediate(const adl::ComposedModel& model, lts::StateId state,
                         Rng& rng) {
    int best_priority = std::numeric_limits<int>::min();
    double total_weight = 0.0;
    const auto out = model.graph.out(state);
    for (const lts::Transition& t : out) {
        if (const auto* imm = std::get_if<lts::RateImmediate>(&model.graph.rate(t))) {
            if (imm->priority > best_priority) {
                best_priority = imm->priority;
                total_weight = 0.0;
            }
            if (imm->priority == best_priority) total_weight += imm->weight;
        }
    }
    if (total_weight <= 0.0) return -1;
    double pick = rng.uniform01() * total_weight;
    int fallback = -1;
    for (std::size_t k = 0; k < out.size(); ++k) {
        if (const auto* imm = std::get_if<lts::RateImmediate>(&model.graph.rate(out[k]))) {
            if (imm->priority != best_priority || imm->weight <= 0.0) continue;
            fallback = static_cast<int>(k);
            pick -= imm->weight;
            if (pick <= 0.0) return static_cast<int>(k);
        }
    }
    return fallback;  // numerical slack: last candidate
}

Dist ref_dist_of(const lts::Rate& rate) {
    if (const auto* exp_rate = std::get_if<lts::RateExp>(&rate)) {
        return Dist::exponential(exp_rate->rate);
    }
    if (const auto* gen = std::get_if<lts::RateGeneral>(&rate)) {
        return gen->dist;
    }
    throw ModelError("transition without a timed rate reached the scheduler");
}

struct RefStop {
    std::size_t measure;
    double threshold;
};

struct RefResult {
    std::vector<double> totals;  ///< raw (not time-averaged)
    std::uint64_t events = 0;
    double stop_time = 0.0;
    bool stopped = false;
    std::vector<TraceEvent> trace;
};

/// The retired Simulator::run_impl as a free function.  The clock container
/// is a real std::unordered_map, exactly as before, so the tie-scan RNG
/// permutation the compiled scheduler *models* is checked against the
/// library's actual iteration order.
RefResult reference_run(const adl::ComposedModel& model,
                        const std::vector<adl::Measure>& measures,
                        const SimOptions& options, const RefStop* stop = nullptr,
                        TrajectoryObserver* observer = nullptr) {
    const std::size_t num_states = model.graph.num_states();
    const std::size_t num_actions = model.graph.actions()->size();
    std::vector<std::vector<double>> state_reward_rate(measures.size());
    std::vector<std::vector<double>> action_reward(measures.size());
    for (std::size_t m = 0; m < measures.size(); ++m) {
        state_reward_rate[m].assign(num_states, 0.0);
        action_reward[m].assign(num_actions, 0.0);
        for (const adl::RewardClause& clause : measures[m].clauses) {
            if (clause.target == adl::RewardClause::Target::State) {
                const auto mask = adl::state_mask(model, clause.predicate);
                for (lts::StateId s = 0; s < num_states; ++s) {
                    if (mask[s]) state_reward_rate[m][s] += clause.reward;
                }
            } else {
                const auto mask = adl::action_mask(model, clause.predicate);
                for (lts::ActionId a = 0; a < num_actions; ++a) {
                    if (mask[a]) action_reward[m][a] += clause.reward;
                }
            }
        }
    }

    Rng rng(options.seed);
    const double t_begin = options.warmup;
    const double t_end = options.warmup + options.horizon;

    lts::StateId state = model.graph.initial();
    double now = 0.0;
    RefResult out;
    out.stop_time = t_end;
    std::vector<KahanSum> totals(measures.size());

    std::unordered_map<lts::ActionId, double> clocks;
    std::unordered_map<lts::ActionId, double> next_clocks;

    const auto accumulate_state_time = [&](lts::StateId s, double from,
                                           double to) -> double {
        const double lo = std::max(from, t_begin);
        const double hi = std::min(to, t_end);
        if (hi <= lo) return std::numeric_limits<double>::quiet_NaN();
        const double dt = hi - lo;
        double crossing = std::numeric_limits<double>::quiet_NaN();
        if (stop != nullptr) {
            const double rate = state_reward_rate[stop->measure][s];
            const double current = totals[stop->measure].value();
            if (rate > 0.0 && current + rate * dt >= stop->threshold) {
                crossing = lo + (stop->threshold - current) / rate;
            }
        }
        for (std::size_t m = 0; m < totals.size(); ++m) {
            const double rate = state_reward_rate[m][s];
            if (rate != 0.0) totals[m].add(rate * dt);
        }
        return crossing;
    };

    const auto accumulate_firing = [&](lts::ActionId action, double at) {
        if (at < t_begin || at > t_end) return;
        for (std::size_t m = 0; m < totals.size(); ++m) {
            const double reward = action_reward[m][action];
            if (reward != 0.0) totals[m].add(reward);
        }
    };

    const auto stop_reached = [&]() {
        return stop != nullptr && totals[stop->measure].value() >= stop->threshold;
    };

    const auto observe = [&](lts::StateId s, double from, double to) -> double {
        if (observer == nullptr || to <= from) {
            return std::numeric_limits<double>::quiet_NaN();
        }
        const double at = observer->residence(s, from, to);
        if (at < 0.0) return std::numeric_limits<double>::quiet_NaN();
        return at;
    };

    std::uint64_t immediate_burst = 0;
    while (now < t_end) {
        const int imm = ref_choose_immediate(model, state, rng);
        if (imm >= 0) {
            if (++immediate_burst > options.max_immediate_burst) {
                throw NumericalError("immediate-action livelock");
            }
            const lts::Transition& t =
                model.graph.out(state)[static_cast<std::size_t>(imm)];
            accumulate_firing(t.action, now);
            if (now >= t_begin) {
                ++out.events;
                out.trace.push_back(TraceEvent{now, t.action, t.target});
            }
            state = t.target;
            if (stop_reached()) {
                out.stop_time = now;
                out.stopped = true;
                break;
            }
            continue;
        }
        immediate_burst = 0;

        const auto transitions = model.graph.out(state);
        if (transitions.empty()) {
            double seg_end = t_end;
            bool observer_stop = false;
            if (const double at = observe(state, now, t_end); !std::isnan(at)) {
                seg_end = at;
                observer_stop = true;
            }
            const double crossing = accumulate_state_time(state, now, seg_end);
            if (!std::isnan(crossing) || observer_stop) {
                out.stop_time = observer_stop ? seg_end : crossing;
                out.stopped = true;
            }
            now = seg_end;
            break;
        }
        next_clocks.clear();
        double min_remaining = std::numeric_limits<double>::infinity();
        for (const lts::Transition& t : transitions) {
            if (next_clocks.contains(t.action)) continue;
            double remaining;
            if (auto it = clocks.find(t.action); it != clocks.end()) {
                remaining = it->second;
            } else {
                remaining = rng.sample(ref_dist_of(model.graph.rate(t)));
            }
            next_clocks.emplace(t.action, remaining);
            min_remaining = std::min(min_remaining, remaining);
        }
        clocks.swap(next_clocks);

        const double fire_time = now + min_remaining;
        if (const double at = observe(state, now, std::min(fire_time, t_end));
            !std::isnan(at)) {
            (void)accumulate_state_time(state, now, at);
            out.stop_time = at;
            out.stopped = true;
            now = at;
            break;
        }
        const double crossing =
            accumulate_state_time(state, now, std::min(fire_time, t_end));
        if (!std::isnan(crossing)) {
            out.stop_time = crossing;
            out.stopped = true;
            const double overshoot = std::min(fire_time, t_end) - crossing;
            for (std::size_t m = 0; m < totals.size(); ++m) {
                const double rate = state_reward_rate[m][state];
                if (rate != 0.0) totals[m].add(-rate * overshoot);
            }
            now = crossing;
            break;
        }
        if (fire_time >= t_end) {
            now = t_end;
            break;
        }
        now = fire_time;

        lts::ActionId fired_label = kNoSymbol;
        std::uint32_t minimal = 0;
        for (auto& [label, remaining] : clocks) {
            remaining -= min_remaining;
            if (remaining <= 1e-15) {
                ++minimal;
                if (fired_label == kNoSymbol || rng.below(minimal) == 0) {
                    fired_label = label;
                }
            }
        }

        std::uint32_t candidates = 0;
        const lts::Transition* chosen = nullptr;
        for (const lts::Transition& t : transitions) {
            if (t.action != fired_label) continue;
            ++candidates;
            if (rng.below(candidates) == 0) chosen = &t;
        }

        accumulate_firing(fired_label, now);
        if (now >= t_begin) {
            ++out.events;
            out.trace.push_back(TraceEvent{now, fired_label, chosen->target});
        }
        clocks.erase(fired_label);
        state = chosen->target;
        if (stop_reached()) {
            out.stop_time = now;
            out.stopped = true;
            break;
        }
    }

    out.totals.reserve(measures.size());
    for (std::size_t m = 0; m < measures.size(); ++m) {
        out.totals.push_back(totals[m].value());
    }
    return out;
}

// ---------------------------------------------------------------------------
// Model families under test
// ---------------------------------------------------------------------------

struct Family {
    const char* name;
    adl::ComposedModel model;
    std::vector<adl::Measure> measures;
    std::size_t energy_measure;  ///< STATE_REWARD measure for depletion runs
    double horizon;
};

Family family(const char* name, adl::ComposedModel model, const char* msr,
              const char* energy, double horizon) {
    std::vector<adl::Measure> measures = models::measures(msr);
    const std::size_t energy_measure = models::measure_index(measures, energy);
    return {name, std::move(model), std::move(measures), energy_measure, horizon};
}

std::vector<Family> shipped_families() {
    const auto rpc = [](const char* spec, double timeout) {
        return models::compose_point(spec, "send_shutdown", timeout, true);
    };
    const adl::ArchiType streaming = models::archi("streaming_general.aem");
    std::vector<Family> families;
    families.push_back(family("rpc_markov_dpm", rpc("rpc_revised_markov.aem", 40.0),
                              "rpc_measures.msr", "energy", 4000.0));
    families.push_back(family("rpc_markov_immediate_shutdown",
                              rpc("rpc_revised_markov.aem", 0.0), "rpc_measures.msr",
                              "energy", 4000.0));
    families.push_back(family("rpc_general_dpm", rpc("rpc_general.aem", 40.0),
                              "rpc_measures.msr", "energy", 4000.0));
    families.push_back(family("streaming_markov_dpm",
                              adl::compose(models::archi("streaming_markov.aem")),
                              "streaming_measures.msr", "nic_energy", 20000.0));
    families.push_back(family("streaming_general_dpm", adl::compose(streaming),
                              "streaming_measures.msr", "nic_energy", 20000.0));
    families.push_back(family("streaming_general_nodpm",
                              adl::compose(models::without_dpm(streaming)),
                              "streaming_measures.msr", "nic_energy", 20000.0));
    return families;
}

SimOptions clocked_options(double horizon, std::uint64_t seed, double warmup = 0.0) {
    SimOptions options;
    options.horizon = horizon;
    options.warmup = warmup;
    options.seed = seed;
    return options;
}

// ---------------------------------------------------------------------------
// Differential tests
// ---------------------------------------------------------------------------

TEST(SimDiff, TracesAndTotalsMatchReference) {
    for (const Family& family : shipped_families()) {
        for (const std::uint64_t seed : {1ULL, 42ULL, 20260809ULL}) {
            const Simulator simulator(family.model, family.measures);
            SimOptions options = clocked_options(family.horizon, seed);

            std::vector<TraceEvent> trace;
            const RunResult run = simulator.run(options, &trace);
            const RefResult ref =
                reference_run(family.model, family.measures, options);

            ASSERT_EQ(run.events, ref.events) << family.name << " seed " << seed;
            ASSERT_EQ(run.values.size(), ref.totals.size()) << family.name;
            for (std::size_t m = 0; m < run.values.size(); ++m) {
                // run() time-averages; apply the identical division here.
                EXPECT_EQ(run.values[m], ref.totals[m] / options.horizon)
                    << family.name << " seed " << seed << " measure " << m;
            }
            ASSERT_EQ(trace.size(), ref.trace.size()) << family.name;
            for (std::size_t i = 0; i < trace.size(); ++i) {
                EXPECT_EQ(trace[i].time, ref.trace[i].time)
                    << family.name << " event " << i;
                EXPECT_EQ(trace[i].action, ref.trace[i].action)
                    << family.name << " event " << i;
                EXPECT_EQ(trace[i].target, ref.trace[i].target)
                    << family.name << " event " << i;
            }
        }
    }
}

TEST(SimDiff, WarmupWindowMatchesReference) {
    for (const Family& family : shipped_families()) {
        const Simulator simulator(family.model, family.measures);
        SimOptions options =
            clocked_options(family.horizon / 2, 7, family.horizon / 10);

        std::vector<TraceEvent> trace;
        const RunResult run = simulator.run(options, &trace);
        const RefResult ref = reference_run(family.model, family.measures, options);

        EXPECT_EQ(run.events, ref.events) << family.name;
        for (std::size_t m = 0; m < run.values.size(); ++m) {
            EXPECT_EQ(run.values[m], ref.totals[m] / options.horizon)
                << family.name << " measure " << m;
        }
        EXPECT_EQ(trace.size(), ref.trace.size()) << family.name;
    }
}

TEST(SimDiff, DepletionTimesMatchReference) {
    for (const Family& family : shipped_families()) {
        const Simulator simulator(family.model, family.measures);
        SimOptions options = clocked_options(family.horizon, 99);

        // A threshold the run reaches partway through the horizon.
        const RefResult probe = reference_run(family.model, family.measures, options);
        const double threshold = probe.totals[family.energy_measure] / 2.0;
        if (!(threshold > 0.0)) GTEST_SKIP() << family.name << " accrues no energy";

        const RefStop stop{family.energy_measure, threshold};
        const RefResult ref =
            reference_run(family.model, family.measures, options, &stop);
        const DepletionResult run =
            simulator.run_until(family.energy_measure, threshold, options);

        EXPECT_EQ(run.depleted, ref.stopped) << family.name;
        EXPECT_EQ(run.time, ref.stop_time) << family.name;
        ASSERT_EQ(run.totals.size(), ref.totals.size());
        for (std::size_t m = 0; m < run.totals.size(); ++m) {
            EXPECT_EQ(run.totals[m], ref.totals[m]) << family.name << " measure " << m;
        }
    }
}

/// Records every residence interval; optionally stops inside the k-th.
class RecordingObserver final : public TrajectoryObserver {
public:
    explicit RecordingObserver(int stop_at = -1) : stop_at_(stop_at) {}

    double residence(lts::StateId state, double from, double to) override {
        log_.emplace_back(state, from, to);
        if (static_cast<int>(log_.size()) == stop_at_) {
            return from + 0.25 * (to - from);
        }
        return -1.0;
    }

    [[nodiscard]] const std::vector<std::tuple<lts::StateId, double, double>>& log()
        const {
        return log_;
    }

private:
    int stop_at_;
    std::vector<std::tuple<lts::StateId, double, double>> log_;
};

TEST(SimDiff, ObservedTrajectoriesMatchReference) {
    for (const Family& family : shipped_families()) {
        const Simulator simulator(family.model, family.measures);
        SimOptions options = clocked_options(family.horizon / 4, 5);

        for (const int stop_at : {-1, 10}) {
            RecordingObserver new_observer(stop_at);
            RecordingObserver ref_observer(stop_at);
            const ObservedResult run = simulator.run_observed(options, new_observer);
            const RefResult ref = reference_run(family.model, family.measures,
                                                options, nullptr, &ref_observer);

            EXPECT_EQ(run.stopped, ref.stopped) << family.name;
            EXPECT_EQ(run.time, ref.stop_time) << family.name;
            EXPECT_EQ(run.events, ref.events) << family.name;
            for (std::size_t m = 0; m < run.totals.size(); ++m) {
                EXPECT_EQ(run.totals[m], ref.totals[m])
                    << family.name << " measure " << m;
            }
            ASSERT_EQ(new_observer.log().size(), ref_observer.log().size())
                << family.name;
            EXPECT_EQ(new_observer.log(), ref_observer.log()) << family.name;
        }
    }
}

// ---------------------------------------------------------------------------
// Construction-time validation
// ---------------------------------------------------------------------------

adl::ArchiType zero_weight_immediates() {
    adl::ArchiType archi;
    archi.name = "ZeroWeights";
    adl::ElemType t;
    t.name = "T";
    t.behaviors = {
        adl::BehaviorDef{"Start", {},
                         {{nullptr, {{"step", lts::RateExp{1.0}}}, {"Choice", {}}}}},
        adl::BehaviorDef{"Choice",
                         {},
                         {{nullptr, {{"left", lts::RateImmediate{1, 0.0}}}, {"Start", {}}},
                          {nullptr, {{"right", lts::RateImmediate{1, 0.0}}}, {"Start", {}}}}},
    };
    archi.elem_types = {t};
    archi.instances = {adl::Instance{"X", "T", {}}};
    return archi;
}

TEST(SimDiff, RejectsZeroWeightImmediatesAtConstruction) {
    // The retired scheduler silently fell through to timed scheduling in a
    // state whose best-priority immediate weights sum to zero — a deadlock
    // here, since the state has no timed transitions.  The compiled tables
    // surface the modelling error when the Simulator is built.
    const adl::ComposedModel model = adl::compose(zero_weight_immediates());
    EXPECT_THROW(Simulator(model, {}), ModelError);
}

}  // namespace
}  // namespace dpma::sim
