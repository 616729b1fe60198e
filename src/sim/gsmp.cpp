#include "sim/gsmp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/error.hpp"
#include "core/stats_math.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dpma::sim {

Simulator::Simulator(const adl::ComposedModel& model, std::vector<adl::Measure> measures)
    : model_(model), measures_(std::move(measures)) {
    // Sanity: reject functional or passive leftovers early.  Slots are
    // numbered in order of first use, so the first bad slot is the one the
    // first bad transition carries.
    for (const lts::RateSlot& slot : model_.graph.slots()) {
        if (std::holds_alternative<lts::RateUnspecified>(slot.rate)) {
            throw ModelError("functional model cannot be simulated: action " +
                             model_.graph.actions()->name(slot.action) + " has no rate");
        }
        if (lts::is_passive(slot.rate)) {
            throw ModelError("passive transition survived composition: " +
                             model_.graph.actions()->name(slot.action));
        }
    }

    const std::size_t num_states = model_.graph.num_states();
    const std::size_t num_actions = model_.graph.actions()->size();
    state_reward_rate_.assign(measures_.size(), {});
    action_reward_.assign(measures_.size(), {});
    for (std::size_t m = 0; m < measures_.size(); ++m) {
        state_reward_rate_[m].assign(num_states, 0.0);
        action_reward_[m].assign(num_actions, 0.0);
        for (const adl::RewardClause& clause : measures_[m].clauses) {
            if (clause.target == adl::RewardClause::Target::State) {
                const auto mask = adl::state_mask(model_, clause.predicate);
                for (lts::StateId s = 0; s < num_states; ++s) {
                    if (mask[s]) state_reward_rate_[m][s] += clause.reward;
                }
            } else {
                const auto mask = adl::action_mask(model_, clause.predicate);
                for (Symbol a = 0; a < num_actions; ++a) {
                    if (mask[a]) action_reward_[m][a] += clause.reward;
                }
            }
        }
    }
    compiled_ = compile_model(model_, state_reward_rate_, action_reward_);
}

RunResult Simulator::run(const SimOptions& options, std::vector<TraceEvent>* trace) const {
    RunResult result = run_impl(options, nullptr, trace, nullptr, nullptr);
    for (double& v : result.values) v /= options.horizon;
    return result;
}

DepletionResult Simulator::run_until(std::size_t measure_index, double threshold,
                                     const SimOptions& options) const {
    DPMA_REQUIRE(measure_index < measures_.size(), "measure index out of range");
    DPMA_REQUIRE(threshold > 0.0, "threshold must be positive");
    DPMA_REQUIRE(options.warmup == 0.0, "run_until accumulates from time zero");
    const StopSpec stop{measure_index, threshold};
    DepletionResult out;
    out.time = options.warmup + options.horizon;
    const RunResult raw =
        run_impl(options, &stop, nullptr, &out.time, &out.depleted);
    out.totals = raw.values;
    return out;
}

ObservedResult Simulator::run_observed(const SimOptions& options,
                                       TrajectoryObserver& observer) const {
    DPMA_REQUIRE(options.warmup == 0.0, "run_observed accumulates from time zero");
    ObservedResult out;
    out.time = options.horizon;
    const RunResult raw =
        run_impl(options, nullptr, nullptr, &out.time, &out.stopped, nullptr, &observer);
    out.totals = raw.values;
    out.events = raw.events;
    return out;
}

RunResult Simulator::run_impl(const SimOptions& options, const StopSpec* stop,
                              std::vector<TraceEvent>* trace, double* stop_time,
                              bool* depleted, BatchSink* batches,
                              TrajectoryObserver* observer) const {
    DPMA_ASSERT(stop == nullptr || observer == nullptr,
                "stop spec and trajectory observer are mutually exclusive");
    DPMA_NAMED_SPAN(span, "sim.run", "sim");
    span.arg("horizon", options.horizon);
    DPMA_REQUIRE(options.horizon > 0.0, "simulation horizon must be positive");
    DPMA_REQUIRE(options.warmup >= 0.0, "negative warmup");
    Rng rng(options.seed);

    const double t_begin = options.warmup;
    const double t_end = options.warmup + options.horizon;

    lts::StateId state = model_.graph.initial();
    DPMA_REQUIRE(state != lts::kNoState, "model has no initial state");

    double now = 0.0;
    std::uint64_t events = 0;
    bool finished = false;

    std::vector<KahanSum> totals(measures_.size());

    // Dense clocks keyed by action label (enabling memory): value plus a
    // scheduling-round stamp per label.  A clock carries to the next round
    // iff its stamp is the previous round's; firing or disabling a label
    // just leaves its stamp behind — no per-round map churn.
    constexpr std::uint64_t kUnscheduled = std::numeric_limits<std::uint64_t>::max();
    struct Clock {
        double value = 0.0;
        std::uint64_t round = kUnscheduled;
    };
    std::vector<Clock> clocks(compiled_.num_actions);
    std::uint64_t round = 0;
    std::uint64_t fresh_samples = 0;

    // Distributes a state-residence reward interval over the batch buckets
    // (intervals may span several batch boundaries).
    const auto batch_state_time = [&](lts::StateId s, double lo, double hi) {
        if (batches == nullptr) return;
        const CompiledModel::StateInfo& info = compiled_.states[s];
        double from = lo;
        while (from < hi) {
            const auto index = static_cast<std::size_t>((from - t_begin) / batches->length);
            if (index >= batches->totals.size()) break;
            const double boundary = t_begin + (index + 1) * batches->length;
            const double to = std::min(hi, boundary);
            for (std::uint32_t e = info.reward_begin; e < info.reward_end; ++e) {
                const CompiledModel::RewardEntry& entry = compiled_.state_rewards[e];
                batches->totals[index][entry.measure] += entry.value * (to - from);
            }
            from = to;
        }
    };

    // Accumulates state rewards over [from, to) in `s`.  Returns the stop
    // crossing time if the stop measure crosses its threshold inside the
    // interval (its reward accrues linearly), NaN otherwise.
    const auto accumulate_state_time = [&](lts::StateId s, double from,
                                           double to) -> double {
        const double lo = std::max(from, t_begin);
        const double hi = std::min(to, t_end);
        if (hi <= lo) return std::numeric_limits<double>::quiet_NaN();
        const double dt = hi - lo;
        double crossing = std::numeric_limits<double>::quiet_NaN();
        if (stop != nullptr) {
            const double rate = state_reward_rate_[stop->measure][s];
            const double current = totals[stop->measure].value();
            if (rate > 0.0 && current + rate * dt >= stop->threshold) {
                crossing = lo + (stop->threshold - current) / rate;
            }
        }
        const CompiledModel::StateInfo& info = compiled_.states[s];
        for (std::uint32_t e = info.reward_begin; e < info.reward_end; ++e) {
            const CompiledModel::RewardEntry& entry = compiled_.state_rewards[e];
            totals[entry.measure].add(entry.value * dt);
        }
        batch_state_time(s, lo, hi);
        return crossing;
    };

    const auto accumulate_firing = [&](lts::ActionId action, double at) {
        if (at < t_begin || at > t_end) return;
        const std::uint32_t reward_begin = compiled_.action_reward_begin[action];
        const std::uint32_t reward_end = compiled_.action_reward_begin[action + 1];
        for (std::uint32_t e = reward_begin; e < reward_end; ++e) {
            const CompiledModel::RewardEntry& entry = compiled_.action_rewards[e];
            totals[entry.measure].add(entry.value);
        }
        if (batches != nullptr && at > t_begin) {
            const auto index =
                static_cast<std::size_t>((at - t_begin) / batches->length);
            if (index < batches->totals.size()) {
                for (std::uint32_t e = reward_begin; e < reward_end; ++e) {
                    const CompiledModel::RewardEntry& entry = compiled_.action_rewards[e];
                    batches->totals[index][entry.measure] += entry.value;
                }
            }
        }
    };

    const auto stop_reached = [&]() {
        return stop != nullptr && totals[stop->measure].value() >= stop->threshold;
    };

    // Reports the residence interval [from, to) to the observer; returns the
    // observer's stop time when it ends the run there, NaN otherwise.
    const auto observe = [&](lts::StateId s, double from, double to) -> double {
        if (observer == nullptr || to <= from) {
            return std::numeric_limits<double>::quiet_NaN();
        }
        const double at = observer->residence(s, from, to);
        if (at < 0.0) return std::numeric_limits<double>::quiet_NaN();
        DPMA_ASSERT(at >= from && at <= to, "observer stop time outside the interval");
        return at;
    };

    std::uint64_t immediate_burst = 0;
    while (now < t_end) {
        const CompiledModel::StateInfo& info = compiled_.states[state];

        // Maximal progress: drain immediate transitions without advancing
        // time.  The table holds the best-priority candidates with positive
        // weight; the draw replays the reference scanner (same total, same
        // sequential subtraction, last candidate as numerical-slack
        // fallback).
        if (info.imm_begin != info.imm_end) {
            if (++immediate_burst > options.max_immediate_burst) {
                throw NumericalError(
                    "immediate-action livelock: over " +
                    std::to_string(options.max_immediate_burst) +
                    " immediate firings without time advancing");
            }
            double pick = rng.uniform01() * info.imm_total_weight;
            const CompiledModel::ImmediateCandidate* chosen =
                &compiled_.immediates[info.imm_end - 1];
            for (std::uint32_t k = info.imm_begin; k < info.imm_end; ++k) {
                pick -= compiled_.immediates[k].weight;
                if (pick <= 0.0) {
                    chosen = &compiled_.immediates[k];
                    break;
                }
            }
            accumulate_firing(chosen->action, now);
            if (now >= t_begin) {
                ++events;
                if (trace != nullptr) {
                    trace->push_back(TraceEvent{now, chosen->action, chosen->target});
                }
            }
            state = chosen->target;
            if (stop_reached()) {
                if (stop_time != nullptr) *stop_time = now;
                if (depleted != nullptr) *depleted = true;
                finished = true;
                break;
            }
            continue;
        }
        immediate_burst = 0;

        if (info.timed_begin == info.timed_end) {
            // Deadlock: the remaining time is spent here.
            double seg_end = t_end;
            bool observer_stop = false;
            if (const double at = observe(state, now, t_end); !std::isnan(at)) {
                seg_end = at;
                observer_stop = true;
            }
            const double crossing = accumulate_state_time(state, now, seg_end);
            if (!std::isnan(crossing) || observer_stop) {
                if (stop_time != nullptr) {
                    *stop_time = observer_stop ? seg_end : crossing;
                }
                if (depleted != nullptr) *depleted = true;
                finished = true;
            }
            now = seg_end;
            break;
        }

        // Schedule: earliest clock expiry.
        ++round;
        double min_remaining = std::numeric_limits<double>::infinity();
        for (std::uint32_t li = info.timed_begin; li < info.timed_end; ++li) {
            const CompiledModel::TimedLabel& tl = compiled_.timed[li];
            Clock& clock = clocks[tl.action];
            double remaining;
            if (clock.round == round - 1) {
                remaining = clock.value;
            } else {
                remaining = rng.sample(tl.dist);
                clock.value = remaining;
                ++fresh_samples;
            }
            clock.round = round;
            min_remaining = std::min(min_remaining, remaining);
        }

        // Advance time to the expiry.
        const double fire_time = now + min_remaining;
        if (const double at = observe(state, now, std::min(fire_time, t_end));
            !std::isnan(at)) {
            (void)accumulate_state_time(state, now, at);
            if (stop_time != nullptr) *stop_time = at;
            if (depleted != nullptr) *depleted = true;
            finished = true;
            now = at;
            break;
        }
        const double crossing =
            accumulate_state_time(state, now, std::min(fire_time, t_end));
        if (!std::isnan(crossing)) {
            if (stop_time != nullptr) *stop_time = crossing;
            if (depleted != nullptr) *depleted = true;
            // Roll the overshoot back so the totals reflect the stop instant.
            const double overshoot = std::min(fire_time, t_end) - crossing;
            for (std::uint32_t e = info.reward_begin; e < info.reward_end; ++e) {
                const CompiledModel::RewardEntry& entry = compiled_.state_rewards[e];
                totals[entry.measure].add(-entry.value * overshoot);
            }
            finished = true;
            now = crossing;
            break;
        }
        if (fire_time >= t_end) {
            now = t_end;
            break;
        }
        now = fire_time;

        // Expiring label (ties: collect all minimal labels and pick
        // uniformly).  The scan walks the labels in the retired
        // unordered_map's iteration order — the tie-break draws are
        // order-sensitive — while decrementing every running clock.
        lts::ActionId fired_action = kNoSymbol;
        std::uint32_t fired_index = 0;
        std::uint32_t minimal = 0;
        for (std::uint32_t k = info.timed_begin; k < info.timed_end; ++k) {
            const std::uint32_t li = info.timed_begin + compiled_.tie_order[k];
            const CompiledModel::TimedLabel& tl = compiled_.timed[li];
            const double remaining = (clocks[tl.action].value -= min_remaining);
            if (remaining <= 1e-15) {
                ++minimal;
                if (fired_action == kNoSymbol || rng.below(minimal) == 0) {
                    fired_action = tl.action;
                    fired_index = li;
                }
            }
        }
        DPMA_ASSERT(fired_action != kNoSymbol, "no clock expired at the minimum");

        // Among transitions carrying the fired label, choose uniformly.
        const CompiledModel::TimedLabel& fired = compiled_.timed[fired_index];
        std::uint32_t candidates = 0;
        lts::StateId fired_target = lts::kNoState;
        for (std::uint32_t c = fired.cand_begin; c < fired.cand_end; ++c) {
            ++candidates;
            if (rng.below(candidates) == 0) fired_target = compiled_.targets[c];
        }
        DPMA_ASSERT(fired_target != lts::kNoState, "fired label has no transition");
        clocks[fired_action].round = kUnscheduled;

        accumulate_firing(fired_action, now);
        if (now >= t_begin) {
            ++events;
            if (trace != nullptr) {
                trace->push_back(TraceEvent{now, fired_action, fired_target});
            }
        }
        state = fired_target;
        if (stop_reached()) {
            if (stop_time != nullptr) *stop_time = now;
            if (depleted != nullptr) *depleted = true;
            finished = true;
            break;
        }
    }
    (void)finished;

    RunResult result;
    result.events = events;
    result.values.reserve(measures_.size());
    for (std::size_t m = 0; m < measures_.size(); ++m) {
        result.values.push_back(totals[m].value());
    }
    // One registry update per run, not per event: pool workers would contend
    // on a per-event atomic, and `events` already aggregates the loop.
    static obs::Counter& run_counter = obs::counter("sim.runs");
    static obs::Counter& event_counter = obs::counter("sim.events");
    static obs::Counter& clock_counter = obs::counter("sim.clock.samples");
    run_counter.add();
    event_counter.add(events);
    if (fresh_samples != 0) clock_counter.add(fresh_samples);
    span.arg("events", static_cast<double>(events));
    return result;
}

std::vector<Estimate> simulate_replications(const Simulator& simulator,
                                            const SimOptions& options, int replications,
                                            double confidence) {
    DPMA_REQUIRE(replications >= 1, "need at least one replication");
    const std::size_t num_measures = simulator.measures().size();
    std::vector<Estimate> estimates(num_measures);
    for (std::size_t m = 0; m < num_measures; ++m) {
        estimates[m].samples.reserve(static_cast<std::size_t>(replications));
    }
    for (int r = 0; r < replications; ++r) {
        SimOptions rep = options;
        rep.seed = Rng::derive_seed(options.seed, static_cast<std::uint64_t>(r));
        const RunResult run = simulator.run(rep);
        for (std::size_t m = 0; m < num_measures; ++m) {
            estimates[m].samples.push_back(run.values[m]);
        }
    }
    for (std::size_t m = 0; m < num_measures; ++m) {
        estimates[m].mean = mean_of(estimates[m].samples);
        estimates[m].half_width = confidence_half_width(estimates[m].samples, confidence);
    }
    return estimates;
}

Estimate simulate_depletion(const Simulator& simulator, std::size_t measure_index,
                            double threshold, const SimOptions& options,
                            int replications, double confidence) {
    DPMA_REQUIRE(replications >= 1, "need at least one replication");
    Estimate estimate;
    estimate.samples.reserve(static_cast<std::size_t>(replications));
    for (int r = 0; r < replications; ++r) {
        SimOptions rep = options;
        rep.seed = Rng::derive_seed(options.seed, static_cast<std::uint64_t>(r) + 7777);
        const DepletionResult result =
            simulator.run_until(measure_index, threshold, rep);
        if (!result.depleted) {
            throw NumericalError(
                "depletion horizon too short: threshold not reached; raise "
                "SimOptions::horizon");
        }
        estimate.samples.push_back(result.time);
    }
    estimate.mean = mean_of(estimate.samples);
    estimate.half_width = confidence_half_width(estimate.samples, confidence);
    return estimate;
}

}  // namespace dpma::sim
