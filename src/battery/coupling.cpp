#include "battery/coupling.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <sstream>

#include "core/error.hpp"
#include "core/stats_math.hpp"
#include "ctmc/solve.hpp"
#include "exp/pool.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/rng.hpp"

namespace dpma::battery {

namespace {

/// Drains a battery along the simulated trajectory; stops the run at the
/// exact depletion crossing inside a residence interval.
class BatteryObserver final : public sim::TrajectoryObserver {
public:
    BatteryObserver(BatteryModel& model, const std::vector<double>& power)
        : model_(model), power_(power) {}

    double residence(lts::StateId state, double from, double to) override {
        ++steps_;
        const double offset = model_.advance(power_[state], to - from);
        return std::isnan(offset) ? -1.0 : from + offset;
    }

    /// Residence intervals seen; flushed to the metrics registry once per
    /// replay (a per-event counter add would contend across pool workers).
    [[nodiscard]] std::uint64_t steps() const { return steps_; }

private:
    BatteryModel& model_;
    const std::vector<double>& power_;
    std::uint64_t steps_ = 0;
};

}  // namespace

namespace {

void validate_replay(const sim::Simulator& simulator, std::size_t power_measure,
                     const BatteryParams& params, const ReplayOptions& options) {
    DPMA_REQUIRE(options.replications >= 1, "need at least one replication");
    DPMA_REQUIRE(std::isfinite(options.horizon) && options.horizon > 0.0,
                 "replay horizon must be positive and finite");
    DPMA_REQUIRE(power_measure < simulator.measures().size(),
                 "power measure index out of range");
    params.validate();
}

/// Replays replication \p r through \p battery (assumed freshly reset) and
/// returns its outcome; \p steps receives the residence-interval count.
ReplicationOutcome replay_one(const sim::Simulator& simulator,
                              const std::vector<double>& power,
                              BatteryModel& battery, const ReplayOptions& options,
                              int r, std::uint64_t& steps) {
    BatteryObserver observer(battery, power);

    sim::SimOptions run;
    run.horizon = options.horizon;
    // Same per-replication streams as sim::simulate_depletion, so an ideal
    // battery reproduces run_until's first-passage times exactly.
    run.seed =
        sim::Rng::derive_seed(options.seed, static_cast<std::uint64_t>(r) + 7777);
    run.max_immediate_burst = options.max_immediate_burst;
    const sim::ObservedResult result = simulator.run_observed(run, observer);
    steps = observer.steps();

    ReplicationOutcome outcome;
    outcome.time = result.time;
    outcome.depleted = result.stopped;
    outcome.delivered = battery.delivered_charge();
    outcome.recovered = battery.recovered_charge();
    outcome.state_of_charge = battery.state_of_charge();
    outcome.totals = result.totals;
    return outcome;
}

/// Folds per-replication outcomes (replication order) into the estimate;
/// updates the registry exactly as the serial loop did, so a pooled run's
/// telemetry and aggregates match serial bit for bit.
LifetimeEstimate aggregate_outcomes(std::vector<ReplicationOutcome>&& outcomes,
                                    std::span<const std::uint64_t> steps,
                                    const sim::Simulator& simulator,
                                    const ReplayOptions& options) {
    static obs::Counter& replays = obs::counter("battery.replays");
    static obs::Counter& censored_counter = obs::counter("battery.censored");
    static obs::Counter& steps_counter = obs::counter("battery.steps");
    static obs::Histogram& recovered_hist = obs::histogram("battery.recovered_charge");

    LifetimeEstimate estimate;
    estimate.replications = options.replications;
    estimate.samples.reserve(outcomes.size());
    estimate.mean_totals.assign(simulator.measures().size(), 0.0);
    std::vector<KahanSum> total_sums(simulator.measures().size());
    KahanSum delivered_sum;
    KahanSum recovered_sum;

    for (std::size_t r = 0; r < outcomes.size(); ++r) {
        const ReplicationOutcome& outcome = outcomes[r];
        replays.add();
        steps_counter.add(steps[r]);
        recovered_hist.observe(outcome.recovered);
        if (outcome.depleted) {
            estimate.samples.push_back(outcome.time);
            for (std::size_t m = 0; m < outcome.totals.size(); ++m) {
                total_sums[m].add(outcome.totals[m]);
            }
            delivered_sum.add(outcome.delivered);
            recovered_sum.add(outcome.recovered);
        } else {
            ++estimate.censored;
            censored_counter.add();
        }
    }
    estimate.outcomes = std::move(outcomes);

    if (!estimate.samples.empty()) {
        const double n = static_cast<double>(estimate.samples.size());
        estimate.mean = mean_of(estimate.samples);
        estimate.half_width = confidence_half_width(estimate.samples,
                                                    options.confidence);
        for (std::size_t m = 0; m < estimate.mean_totals.size(); ++m) {
            estimate.mean_totals[m] = total_sums[m].value() / n;
        }
        estimate.mean_delivered = delivered_sum.value() / n;
        estimate.mean_recovered = recovered_sum.value() / n;
    }
    return estimate;
}

}  // namespace

LifetimeEstimate simulate_lifetime(const sim::Simulator& simulator,
                                   std::size_t power_measure,
                                   const BatteryParams& params,
                                   const ReplayOptions& options) {
    exp::ThreadPool serial(1);  // spawns no workers: a plain in-caller loop
    return simulate_lifetime(simulator, power_measure, params, options, serial);
}

LifetimeEstimate simulate_lifetime(const sim::Simulator& simulator,
                                   std::size_t power_measure,
                                   const BatteryParams& params,
                                   const ReplayOptions& options,
                                   exp::ThreadPool& pool) {
    DPMA_SPAN("battery.replay", "battery");
    validate_replay(simulator, power_measure, params, options);

    const std::vector<double>& power = simulator.state_reward_rates(power_measure);
    const auto count = static_cast<std::size_t>(options.replications);

    // Each replication drains its own fresh battery and writes slot r; the
    // registry and the aggregates are then updated in replication order,
    // making the result bit-identical for any pool size.
    std::vector<ReplicationOutcome> outcomes(count);
    std::vector<std::uint64_t> steps(count, 0);
    pool.run(count, [&](std::size_t r) {
        const auto battery = make_battery(params);
        outcomes[r] = replay_one(simulator, power, *battery, options,
                                 static_cast<int>(r), steps[r]);
    });
    static obs::Counter& parallel_counter = obs::counter("sim.replications.parallel");
    if (pool.jobs() > 1) parallel_counter.add();
    return aggregate_outcomes(std::move(outcomes), steps, simulator, options);
}

std::string LifetimeEstimate::json() const {
    std::ostringstream out;
    out << "{\"mean\":" << obs::json_number(mean)
        << ",\"half_width\":" << obs::json_number(half_width)
        << ",\"replications\":" << replications << ",\"censored\":" << censored
        << ",\"mean_delivered\":" << obs::json_number(mean_delivered)
        << ",\"mean_recovered\":" << obs::json_number(mean_recovered)
        << ",\"mean_totals\":[";
    for (std::size_t m = 0; m < mean_totals.size(); ++m) {
        out << (m == 0 ? "" : ",") << obs::json_number(mean_totals[m]);
    }
    out << "],\"outcomes\":[";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const ReplicationOutcome& o = outcomes[i];
        out << (i == 0 ? "" : ",") << "{\"time\":" << obs::json_number(o.time)
            << ",\"depleted\":" << (o.depleted ? "true" : "false")
            << ",\"delivered\":" << obs::json_number(o.delivered)
            << ",\"recovered\":" << obs::json_number(o.recovered)
            << ",\"state_of_charge\":" << obs::json_number(o.state_of_charge)
            << "}";
    }
    out << "]}";
    return out.str();
}

std::vector<double> tangible_power(const ctmc::MarkovModel& markov,
                                   const adl::ComposedModel& model,
                                   const adl::Measure& measure) {
    std::vector<double> power(markov.chain.num_states(), 0.0);
    for (const adl::RewardClause& clause : measure.clauses) {
        if (clause.target != adl::RewardClause::Target::State) {
            continue;
        }
        const std::vector<char> mask = adl::state_mask(model, clause.predicate);
        for (std::size_t t = 0; t < power.size(); ++t) {
            if (mask[markov.orig_of[t]]) {
                power[t] += clause.reward;
            }
        }
    }
    return power;
}

PowerProfile transient_power_profile(
    const ctmc::Ctmc& chain,
    const std::vector<std::pair<ctmc::TangibleId, double>>& initial,
    const std::vector<double>& power, const ProfileOptions& options) {
    DPMA_REQUIRE(power.size() == chain.num_states(),
                 "power vector size must match the chain");
    DPMA_REQUIRE(options.step >= 0.0 && std::isfinite(options.step),
                 "profile step must be finite and >= 0");

    PowerProfile profile;
    const double max_exit = chain.max_exit_rate();
    profile.step = options.step > 0.0
                       ? options.step
                       : (max_exit > 0.0 ? 0.5 / max_exit : 1.0);

    // Dense current distribution.
    std::vector<double> pi(chain.num_states(), 0.0);
    for (const auto& [state, mass] : initial) {
        DPMA_REQUIRE(state < pi.size(), "initial state out of range");
        pi[state] += mass;
    }

    const auto expected_power = [&](const std::vector<double>& dist) {
        KahanSum sum;
        for (std::size_t s = 0; s < dist.size(); ++s) {
            sum.add(dist[s] * power[s]);
        }
        return sum.value();
    };
    const auto sparse = [](const std::vector<double>& dist) {
        std::vector<std::pair<ctmc::TangibleId, double>> entries;
        for (std::size_t s = 0; s < dist.size(); ++s) {
            if (dist[s] > 0.0) {
                entries.emplace_back(static_cast<ctmc::TangibleId>(s), dist[s]);
            }
        }
        return entries;
    };

    profile.power.reserve(std::min<std::size_t>(options.max_steps, 4096));
    for (std::size_t i = 0; i < options.max_steps; ++i) {
        const auto entries = sparse(pi);
        // Exact expected energy over this step / step = exact mean power on
        // the interval (uniformisation accumulated-reward identity), started
        // from the current distribution by the Markov property.
        const double energy =
            ctmc::accumulated_reward(chain, entries, power, profile.step);
        profile.power.push_back(energy / profile.step);

        const std::vector<double> next = ctmc::transient(chain, entries, profile.step);
        double delta = 0.0;
        for (std::size_t s = 0; s < pi.size(); ++s) {
            delta = std::max(delta, std::abs(next[s] - pi[s]));
        }
        pi = next;
        if (delta < options.tolerance) {
            profile.stationary = true;
            break;
        }
    }
    profile.tail_power = expected_power(pi);
    return profile;
}

double profile_lifetime(const PowerProfile& profile, const BatteryParams& params) {
    const auto model = make_battery(params);
    double elapsed = 0.0;
    for (const double power : profile.power) {
        const double offset = model->advance(power, profile.step);
        if (!std::isnan(offset)) {
            return elapsed + offset;
        }
        elapsed += profile.step;
    }
    const double tail = model->time_to_depletion(profile.tail_power);
    return std::isinf(tail) ? kNever : elapsed + tail;
}

CtmcLifetime ctmc_lifetime(const ctmc::MarkovModel& markov,
                           const adl::ComposedModel& model,
                           const adl::Measure& power_measure,
                           const BatteryParams& params,
                           const ProfileOptions& options,
                           const std::vector<double>& pi) {
    DPMA_SPAN("battery.ctmc", "battery");
    params.validate();

    const std::vector<double> power = tangible_power(markov, model, power_measure);
    const std::vector<double> steady =
        pi.empty() ? ctmc::steady_state(markov.chain) : pi;
    DPMA_REQUIRE(steady.size() == markov.chain.num_states(),
                 "steady-state vector size must match the chain");

    CtmcLifetime result;
    KahanSum mean_power;
    for (std::size_t s = 0; s < steady.size(); ++s) {
        mean_power.add(steady[s] * power[s]);
    }
    result.steady_power = mean_power.value();
    result.fluid = constant_power_lifetime(params, result.steady_power);

    const PowerProfile profile = transient_power_profile(
        markov.chain, markov.initial_distribution, power, options);
    result.refined = profile_lifetime(profile, params);
    result.profile_stationary = profile.stationary;

    // Power partition: which power levels the chain occupies, with what mass.
    std::map<double, PowerBand> bands;
    for (std::size_t s = 0; s < steady.size(); ++s) {
        PowerBand& band = bands[power[s]];
        band.power = power[s];
        band.probability += steady[s];
        ++band.states;
    }
    result.bands.reserve(bands.size());
    for (const auto& [_, band] : bands) {
        result.bands.push_back(band);
    }
    return result;
}

std::string CtmcLifetime::json() const {
    std::ostringstream out;
    out << "{\"steady_power\":" << obs::json_number(steady_power)
        << ",\"fluid\":" << obs::json_number(fluid)
        << ",\"refined\":" << obs::json_number(refined)
        << ",\"profile_stationary\":" << (profile_stationary ? "true" : "false")
        << ",\"bands\":[";
    for (std::size_t i = 0; i < bands.size(); ++i) {
        out << (i == 0 ? "" : ",") << "{\"power\":" << obs::json_number(bands[i].power)
            << ",\"probability\":" << obs::json_number(bands[i].probability)
            << ",\"states\":" << bands[i].states << "}";
    }
    out << "]}";
    return out.str();
}

}  // namespace dpma::battery
