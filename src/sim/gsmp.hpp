#pragma once

/// \file gsmp.hpp
/// Discrete-event simulation of a composed stochastic model as a generalised
/// semi-Markov process (GSMP).
///
/// Semantics:
///  * a clock is associated with every *enabled* timed transition, keyed by
///    its action label; clocks keep their remaining time while the label
///    stays continuously enabled (enabling memory) and are resampled when
///    the label becomes enabled anew — with exponential distributions this
///    coincides with the CTMC semantics by memorylessness, which is exactly
///    the cross-validation argument of Sect. 5.1 of the paper;
///  * immediate transitions pre-empt timed ones (maximal progress) and are
///    resolved by priority, then weight-proportional random choice;
///  * measures accumulate over an observation window [warmup, warmup+horizon]:
///    STATE_REWARD clauses integrate reward over time and are reported as
///    time averages; TRANS_REWARD clauses count weighted firings and are
///    reported as frequencies — the same meaning their CTMC evaluation has.
///
/// Besides steady-state estimation (run / simulate_replications) the
/// simulator answers first-passage questions on accumulated rewards
/// (run_until): "how long until the battery has spent E units of energy?" —
/// the battery-lifetime question behind the paper's setting.

#include <cstdint>
#include <vector>

#include "adl/compose.hpp"
#include "adl/measure.hpp"
#include "sim/compiled.hpp"
#include "sim/rng.hpp"

namespace dpma::sim {

struct BatchOptions;
struct BatchEstimate;

struct SimOptions {
    double warmup = 0.0;    ///< time discarded before measuring
    double horizon = 0.0;   ///< measured time span (must be > 0)
    std::uint64_t seed = 1;
    /// Guard against immediate-action livelock.
    std::uint64_t max_immediate_burst = 1'000'000;
};

/// One simulation run's estimate of each measure (index-aligned with the
/// measure list passed in).
struct RunResult {
    std::vector<double> values;
    std::uint64_t events = 0;  ///< transitions fired inside the window
};

/// One recorded firing (see Simulator::run's trace parameter).
struct TraceEvent {
    double time;
    lts::ActionId action;
    lts::StateId target;  ///< state entered by the firing
};

/// Outcome of a first-passage (run_until) simulation.
struct DepletionResult {
    double time = 0.0;      ///< when the threshold was crossed, or the horizon
    bool depleted = false;  ///< threshold reached before the horizon?
    /// Raw accumulated totals of every measure at `time` (not time-averaged).
    std::vector<double> totals;
};

/// Observes a simulated trajectory as the sequence of its constant-state
/// residence intervals — the coupling point for continuous side models that
/// integrate something over the trajectory (a battery draining at the
/// current state's power, a thermal model, ...).  Immediate firings take
/// zero time and are not reported; the final (horizon-truncated) interval
/// is.  The observer may end the run early by returning a stop instant
/// (e.g. the exact battery-depletion crossing inside the interval).
class TrajectoryObserver {
public:
    virtual ~TrajectoryObserver() = default;

    /// One residence interval [from, to) spent in composed state \p state.
    /// Return a stop time within [from, to] to end the run there, or any
    /// negative value to continue.
    virtual double residence(lts::StateId state, double from, double to) = 0;
};

/// Outcome of an observed (run_observed) simulation.
struct ObservedResult {
    double time = 0.0;     ///< observer stop time, or the horizon
    bool stopped = false;  ///< did the observer end the run?
    /// Raw accumulated totals of every measure at `time` (not time-averaged).
    std::vector<double> totals;
    std::uint64_t events = 0;  ///< transitions fired before `time`
};

/// GSMP simulator bound to a composed model and a list of measures.
/// Per-state and per-action reward rates are precomputed once, so repeated
/// runs are cheap.
class Simulator {
public:
    Simulator(const adl::ComposedModel& model, std::vector<adl::Measure> measures);

    /// Runs one replication.  When \p trace is non-null, every firing inside
    /// the observation window is appended to it (time-ordered).
    [[nodiscard]] RunResult run(const SimOptions& options,
                                std::vector<TraceEvent>* trace = nullptr) const;

    /// Runs from time 0 (no warmup) until the accumulated raw total of
    /// measure \p measure_index reaches \p threshold, or until the horizon.
    /// State-reward crossings are located exactly (reward accrues linearly
    /// within a state); transition rewards cross at the firing instant.
    [[nodiscard]] DepletionResult run_until(std::size_t measure_index, double threshold,
                                            const SimOptions& options) const;

    /// Runs from time 0 (no warmup), reporting every residence interval to
    /// \p observer, until the observer stops the run or the horizon is
    /// reached.  Measure totals in the result are accumulated exactly up to
    /// the stop instant (state rewards accrue linearly within a state).
    [[nodiscard]] ObservedResult run_observed(const SimOptions& options,
                                              TrajectoryObserver& observer) const;

    [[nodiscard]] const std::vector<adl::Measure>& measures() const noexcept {
        return measures_;
    }

    /// Total STATE_REWARD accrual rate of measure \p measure_index in every
    /// composed state — e.g. the power the battery sees per state.  Indexed
    /// by composed-graph StateId.
    [[nodiscard]] const std::vector<double>& state_reward_rates(
        std::size_t measure_index) const {
        return state_reward_rate_.at(measure_index);
    }

private:
    struct StopSpec {
        std::size_t measure;
        double threshold;
    };

    /// Optional per-batch accumulation (batch-means estimation): raw totals
    /// of every measure per batch of length `length`, starting at the end of
    /// the warmup.  Residence intervals spanning batch boundaries are split.
    struct BatchSink {
        double length = 0.0;
        /// totals[batch][measure]
        std::vector<std::vector<double>> totals;
    };

    /// \p stop and \p observer are mutually exclusive ways to end the run
    /// early; the public entry points never combine them.
    RunResult run_impl(const SimOptions& options, const StopSpec* stop,
                       std::vector<TraceEvent>* trace, double* stop_time,
                       bool* depleted, BatchSink* batches = nullptr,
                       TrajectoryObserver* observer = nullptr) const;

    friend std::vector<BatchEstimate> batch_means_impl(const Simulator&,
                                                       const BatchOptions&);

    const adl::ComposedModel& model_;
    std::vector<adl::Measure> measures_;
    /// Frozen per-state scheduler tables (sim/compiled.hpp), built once.
    CompiledModel compiled_;
    /// state_reward_rate_[m][s]: total STATE_REWARD accrual rate of measure
    /// m while in composed state s.
    std::vector<std::vector<double>> state_reward_rate_;
    /// action_reward_[m][a]: total TRANS_REWARD of measure m per firing of
    /// action label a.
    std::vector<std::vector<double>> action_reward_;
};

/// Aggregate of independent replications.
struct Estimate {
    double mean = 0.0;
    double half_width = 0.0;  ///< half-width of the two-sided CI
    std::vector<double> samples;
};

/// Runs \p replications independent runs (seeds derived from options.seed)
/// and returns one Estimate per measure at the given confidence level.
[[nodiscard]] std::vector<Estimate> simulate_replications(const Simulator& simulator,
                                                          const SimOptions& options,
                                                          int replications,
                                                          double confidence);

/// Repeated run_until: mean and CI of the first-passage time (e.g. battery
/// lifetime at a given capacity).
[[nodiscard]] Estimate simulate_depletion(const Simulator& simulator,
                                          std::size_t measure_index, double threshold,
                                          const SimOptions& options, int replications,
                                          double confidence);

}  // namespace dpma::sim
