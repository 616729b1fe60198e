#pragma once

/// \file coupling.hpp
/// Couples a battery model to both phases of the methodology:
///
///  * **simulation** — simulate_lifetime() replays GSMP trajectories into a
///    battery via sim::TrajectoryObserver: between events the battery drains
///    at the current state's power reward rate, and the run ends at the
///    *exact* instant the available charge crosses zero (located in closed
///    form inside the residence interval).  Replication CIs reuse the
///    sim::Estimate conventions; replications still alive at the horizon are
///    *censored* and reported separately — never folded into the mean, which
///    would bias the lifetime low (see ISSUE: the old example's fragile
///    `4 * capacity / power` horizon did exactly that).
///
///  * **Markovian analysis** — ctmc_lifetime() bounds the lifetime from the
///    CTMC: the *fluid* lifetime feeds the steady-state expected power into
///    the battery as a constant load, and the *refined* lifetime replays the
///    transient expected-power profile (uniformisation steps until the
///    distribution is stationary) instead, capturing the initial transient.
///    For an ideal battery both equal capacity / E[power] once stationary;
///    for KiBaM/Peukert the nonlinearity makes them genuinely different
///    predictions.  The power partition of the tangible states (which states
///    drain how much, with what probability) is reported alongside.
///
/// All entry points are deterministic given their seeds and thread-safe on
/// distinct arguments (obs instruments are atomics), so exp::run_experiment
/// can evaluate them from its worker pool.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "adl/measure.hpp"
#include "battery/battery.hpp"
#include "ctmc/ctmc.hpp"
#include "sim/gsmp.hpp"

namespace dpma::exp {
class ThreadPool;
}  // namespace dpma::exp

namespace dpma::battery {

// ---------------------------------------------------------------------------
// Simulation side
// ---------------------------------------------------------------------------

struct ReplayOptions {
    /// Censoring bound: a replication whose battery outlives the horizon is
    /// counted as censored, not averaged.  Must be > 0.
    double horizon = 0.0;
    std::uint64_t seed = 1;
    int replications = 1;
    double confidence = 0.95;
    /// Guard against immediate-action livelock (see sim::SimOptions).
    std::uint64_t max_immediate_burst = 1'000'000;
};

/// One replication's outcome.
struct ReplicationOutcome {
    double time = 0.0;          ///< depletion instant, or the horizon
    bool depleted = false;
    double delivered = 0.0;     ///< charge delivered to the load
    double recovered = 0.0;     ///< KiBaM bound->available flow (0 otherwise)
    double state_of_charge = 0.0;  ///< residual SoC (stranded charge if dead)
    /// Raw accumulated totals of every simulator measure at `time` — e.g.
    /// requests served before the battery died.
    std::vector<double> totals;
};

/// Replication aggregate of simulate_lifetime().
struct LifetimeEstimate {
    double mean = 0.0;        ///< mean lifetime over *depleted* replications
    double half_width = 0.0;  ///< two-sided CI half-width over the same
    int replications = 0;
    int censored = 0;         ///< replications alive at the horizon
    std::vector<double> samples;      ///< depleted lifetimes, replication order
    /// Mean raw totals of every measure at depletion (depleted reps only).
    std::vector<double> mean_totals;
    double mean_delivered = 0.0;
    double mean_recovered = 0.0;
    std::vector<ReplicationOutcome> outcomes;  ///< all replications, in order

    /// Strict-JSON object (obs::json_valid) with the summary fields and the
    /// per-replication outcomes.
    [[nodiscard]] std::string json() const;
};

/// Battery lifetime by trajectory replay: \p replications independent runs
/// (seeds derived from options.seed exactly like sim::simulate_replications),
/// each driving a fresh battery with the per-state rates of measure
/// \p power_measure until depletion or options.horizon.
///
/// Deterministic given options.seed; emits obs counters `battery.replays`,
/// `battery.steps`, `battery.censored`, histogram `battery.recovered_charge`
/// and a "battery.replay" span.
[[nodiscard]] LifetimeEstimate simulate_lifetime(const sim::Simulator& simulator,
                                                 std::size_t power_measure,
                                                 const BatteryParams& params,
                                                 const ReplayOptions& options);

/// Replication-parallel overload: each replication drains its own battery on
/// a pool worker, then counters, histogram observations and aggregates are
/// applied in replication order — bit-identical for any pool size (same
/// seeds, same samples vector, same registry deltas).  The serial overload
/// is this one on a one-job pool.
[[nodiscard]] LifetimeEstimate simulate_lifetime(const sim::Simulator& simulator,
                                                 std::size_t power_measure,
                                                 const BatteryParams& params,
                                                 const ReplayOptions& options,
                                                 exp::ThreadPool& pool);

// ---------------------------------------------------------------------------
// Markovian side
// ---------------------------------------------------------------------------

/// STATE_REWARD accrual rate of \p measure in every tangible state (indexed
/// by TangibleId) — the power vector the analytic bounds integrate.
[[nodiscard]] std::vector<double> tangible_power(const ctmc::MarkovModel& markov,
                                                 const adl::ComposedModel& model,
                                                 const adl::Measure& measure);

/// One class of the power partition: the tangible states draining at a
/// common rate, with their aggregate steady-state probability.
struct PowerBand {
    double power = 0.0;
    double probability = 0.0;
    std::size_t states = 0;
};

/// Expected-power trajectory of the chain from its initial distribution:
/// power[i] is the exact expected power over [i*step, (i+1)*step) (via the
/// accumulated-reward identity of uniformisation), and tail_power the
/// stationary expected power that extends the profile past the last step.
struct PowerProfile {
    double step = 0.0;
    std::vector<double> power;
    double tail_power = 0.0;
    bool stationary = false;  ///< did the distribution settle before max_steps?
};

struct ProfileOptions {
    /// Step length; 0 picks 0.5 / max_exit_rate automatically.
    double step = 0.0;
    std::size_t max_steps = 20'000;
    /// Stationarity: stop when the distribution moves less than this
    /// (max-norm) over one step.
    double tolerance = 1e-10;
};

[[nodiscard]] PowerProfile transient_power_profile(const ctmc::Ctmc& chain,
                                                   const std::vector<std::pair<ctmc::TangibleId, double>>& initial,
                                                   const std::vector<double>& power,
                                                   const ProfileOptions& options = {});

/// Depletion time of a full battery replaying the profile (the tail power
/// extends it to infinity); kNever when the battery survives a zero-power
/// tail.
[[nodiscard]] double profile_lifetime(const PowerProfile& profile,
                                      const BatteryParams& params);

/// Analytic lifetime bounds from the CTMC.
struct CtmcLifetime {
    double steady_power = 0.0;  ///< E[power] at steady state
    double fluid = 0.0;     ///< lifetime under the constant steady-state power
    double refined = 0.0;   ///< lifetime replaying the transient power profile
    std::vector<PowerBand> bands;  ///< power partition of the tangible states
    bool profile_stationary = false;

    [[nodiscard]] std::string json() const;
};

/// Solves the chain (steady state + transient profile) and evaluates both
/// bounds for \p params.  Emits a "battery.ctmc" span.  \p pi may pass a
/// precomputed steady-state vector to avoid re-solving; empty solves inside.
[[nodiscard]] CtmcLifetime ctmc_lifetime(const ctmc::MarkovModel& markov,
                                         const adl::ComposedModel& model,
                                         const adl::Measure& power_measure,
                                         const BatteryParams& params,
                                         const ProfileOptions& options = {},
                                         const std::vector<double>& pi = {});

}  // namespace dpma::battery
