#pragma once

/// \file lifetime.hpp
/// Lifetime studies: battery parameters as sweep dimensions.
///
/// A study fixes a case-study system (rpc or streaming, Markovian phase) and
/// sweeps battery capacity × {NO-DPM, DPM} through the experiment engine:
/// every grid point replays simulated trajectories into a fresh battery
/// (coupling.hpp) and reports lifetime, requests served before depletion and
/// the analytic fluid/refined bounds from the CTMC.  This is the "does DPM
/// buy more than its average-power savings?" question of the paper asked the
/// way a battery answers it: in delivered charge, not mean power.
///
/// The per-system invariants (composed model, simulator, CTMC solution,
/// transient power profile — all capacity-independent) are built once per
/// DPM setting and shared by every point, so a sweep over many capacities
/// costs one model build.  Point seeds follow the experiment engine's
/// (base_seed, point_index) derivation: results are bit-identical for any
/// jobs count.

#include <cstdint>
#include <string>
#include <vector>

#include "battery/battery.hpp"
#include "battery/coupling.hpp"
#include "exp/experiment.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"

namespace dpma::battery {

struct StudyOptions {
    std::string system = "rpc";  ///< "rpc" or "streaming"
    /// Battery family; `capacity` is ignored (it is the swept axis).
    BatteryParams battery;
    std::vector<double> capacities;  ///< axis values, each > 0
    /// DPM control parameter: shutdown timeout (rpc) / awake period
    /// (streaming) in msec; negative picks the model default.
    double control = -1.0;
    int replications = 5;
    double confidence = 0.95;
    /// Censoring bound per point: horizon = horizon_factor * fluid lifetime
    /// of that point's own configuration — unlike a bound computed from the
    /// NO-DPM power, this scales with the point being simulated.
    double horizon_factor = 8.0;
    std::uint64_t base_seed = 1;
    std::size_t jobs = 0;  ///< 0 = DPMA_JOBS / hardware_concurrency
    ProfileOptions profile{.step = 0.0, .max_steps = 5'000, .tolerance = 1e-9};

    void validate() const;  ///< throws Error on out-of-range values
};

/// Measure names of the study's ResultSet, in order.
inline constexpr const char* kLifetimeMeasures[] = {
    "lifetime",   ///< mean simulated depletion time (depleted replications)
    "served",     ///< mean requests/frames served before depletion
    "censored",   ///< replications alive at the horizon (should be 0)
    "fluid",      ///< analytic bound at constant steady-state power
    "refined",    ///< analytic bound replaying the transient power profile
    "recovered",  ///< mean KiBaM bound->available charge flow
};

/// Builds the declarative sweep (axes: capacity, dpm).  The returned
/// Experiment owns the per-system context through its eval closure; build it
/// once and hand it to exp::run.  Validates \p options.
[[nodiscard]] exp::Experiment lifetime_experiment(const StudyOptions& options);

/// lifetime_experiment + exp::run_sweep with the study's jobs/base_seed, as
/// `dpma_cli lifetime` runs it.  The outcome reports failed points instead
/// of throwing; see exp::RunOutcome.
[[nodiscard]] exp::RunOutcome run_lifetime_sweep(const StudyOptions& options);

/// lifetime_experiment + exp::run with the study's jobs/base_seed.  Throws
/// the lowest-index point failure (after the sweep drains), like exp::run.
[[nodiscard]] exp::ResultSet run_lifetime_study(const StudyOptions& options);

}  // namespace dpma::battery
