#include "battery/lifetime.hpp"

#include <cmath>
#include <memory>
#include <sstream>
#include <utility>

#include "core/error.hpp"
#include "core/stats_math.hpp"
#include "ctmc/solve.hpp"
#include "exp/runner.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"
#include "sim/gsmp.hpp"

namespace dpma::battery {

namespace {

/// Capacity-independent invariants of one (system, dpm) configuration,
/// shared by every capacity point of the sweep.
struct SystemContext {
    adl::ComposedModel model;
    std::unique_ptr<sim::Simulator> simulator;
    std::size_t power_measure = 0;
    std::size_t served_measure = 0;
    double steady_power = 0.0;
    PowerProfile profile;
};

struct StudyContext {
    SystemContext without_dpm;
    SystemContext with_dpm;

    [[nodiscard]] const SystemContext& of(bool dpm) const {
        return dpm ? with_dpm : without_dpm;
    }
};

/// A study system: its shipped spec and measure set, the DPM action the
/// control parameter retimes with its default value, and the measures read
/// as power and as "served".
struct System {
    const char* spec;
    const char* measures;
    const char* control_action;
    double default_control;
    const char* power;
    const char* served;
};
constexpr System kRpc{"rpc_revised_markov.aem", "rpc_measures.msr", "send_shutdown",
                      10.0, "energy", "throughput"};
constexpr System kStreaming{"streaming_markov.aem", "streaming_measures.msr",
                            "send_wakeup", 100.0, "nic_energy", "hits"};

void build_system(SystemContext& out, const StudyOptions& options, bool dpm) {
    const System& system = options.system == "rpc" ? kRpc : kStreaming;
    const double control =
        options.control < 0.0 ? system.default_control : options.control;
    out.model = models::compose_point(system.spec, system.control_action, control, dpm);
    std::vector<adl::Measure> measures = models::measures(system.measures);
    out.power_measure = models::measure_index(measures, system.power);
    out.served_measure = models::measure_index(measures, system.served);
    out.simulator = std::make_unique<sim::Simulator>(out.model, std::move(measures));

    const ctmc::MarkovModel markov = ctmc::build_markov(out.model);
    const std::vector<double> power = tangible_power(
        markov, out.model, out.simulator->measures()[out.power_measure]);
    const std::vector<double> pi = ctmc::steady_state(markov.chain);
    KahanSum mean_power;
    for (std::size_t s = 0; s < pi.size(); ++s) {
        mean_power.add(pi[s] * power[s]);
    }
    out.steady_power = mean_power.value();
    out.profile = transient_power_profile(markov.chain, markov.initial_distribution,
                                          power, options.profile);
}

}  // namespace

void StudyOptions::validate() const {
    if (system != "rpc" && system != "streaming") {
        throw Error("unknown system '" + system + "' (expected rpc or streaming)");
    }
    // The swept capacities stand in for battery.capacity, so check them with
    // the same rule; the rest of the battery params validate as usual.
    if (capacities.empty()) {
        throw Error("need at least one battery capacity");
    }
    for (const double capacity : capacities) {
        BatteryParams probe = battery;
        probe.capacity = capacity;
        probe.validate();
    }
    if (replications < 1) {
        throw Error("need at least one replication");
    }
    if (!(confidence > 0.0) || !(confidence < 1.0)) {
        throw Error("confidence must lie in (0, 1)");
    }
    if (!std::isfinite(horizon_factor) || horizon_factor <= 0.0) {
        throw Error("horizon factor must be positive and finite");
    }
    if (!std::isfinite(control)) {
        throw Error("control parameter must be finite (negative = model default)");
    }
}

exp::Experiment lifetime_experiment(const StudyOptions& options) {
    options.validate();

    auto context = std::make_shared<StudyContext>();
    build_system(context->without_dpm, options, false);
    build_system(context->with_dpm, options, true);

    exp::Experiment experiment;
    experiment.name = "lifetime " + options.system + " " +
                      std::string(options.battery.kind_name());
    experiment.grid.axis(exp::Axis::list("capacity", options.capacities))
        .axis(exp::Axis::toggle("dpm"));
    for (const char* name : kLifetimeMeasures) {
        experiment.measures.emplace_back(name);
    }

    const BatteryParams family = options.battery;
    const int replications = options.replications;
    const double confidence = options.confidence;
    const double horizon_factor = options.horizon_factor;
    experiment.eval = [context, family, replications, confidence, horizon_factor](
                          const exp::Point& point, const exp::PointContext& pc) {
        const SystemContext& system = context->of(point.flag("dpm"));
        BatteryParams params = family;
        params.capacity = point.at("capacity");

        const double fluid = constant_power_lifetime(params, system.steady_power);
        const double refined = profile_lifetime(system.profile, params);
        DPMA_ASSERT(std::isfinite(fluid), "steady-state power must be positive");

        ReplayOptions replay;
        replay.horizon = horizon_factor * fluid;
        replay.seed = pc.seed();
        replay.replications = replications;
        replay.confidence = confidence;
        // The runner's pool is reentrant, so the replications of this point
        // fan out over the same workers that evaluate the other points.
        const LifetimeEstimate estimate =
            pc.pool != nullptr
                ? simulate_lifetime(*system.simulator, system.power_measure, params,
                                    replay, *pc.pool)
                : simulate_lifetime(*system.simulator, system.power_measure, params,
                                    replay);

        exp::PointResult result;
        result.values = {estimate.mean,
                         estimate.mean_totals[system.served_measure],
                         static_cast<double>(estimate.censored),
                         fluid,
                         refined,
                         estimate.mean_recovered};
        result.half_widths = {estimate.half_width, 0.0, 0.0, 0.0, 0.0, 0.0};
        std::ostringstream diagnostics;
        diagnostics << "{\"battery\":" << estimate.json() << "}";
        result.diagnostics = diagnostics.str();
        return result;
    };
    return experiment;
}

exp::RunOutcome run_lifetime_sweep(const StudyOptions& options) {
    const exp::Experiment experiment = lifetime_experiment(options);
    exp::RunOptions run;
    run.jobs = options.jobs;
    run.base_seed = options.base_seed;
    return exp::run_sweep(experiment, run);
}

exp::ResultSet run_lifetime_study(const StudyOptions& options) {
    exp::RunOutcome outcome = run_lifetime_sweep(options);
    if (outcome.first_error) std::rethrow_exception(outcome.first_error);
    return std::move(outcome.results);
}

}  // namespace dpma::battery
