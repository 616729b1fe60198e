#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "adl/compose.hpp"
#include "adl/measure.hpp"
#include "battery/battery.hpp"
#include "battery/coupling.hpp"
#include "battery/lifetime.hpp"
#include "core/error.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/solve.hpp"
#include "exp/report.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"
#include "sim/gsmp.hpp"

namespace dpma::battery {
namespace {

BatteryParams kibam_params(double capacity, double c, double rate) {
    BatteryParams params;
    params.kind = BatteryParams::Kind::Kibam;
    params.capacity = capacity;
    params.kibam_c = c;
    params.kibam_rate = rate;
    return params;
}

/// Textbook KiBaM available charge (Manwell–McGowan), written the published
/// way — independent of the (y, gap) parameterisation the implementation
/// integrates — so agreement is a real cross-check, not a tautology:
///   y1(t) = y1_0 e^{-k't} + (y_0 k' c - I)(1 - e^{-k't})/k'
///           - I c (k' t - 1 + e^{-k't}) / k'
double textbook_available(const BatteryParams& params, double load, double t) {
    const double kp = params.kibam_rate;
    const double c = params.kibam_c;
    const double y1_0 = c * params.capacity;  // full battery
    const double y0 = params.capacity;
    const double e = std::exp(-kp * t);
    return y1_0 * e + (y0 * kp * c - load) * (1.0 - e) / kp -
           load * c * (kp * t - 1.0 + e) / kp;
}

/// Depletion time of a full battery under constant \p load by bisecting the
/// textbook formula to ~1e-13 relative precision.
double textbook_depletion(const BatteryParams& params, double load) {
    double lo = 0.0;
    double hi = params.capacity / load;  // y1 <= c*y pins the crossing below this
    EXPECT_LE(textbook_available(params, load, hi), 0.0);
    for (int i = 0; i < 200 && (hi - lo) > 1e-14 * hi; ++i) {
        const double mid = 0.5 * (lo + hi);
        (textbook_available(params, load, mid) > 0.0 ? lo : hi) = mid;
    }
    return 0.5 * (lo + hi);
}

// ---------------------------------------------------------------------------
// Battery models
// ---------------------------------------------------------------------------

TEST(Ideal, LifetimeIsCapacityOverPower) {
    BatteryParams params;
    params.capacity = 120.0;
    const auto battery = make_battery(params);
    EXPECT_DOUBLE_EQ(battery->time_to_depletion(4.0), 30.0);
    EXPECT_EQ(battery->time_to_depletion(0.0), kNever);
    EXPECT_TRUE(std::isnan(battery->advance(4.0, 10.0)));
    EXPECT_NEAR(battery->state_of_charge(), 2.0 / 3.0, 1e-12);
    const double offset = battery->advance(4.0, 100.0);
    EXPECT_NEAR(offset, 20.0, 1e-12);
    EXPECT_TRUE(battery->depleted());
    EXPECT_NEAR(battery->delivered_charge(), 120.0, 1e-12);
}

TEST(Peukert, ExponentOneReducesToIdeal) {
    BatteryParams params;
    params.kind = BatteryParams::Kind::Peukert;
    params.capacity = 50.0;
    params.peukert_exponent = 1.0;
    params.peukert_reference_power = 2.0;
    EXPECT_NEAR(constant_power_lifetime(params, 5.0), 10.0, 1e-12);
}

TEST(Peukert, RateCapacityEffectCutsDeliveredCharge) {
    BatteryParams params;
    params.kind = BatteryParams::Kind::Peukert;
    params.capacity = 100.0;
    params.peukert_exponent = 1.3;
    params.peukert_reference_power = 1.0;
    // At the rated load the battery delivers its nominal capacity...
    const auto at_ref = make_battery(params);
    EXPECT_TRUE(std::isfinite(at_ref->advance(1.0, 1e9)));
    EXPECT_NEAR(at_ref->delivered_charge(), 100.0, 1e-9);
    // ...above it, strictly less (drain rate 4^1.3 > 4x at load 4).
    const auto above = make_battery(params);
    EXPECT_TRUE(std::isfinite(above->advance(4.0, 1e9)));
    EXPECT_LT(above->delivered_charge(), 100.0 - 1.0);
    // Below the rated load it delivers *more* than nominal (alpha > 1).
    const auto below = make_battery(params);
    EXPECT_TRUE(std::isfinite(below->advance(0.25, 1e9)));
    EXPECT_GT(below->delivered_charge(), 100.0 + 1.0);
}

TEST(Kibam, MatchesClosedFormConstantLoadDepletion) {
    // Acceptance criterion: <= 1e-9 relative error against the closed-form
    // constant-load depletion time, across well fractions, valve rates and
    // loads spanning the gentle-to-brutal range.
    for (const double c : {0.3, 0.5, 0.8}) {
        for (const double rate : {1e-3, 1e-2, 0.2}) {
            for (const double load : {0.4, 1.0, 3.0}) {
                const BatteryParams params = kibam_params(1000.0, c, rate);
                const double expected = textbook_depletion(params, load);
                const double actual = constant_power_lifetime(params, load);
                EXPECT_NEAR(actual, expected, 1e-9 * expected)
                    << "c=" << c << " k'=" << rate << " I=" << load;
            }
        }
    }
}

TEST(Kibam, AdvanceReachesTheSameDepletionInstantAsOneShot) {
    // The closed-form step means splitting never changes the state: many
    // small advances must deplete at the same instant as a single query.
    const BatteryParams params = kibam_params(500.0, 0.4, 5e-3);
    const double load = 1.5;
    const double expected = constant_power_lifetime(params, load);
    const auto battery = make_battery(params);
    double elapsed = 0.0;
    const double dt = 0.37;  // deliberately incommensurate with the lifetime
    for (int i = 0; i < 100000 && !battery->depleted(); ++i) {
        const double offset = battery->advance(load, dt);
        elapsed += std::isnan(offset) ? dt : offset;
    }
    ASSERT_TRUE(battery->depleted());
    EXPECT_NEAR(elapsed, expected, 1e-9 * expected);
    EXPECT_NEAR(battery->delivered_charge(), load * expected, 1e-9 * load * expected);
}

TEST(Kibam, PulsedLoadDeliversStrictlyMoreThanTheAverageContinuousLoad) {
    // Recovery effect: a pulsed load (P on, rest, repeat) delivers strictly
    // more charge before depletion than a continuous load at the same
    // average power — the rests let bound charge flow back into the small
    // available well.  This is what makes DPM sleep periods worth more than
    // their average-power savings.  (The regime matters: with a small
    // available-well fraction and deep rests the recovery dominates; with
    // shallow rests the pulsed load instead dies mid-pulse with the well
    // gap on its high swing and delivers slightly *less* — which is why
    // this is a modelling subsystem and not a mean-power correction.)
    const BatteryParams params = kibam_params(100.0, 0.2, 0.01);

    const auto continuous = make_battery(params);
    while (!continuous->depleted()) {
        (void)continuous->advance(1.0, 4.0);
    }

    const auto pulsed = make_battery(params);
    while (!pulsed->depleted()) {
        (void)pulsed->advance(5.0, 4.0);  // same 1.0 average: 5x load, 1/5 duty
        if (pulsed->depleted()) break;
        (void)pulsed->advance(0.0, 16.0);  // deep rest: bound -> available
    }

    EXPECT_GT(pulsed->delivered_charge(), continuous->delivered_charge() * 1.01);
    // The valve flows under any positive gap, so even the continuous load
    // recovers *some* bound charge — but the rests recover strictly more.
    EXPECT_GT(pulsed->recovered_charge(), continuous->recovered_charge());
}

TEST(Kibam, RestRecoversAvailableChargeWithoutCreatingAny) {
    const BatteryParams params = kibam_params(100.0, 0.5, 0.02);
    const auto battery = make_battery(params);
    (void)battery->advance(2.0, 10.0);
    ASSERT_FALSE(battery->depleted());
    const double soc_before = battery->state_of_charge();
    const double tau_tired = battery->time_to_depletion(2.0);
    (void)battery->advance(0.0, 100.0);  // long rest
    // Rest moves charge between wells: total state of charge is unchanged,
    // but the battery now survives the same load strictly longer.
    EXPECT_NEAR(battery->state_of_charge(), soc_before, 1e-12);
    EXPECT_GT(battery->time_to_depletion(2.0), tau_tired * 1.0001);
    EXPECT_GT(battery->recovered_charge(), 0.0);
}

TEST(Kibam, DepletionStrandsBoundCharge) {
    const BatteryParams params = kibam_params(100.0, 0.5, 1e-3);
    const auto battery = make_battery(params);
    const double offset = battery->advance(4.0, 50.0);
    ASSERT_TRUE(std::isfinite(offset));
    ASSERT_TRUE(battery->depleted());
    // The available well is empty but the bound well is not: the delivered
    // charge falls short of nominal and the residual SoC reports the rest.
    EXPECT_LT(battery->delivered_charge(), 100.0 * 0.75);
    EXPECT_GT(battery->state_of_charge(), 0.2);
    EXPECT_NEAR(battery->delivered_charge() + battery->state_of_charge() * 100.0,
                100.0, 1e-6);
}

TEST(Battery, CloneIsIndependent) {
    const BatteryParams params = kibam_params(50.0, 0.5, 0.01);
    const auto original = make_battery(params);
    (void)original->advance(1.0, 10.0);
    const auto copy = original->clone();
    EXPECT_DOUBLE_EQ(copy->state_of_charge(), original->state_of_charge());
    EXPECT_DOUBLE_EQ(copy->delivered_charge(), original->delivered_charge());
    (void)copy->advance(1.0, 10.0);
    EXPECT_LT(copy->state_of_charge(), original->state_of_charge());
}

TEST(BatteryParams, ValidationRejectsOutOfRangeValues) {
    BatteryParams params;
    params.capacity = 0.0;
    EXPECT_THROW(params.validate(), Error);
    params.capacity = 10.0;
    params.kind = BatteryParams::Kind::Peukert;
    params.peukert_exponent = 0.5;
    EXPECT_THROW(params.validate(), Error);
    params.peukert_exponent = 1.2;
    params.peukert_reference_power = -1.0;
    EXPECT_THROW(params.validate(), Error);
    params = kibam_params(10.0, 1.0, 0.01);
    EXPECT_THROW(params.validate(), Error);
    params = kibam_params(10.0, 0.5, 0.0);
    EXPECT_THROW(params.validate(), Error);
    EXPECT_THROW((void)BatteryParams::kind_from("fusion"), Error);
    EXPECT_NO_THROW(kibam_params(10.0, 0.5, 0.01).validate());
}

// ---------------------------------------------------------------------------
// Simulation coupling
// ---------------------------------------------------------------------------

/// Two-state exponential on/off cell with a power reward on the busy state:
/// the smallest system whose trajectory exercises the observer.
adl::ArchiType cell_system() {
    adl::ElemType cell;
    cell.name = "Cell_Type";
    cell.behaviors = {
        adl::BehaviorDef{"On", {}, {{nullptr, {{"work", lts::RateExp{1.0}}}, {"Off", {}}}}},
        adl::BehaviorDef{"Off", {}, {{nullptr, {{"rest", lts::RateExp{2.0}}}, {"On", {}}}}},
    };
    adl::ArchiType archi;
    archi.name = "Cell";
    archi.elem_types = {cell};
    archi.instances = {adl::Instance{"M", "Cell_Type", {}}};
    return archi;
}

std::vector<adl::Measure> cell_measures() {
    return {
        adl::Measure{"power", {adl::state_reward_in("M", "On", 1.0)}},
        adl::Measure{"work_done", {adl::trans_reward("M", "work", 1.0)}},
    };
}

TEST(Replay, IdealBatteryReproducesEnergyFirstPassage) {
    // With an ideal battery the depletion instant is exactly the first
    // passage of the accumulated power reward through the capacity, and the
    // replay derives its per-replication seeds the same way as
    // simulate_depletion — so the two estimates must agree.
    const adl::ComposedModel model = adl::compose(cell_system());
    const sim::Simulator simulator(model, cell_measures());

    BatteryParams params;
    params.capacity = 40.0;

    ReplayOptions replay;
    replay.horizon = 500.0;
    replay.seed = 11;
    replay.replications = 6;
    const LifetimeEstimate estimate = simulate_lifetime(simulator, 0, params, replay);
    ASSERT_EQ(estimate.censored, 0);
    ASSERT_EQ(estimate.samples.size(), 6u);

    sim::SimOptions options;
    options.horizon = 500.0;
    options.seed = 11;
    const sim::Estimate reference =
        sim::simulate_depletion(simulator, 0, params.capacity, options, 6, 0.95);
    ASSERT_EQ(reference.samples.size(), 6u);
    for (std::size_t r = 0; r < 6; ++r) {
        EXPECT_NEAR(estimate.samples[r], reference.samples[r],
                    1e-9 * reference.samples[r])
            << "replication " << r;
    }
    EXPECT_NEAR(estimate.mean, reference.mean, 1e-9 * reference.mean);
    // Every depleted replication delivered exactly the capacity.
    EXPECT_NEAR(estimate.mean_delivered, params.capacity, 1e-9 * params.capacity);
}

TEST(Replay, CensoredReplicationsAreReportedNotFolded) {
    const adl::ComposedModel model = adl::compose(cell_system());
    const sim::Simulator simulator(model, cell_measures());

    BatteryParams params;
    params.capacity = 1000.0;  // mean power 2/3 => lifetime ~ 1500, far past horizon

    ReplayOptions replay;
    replay.horizon = 10.0;
    replay.seed = 3;
    replay.replications = 4;
    const LifetimeEstimate estimate = simulate_lifetime(simulator, 0, params, replay);
    EXPECT_EQ(estimate.censored, 4);
    EXPECT_TRUE(estimate.samples.empty());
    EXPECT_EQ(estimate.mean, 0.0);  // no depleted samples — nothing is folded in
    for (const ReplicationOutcome& outcome : estimate.outcomes) {
        EXPECT_FALSE(outcome.depleted);
        EXPECT_DOUBLE_EQ(outcome.time, 10.0);
        EXPECT_GT(outcome.state_of_charge, 0.9);
    }
    const std::string json = estimate.json();
    EXPECT_NE(json.find("\"censored\":4"), std::string::npos);
}

TEST(Replay, MeasureTotalsStopAtTheDepletionInstant) {
    const adl::ComposedModel model = adl::compose(cell_system());
    const sim::Simulator simulator(model, cell_measures());

    BatteryParams params;
    params.capacity = 30.0;

    ReplayOptions replay;
    replay.horizon = 1000.0;
    replay.seed = 5;
    replay.replications = 4;
    const LifetimeEstimate estimate = simulate_lifetime(simulator, 0, params, replay);
    ASSERT_EQ(estimate.censored, 0);
    for (const ReplicationOutcome& outcome : estimate.outcomes) {
        // The power measure total at the stop is exactly the capacity (the
        // run ends at the crossing, not at the next event).
        EXPECT_NEAR(outcome.totals[0], params.capacity, 1e-9 * params.capacity);
        EXPECT_LT(outcome.time, 1000.0);
        EXPECT_GT(outcome.totals[1], 0.0);  // served some work before dying
    }
}

// ---------------------------------------------------------------------------
// Markovian coupling
// ---------------------------------------------------------------------------

/// The Markovian rpc model at a 10 ms shutdown timeout.
adl::ComposedModel rpc_model(bool dpm) {
    return models::compose_point("rpc_revised_markov.aem", "send_shutdown", 10.0, dpm);
}

adl::Measure rpc_energy() {
    const auto measures = models::measures("rpc_measures.msr");
    return measures[models::measure_index(measures, "energy")];
}

TEST(CtmcBounds, IdealFluidIsCapacityOverSteadyPower) {
    const adl::ComposedModel model = rpc_model(true);
    const ctmc::MarkovModel markov = ctmc::build_markov(model);

    BatteryParams params;
    params.capacity = 5000.0;
    const CtmcLifetime bounds = ctmc_lifetime(markov, model, rpc_energy(), params);
    EXPECT_GT(bounds.steady_power, 0.0);
    EXPECT_NEAR(bounds.fluid, params.capacity / bounds.steady_power,
                1e-9 * bounds.fluid);

    // The power partition covers all tangible states with total mass one.
    double mass = 0.0;
    std::size_t states = 0;
    for (const PowerBand& band : bounds.bands) {
        mass += band.probability;
        states += band.states;
    }
    EXPECT_NEAR(mass, 1.0, 1e-9);
    EXPECT_EQ(states, markov.chain.num_states());
    EXPECT_GT(bounds.bands.size(), 1u);  // sleeping vs powered states differ
}

TEST(CtmcBounds, RefinedCapturesTheColdStartForTheDpmServer) {
    // From a cold start the rpc server has never slept, so the transient
    // power exceeds the steady-state power; under an ideal battery the
    // refined lifetime must come out at or below the fluid bound, and both
    // must be finite and positive.
    const adl::ComposedModel model = rpc_model(true);
    const ctmc::MarkovModel markov = ctmc::build_markov(model);

    BatteryParams params;
    params.capacity = 300.0;  // small: the cold-start window matters
    const CtmcLifetime bounds = ctmc_lifetime(markov, model, rpc_energy(), params);
    EXPECT_GT(bounds.refined, 0.0);
    EXPECT_TRUE(std::isfinite(bounds.refined));
    EXPECT_LE(bounds.refined, bounds.fluid * (1.0 + 1e-9));
}

TEST(CtmcBounds, ProfileLifetimeHandlesZeroPowerTail) {
    PowerProfile profile;
    profile.step = 1.0;
    profile.power = {2.0, 2.0};
    profile.tail_power = 0.0;

    BatteryParams params;
    params.capacity = 100.0;
    EXPECT_EQ(profile_lifetime(profile, params), kNever);

    params.capacity = 3.0;  // dies inside the second step
    EXPECT_NEAR(profile_lifetime(profile, params), 1.5, 1e-12);
}

TEST(CtmcBounds, ProfileRejectsAnOutOfRangeInitialState) {
    const ctmc::Ctmc chain(2, {{0, 1, 1.0}, {1, 0, 1.0}});
    const std::vector<double> power = {1.0, 2.0};
    // Half of the mass in range: the profile would otherwise run on.
    EXPECT_THROW((void)transient_power_profile(chain, {{0, 0.5}, {2, 0.5}}, power), Error);
}

// ---------------------------------------------------------------------------
// Lifetime study
// ---------------------------------------------------------------------------

TEST(Study, ValidatesOptions) {
    StudyOptions options;
    options.system = "toaster";
    options.capacities = {100.0};
    EXPECT_THROW(options.validate(), Error);
    options.system = "rpc";
    options.capacities = {};
    EXPECT_THROW(options.validate(), Error);
    options.capacities = {-5.0};
    EXPECT_THROW(options.validate(), Error);
    options.capacities = {100.0};
    options.replications = 0;
    EXPECT_THROW(options.validate(), Error);
    options.replications = 2;
    options.horizon_factor = 0.0;
    EXPECT_THROW(options.validate(), Error);
    options.horizon_factor = 8.0;
    EXPECT_NO_THROW(options.validate());
}

TEST(Study, ParallelSweepIsBitIdenticalToSerial) {
    StudyOptions options;
    options.system = "rpc";
    options.battery = kibam_params(1.0, 0.5, 1e-3);  // capacity comes from the axis
    options.capacities = {300.0, 600.0};
    options.replications = 2;
    options.base_seed = 17;

    options.jobs = 1;
    const exp::ResultSet serial = run_lifetime_study(options);
    options.jobs = 4;
    const exp::ResultSet parallel = run_lifetime_study(options);

    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(serial.size(), 4u);  // 2 capacities x {NO-DPM, DPM}
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial.at(i).result.values, parallel.at(i).result.values)
            << "point " << i;
        EXPECT_EQ(serial.at(i).result.half_widths, parallel.at(i).result.half_widths)
            << "point " << i;
        EXPECT_EQ(serial.at(i).result.diagnostics, parallel.at(i).result.diagnostics)
            << "point " << i;
    }
}

TEST(Study, KibamAmplifiesTheDpmLifetimeGapBeyondTheFluidPrediction) {
    // Acceptance criterion: under KiBaM the simulated DPM-vs-NO-DPM lifetime
    // ratio exceeds the ideal-battery (fluid) prediction, i.e. the
    // steady-power ratio — the DPM's sleep periods recover bound charge the
    // NO-DPM run strands.
    StudyOptions options;
    options.system = "rpc";
    options.battery = kibam_params(1.0, 0.5, 1e-3);
    options.capacities = {5000.0};
    options.replications = 3;
    options.base_seed = 7;
    const exp::ResultSet results = run_lifetime_study(options);
    ASSERT_EQ(results.size(), 2u);

    const double lifetime_nodpm = results.value(0, "lifetime");
    const double lifetime_dpm = results.value(1, "lifetime");
    ASSERT_EQ(results.value(0, "censored"), 0.0);
    ASSERT_EQ(results.value(1, "censored"), 0.0);
    ASSERT_GT(lifetime_nodpm, 0.0);

    // Ideal-battery prediction of the gap: lifetimes ~ capacity / power, so
    // the ratio is the steady-power ratio — recover it from the kibam fluid
    // columns' underlying powers via capacity / fluid of an *ideal* battery.
    const adl::ComposedModel nodpm = rpc_model(false);
    const adl::ComposedModel dpm = rpc_model(true);
    const adl::Measure energy = rpc_energy();
    const auto steady_power = [&](const adl::ComposedModel& model) {
        const ctmc::MarkovModel markov = ctmc::build_markov(model);
        const auto power = tangible_power(markov, model, energy);
        const auto pi = ctmc::steady_state(markov.chain);
        double mean = 0.0;
        for (std::size_t s = 0; s < pi.size(); ++s) mean += pi[s] * power[s];
        return mean;
    };
    const double fluid_ratio = steady_power(nodpm) / steady_power(dpm);
    const double simulated_ratio = lifetime_dpm / lifetime_nodpm;
    EXPECT_GT(fluid_ratio, 1.0);  // DPM saves average power to begin with
    EXPECT_GT(simulated_ratio, fluid_ratio)
        << "kibam did not amplify the DPM gap beyond the fluid prediction";

    // And the DPM run recovered strictly more bound charge than NO-DPM.
    EXPECT_GT(results.value(1, "recovered"), results.value(0, "recovered"));
}

}  // namespace
}  // namespace dpma::battery
