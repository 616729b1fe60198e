#pragma once

/// \file battery.hpp
/// Battery side models for the paper's *battery-powered* appliances: what
/// the accumulated-energy reward of sim/gsmp.hpp abstracts away — that real
/// batteries deliver *less* charge under heavy load (rate-capacity effect)
/// and *recover* charge during the idle periods a DPM creates — modelled
/// behind one interface with three implementations:
///
///  * Ideal    — a linear charge counter; lifetime = capacity / mean power,
///               the fluid approximation the old battery_lifetime example
///               hard-coded.  The baseline the others are judged against.
///  * Peukert  — the empirical rate-capacity law: a constant load P drains
///               effective charge at rate P_ref * (P / P_ref)^alpha, so the
///               battery delivers its nominal capacity only at the rated
///               load P_ref and less above it (alpha >= 1).  Memoryless —
///               no recovery.
///  * KiBaM    — the kinetic battery model (Manwell–McGowan): charge sits in
///               an *available* well y1 (fraction c of capacity) feeding the
///               load directly and a *bound* well y2 (fraction 1-c) that
///               refills y1 through a rate-k' valve.  The battery dies when
///               the available well empties, stranding whatever is still
///               bound — which is how both the rate-capacity effect (heavy
///               load outruns the valve) and the recovery effect (idle
///               periods let y2 drain into y1) emerge from two linear ODEs.
///
/// Every model advances by *closed-form* steps over piecewise-constant
/// loads: for KiBaM the two-well ODE is solved exactly per step (see
/// DESIGN.md §battery for the derivation), so a trajectory replay has no
/// numerical integration error and splitting a step never changes the
/// state.  Depletion instants inside a step are located by bisecting the
/// closed form to machine precision.
///
/// Units follow the models: time in milliseconds, power in reward units per
/// msec (the energy measures of specs/rpc_measures.msr and
/// specs/streaming_measures.msr), charge in
/// reward units.

#include <limits>
#include <memory>
#include <string>

namespace dpma::battery {

/// Which battery model and its parameters; validate() before use.
struct BatteryParams {
    enum class Kind { Ideal, Peukert, Kibam };

    Kind kind = Kind::Ideal;
    /// Nominal charge (reward units): what an ideal battery delivers, what
    /// a Peukert battery delivers at P_ref, what a KiBaM battery holds in
    /// both wells together when full.
    double capacity = 1.0;

    // Peukert only.
    double peukert_exponent = 1.2;         ///< alpha >= 1 (1 == ideal)
    double peukert_reference_power = 1.0;  ///< rated load P_ref > 0

    // KiBaM only.
    double kibam_c = 0.5;       ///< available-well capacity fraction, in (0, 1)
    double kibam_rate = 1e-3;   ///< valve rate k' (1/msec), > 0; the height
                                ///< gap between wells relaxes as exp(-k' t)

    /// Throws Error when any active parameter is non-positive, non-finite
    /// or out of range (kibam_c must lie strictly inside (0, 1)).
    void validate() const;

    /// "ideal", "peukert" or "kibam" — axis/JSON labels.
    [[nodiscard]] const char* kind_name() const noexcept;

    [[nodiscard]] static Kind kind_from(const std::string& name);  ///< throws Error
};

/// A battery being discharged by a piecewise-constant load.  Stateful and
/// cheap to clone (one per simulation replication).
class BatteryModel {
public:
    explicit BatteryModel(const BatteryParams& params) : params_(params) {}
    virtual ~BatteryModel() = default;

    BatteryModel(const BatteryModel&) = delete;
    BatteryModel& operator=(const BatteryModel&) = delete;

    [[nodiscard]] virtual std::unique_ptr<BatteryModel> clone() const = 0;

    /// Back to a full battery.
    virtual void reset() = 0;

    /// Advances by \p dt time units under constant discharge power
    /// \p power >= 0 (power 0 is a rest period — KiBaM recovers charge).
    /// If the battery depletes strictly inside the step, the state advances
    /// exactly to the depletion instant and the offset into the step (in
    /// (0, dt]) is returned; otherwise the full dt elapses and NaN is
    /// returned.  No-op (returning NaN) once depleted.
    virtual double advance(double power, double dt) = 0;

    /// Depletion time from the *current* state under constant \p power,
    /// without advancing; +infinity when the battery would never die
    /// (power 0), 0 when already depleted.
    [[nodiscard]] virtual double time_to_depletion(double power) const = 0;

    [[nodiscard]] virtual bool depleted() const = 0;
    /// Remaining stored charge / capacity, in [0, 1].  For KiBaM this counts
    /// both wells, so a depleted battery can show a positive state of
    /// charge: the stranded bound charge the load can no longer reach.
    [[nodiscard]] virtual double state_of_charge() const = 0;
    /// Energy actually delivered to the load so far (integral of power dt).
    [[nodiscard]] virtual double delivered_charge() const = 0;
    /// KiBaM: total charge that flowed bound -> available so far (the
    /// recovery the DPM's sleep periods buy); 0 for memoryless models.
    [[nodiscard]] virtual double recovered_charge() const { return 0.0; }

    [[nodiscard]] const BatteryParams& params() const noexcept { return params_; }

protected:
    BatteryParams params_;
};

/// Factory; validates \p params (throws Error).
[[nodiscard]] std::unique_ptr<BatteryModel> make_battery(const BatteryParams& params);

/// Depletion time of a *full* battery under constant \p power — the fluid
/// lifetime bound when \p power is a steady-state expected power.
/// +infinity when power == 0.
[[nodiscard]] double constant_power_lifetime(const BatteryParams& params, double power);

inline constexpr double kNever = std::numeric_limits<double>::infinity();

}  // namespace dpma::battery
