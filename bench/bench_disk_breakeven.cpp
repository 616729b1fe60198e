/// \file bench_disk_breakeven.cpp
/// Break-even analysis of the disk case study (ours; the canonical example
/// of the DPM survey the paper cites as [1]).
///
/// Two sweeps on the Markovian model:
///
///  1. workload sweep — the mean quiet period crosses the break-even time
///     T_be = E_wake / (P_idle - P_sleep): below it the DPM *wastes* energy
///     (every sleep pays the spin-up without amortising it), above it the
///     DPM wins.  This is the disk-domain analogue of the rpc general
///     model's counterproductive region (Fig. 3 right / Fig. 7);
///
///  2. timeout sweep at a long quiet period — energy falls and response
///     time rises as the timeout shrinks, the familiar tradeoff.

#include <cstdio>
#include <vector>

#include "bench/harness.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"

namespace {

using namespace dpma;
using namespace dpma::bench;

struct DiskPoint {
    double power;
    double response_time;
    double completed;
};

const std::vector<adl::Measure>& disk_measures() {
    static const std::vector<adl::Measure> measures = models::measures("disk_measures.msr");
    return measures;
}

/// Mean delay of the exponential action \p action in \p archi.
double mean_delay(const adl::ArchiType& archi, const std::string& action) {
    for (const adl::ElemType& type : archi.elem_types) {
        for (const adl::BehaviorDef& behavior : type.behaviors) {
            for (const adl::Alternative& alt : behavior.alternatives) {
                for (const adl::Action& a : alt.actions) {
                    if (a.name == action) return 1.0 / std::get<lts::RateExp>(a.rate).rate;
                }
            }
        }
    }
    throw ModelError("no action " + action);
}

DiskPoint solve(const adl::ComposedModel& model, const adl::Measure& queue) {
    const auto& ms = disk_measures();
    const std::vector<double> values =
        exp::solve_point(model, {ms[models::measure_index(ms, "disk_power")],
                                 ms[models::measure_index(ms, "completed")], queue})
            .values;
    const double completed = values[1];
    return DiskPoint{values[0], values[2] / completed, completed};
}

}  // namespace

int main(int argc, char** argv) {
    const dpma::bench::ScopedObservation observation("disk_breakeven", argc, argv);
    const adl::ArchiType disk = models::archi("disk_markov.aem");
    const adl::Measure queue =
        models::mean_occupancy("Q", "Queue", disk.find_instance("Q")->args.back());
    // disk_power rewards, in clause order: active, idle, sleeping, waking.
    const auto& levels =
        disk_measures()[models::measure_index(disk_measures(), "disk_power")].clauses;
    const double spin_up = mean_delay(disk, "spin_up");
    // Classical break-even time: the sleep period must at least amortise the
    // wake-up transient's extra energy over staying idle.
    const double break_even =
        spin_up * (levels[3].reward - levels[1].reward) /
        (levels[1].reward - levels[2].reward);
    std::printf("== disk drive: break-even analysis (DPM survey example) ==\n");
    std::printf("power levels: active %.2f / idle %.2f / sleep %.2f / wake %.2f W; "
                "spin-up %.0f ms; analytic break-even time %.0f ms\n",
                levels[0].reward, levels[1].reward, levels[2].reward, levels[3].reward,
                spin_up, break_even);

    const adl::ComposedModel with = adl::compose(disk);
    const adl::ComposedModel without = adl::compose(models::without_dpm(disk));
    Table crossover("sweep 1: mean quiet period vs the break-even time "
                    "(timeout 500 ms)",
                    {"quiet_ms", "power_dpm", "power_nodpm", "saving_pct"});
    for (const double quiet : {1000.0, 2000.0, 4000.0, 6000.0, 10000.0, 20000.0,
                               50000.0}) {
        const DiskPoint a = solve(exp::with_delay(with, "SRC", "begin_burst", quiet), queue);
        const DiskPoint b =
            solve(exp::with_delay(without, "SRC", "begin_burst", quiet), queue);
        crossover.add_row({quiet, a.power, b.power,
                           100.0 * (1.0 - a.power / b.power)});
    }
    crossover.print();
    std::printf(
        "\n(the saving changes sign near the %.0f ms break-even: sleeping into\n"
        " short quiet periods pays the 3 W spin-up without amortising it —\n"
        " the disk-domain analogue of rpc's counterproductive timeouts)\n",
        break_even);

    Table timeout_sweep("sweep 2: DPM timeout at quiet = 20 s",
                        {"timeout_ms", "power_W", "resp_ms", "tput_per_ms"});
    for (const double timeout : {0.0, 100.0, 500.0, 1000.0, 2000.0, 5000.0,
                                 10000.0}) {
        const DiskPoint p =
            solve(exp::with_delay(with, models::kDpm, "send_shutdown", timeout), queue);
        timeout_sweep.add_row({timeout, p.power, p.response_time, p.completed});
    }
    timeout_sweep.print();
    const DiskPoint base = solve(without, queue);
    std::printf(
        "\nNO-DPM baseline: power %.3f W, response %.1f ms — the timeout dials\n"
        "between the two extremes; timeouts beyond the quiet period disable\n"
        "the DPM in practice\n",
        base.power, base.response_time);
    return 0;
}
