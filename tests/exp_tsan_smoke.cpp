/// \file exp_tsan_smoke.cpp
/// Plain-main determinism smoke for the experiment engine, designed to run
/// under ThreadSanitizer (see DPMA_SANITIZE / DPMA_EXP_CORE_ONLY in the top
/// CMakeLists and the exp_tsan_nested ctest entry).  It exercises the racy
/// surface on purpose: a sweep fans points out over a pool and every point
/// fans simulation replications out over the *same* pool (nested run()),
/// all of them patching and reading shared cached models.  The program
/// fails (exit 1) when a parallel sweep is not bit-identical to the serial
/// one, so it doubles as a scheduler-independence check in plain builds.
///
/// Intentionally GTest-free: the sanitized nested build only compiles the
/// engine's own libraries.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"

#include "adl/compose.hpp"
#include "adl/measure.hpp"
#include "battery/coupling.hpp"
#include "bisim/partition.hpp"
#include "core/stats_math.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "exp/cache.hpp"
#include "exp/experiment.hpp"
#include "exp/pool.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "lts/ops.hpp"
#include "models/specs.hpp"
#include "sim/gsmp.hpp"

namespace {

using namespace dpma;

/// A two-state exponential on/off cell: the smallest model with a
/// patchable rate and a non-trivial steady state.
adl::ArchiType cell_system() {
    adl::ElemType cell;
    cell.name = "Cell_Type";
    cell.behaviors = {
        adl::BehaviorDef{"On", {}, {{nullptr, {{"work", lts::RateExp{1.0}}}, {"Off", {}}}}},
        adl::BehaviorDef{"Off", {}, {{nullptr, {{"rest", lts::RateExp{2.0}}}, {"On", {}}}}},
    };
    adl::ArchiType archi;
    archi.name = "Smoke";
    archi.elem_types = {cell};
    archi.instances = {adl::Instance{"M", "Cell_Type", {}}};
    return archi;
}

std::vector<adl::Measure> cell_measures() {
    return {
        adl::Measure{"busy", {adl::state_reward_in("M", "On", 1.0)}},
        adl::Measure{"work_freq", {adl::trans_reward("M", "work", 1.0)}},
    };
}

exp::Experiment sweep(exp::ModelCache& cache) {
    exp::Experiment experiment;
    experiment.name = "tsan_smoke";
    experiment.grid.axis(exp::Axis::linspace("work_rate", 0.5, 4.0, 6));
    experiment.measures = {"busy", "work_freq"};
    experiment.eval = [&cache](const exp::Point& point,
                               const exp::PointContext& context) {
        const auto skeleton = cache.composed(
            "cell", [] { return adl::compose(cell_system()); });
        const adl::ComposedModel patched =
            exp::with_exp_rate(*skeleton, "M", "work", point.at("work_rate"));
        const sim::Simulator simulator(patched, cell_measures());
        sim::SimOptions options;
        options.warmup = 5.0;
        options.horizon = 200.0;
        options.seed = context.seed();
        const std::vector<sim::Estimate> estimates = exp::simulate_replications(
            simulator, options, 5, 0.90, *context.pool);
        exp::PointResult result;
        for (const sim::Estimate& e : estimates) {
            result.values.push_back(e.mean);
            result.half_widths.push_back(e.half_width);
        }
        return result;
    };
    return experiment;
}

/// Battery replay determinism: a capacity sweep whose points all replay
/// trajectories from the *same* shared Simulator into KiBaM batteries
/// (battery::simulate_lifetime reads the simulator and bumps shared obs
/// instruments from every pool worker — exactly the surface TSan should
/// watch).  Point seeds come from the engine, so a parallel sweep must be
/// bit-identical to the serial one.
exp::Experiment battery_sweep(const sim::Simulator& simulator) {
    exp::Experiment experiment;
    experiment.name = "battery_smoke";
    experiment.grid.axis(exp::Axis::linspace("capacity", 8.0, 48.0, 6));
    experiment.measures = {"lifetime", "censored", "delivered", "recovered"};
    experiment.eval = [&simulator](const exp::Point& point,
                                   const exp::PointContext& context) {
        battery::BatteryParams params;
        params.kind = battery::BatteryParams::Kind::Kibam;
        params.capacity = point.at("capacity");
        params.kibam_c = 0.5;
        params.kibam_rate = 0.05;
        battery::ReplayOptions replay;
        replay.horizon = 24.0 * params.capacity;  // generous vs E[power] = 2/3
        replay.seed = context.seed();
        replay.replications = 4;
        // Pooled overload on the sweep's own (nested) pool — the parallel
        // sweep must still be bit-identical to the serial one.
        const battery::LifetimeEstimate estimate = battery::simulate_lifetime(
            simulator, 0, params, replay, *context.pool);
        exp::PointResult result;
        result.values = {estimate.mean, static_cast<double>(estimate.censored),
                         estimate.mean_delivered, estimate.mean_recovered};
        result.half_widths = {estimate.half_width, 0.0, 0.0, 0.0};
        return result;
    };
    return experiment;
}

/// Parallel-refinement determinism: the signature rounds of the dirty-block
/// refiner must be bit-identical whatever the job count, and the parallel
/// path (chunked signature computation over the shared pool) is exactly the
/// surface ThreadSanitizer should watch.  Uses a tau-heavy random LTS large
/// enough (saturated) to cross the refiner's parallel threshold.
int check_parallel_refinement() {
    std::mt19937 rng(42);
    lts::LtsBuilder builder;
    const lts::ActionId tau = builder.actions()->tau();
    const std::vector<lts::ActionId> visible{builder.action("a"), builder.action("b")};
    // 3000 states (above the refiner's 2048-state parallel threshold) with
    // forward tau edges confined to 32-state blocks: acyclic tau structure,
    // so SCC collapse keeps the full state count, while closures stay small
    // enough for a smoke test.
    constexpr std::size_t kStates = 3000;
    constexpr std::size_t kBlock = 32;
    for (std::size_t s = 0; s < kStates; ++s) builder.add_state();
    std::uniform_int_distribution<lts::StateId> pick(0, kStates - 1);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (std::size_t s = 0; s + 1 < kStates; ++s) {
        const std::size_t block_end = (s / kBlock + 1) * kBlock - 1;
        if (s < block_end && coin(rng) < 0.8) {
            std::uniform_int_distribution<lts::StateId> fwd(
                static_cast<lts::StateId>(s + 1),
                static_cast<lts::StateId>(std::min(block_end, kStates - 1)));
            builder.add_transition(static_cast<lts::StateId>(s), tau, fwd(rng));
        }
    }
    for (std::size_t k = 0; k < 6000; ++k) {
        builder.add_transition(pick(rng), visible[coin(rng) < 0.5 ? 0 : 1], pick(rng));
    }
    builder.set_initial(0);
    const lts::Lts m = std::move(builder).build();

    const lts::Lts sat = lts::saturate(lts::collapse_tau_sccs(m).collapsed);
    const bisim::RefinementResult serial = bisim::refine_strong(sat, 1);
    const bisim::RefinementResult parallel = bisim::refine_strong(sat, 4);
    if (serial.rounds != parallel.rounds) {
        std::fprintf(stderr, "FAIL: refinement rounds differ between jobs=1 and jobs=4\n");
        return 1;
    }
    std::printf("OK: refinement bit-identical across jobs counts (%zu rounds, %zu states)\n",
                serial.rounds.size(), sat.num_states());
    return 0;
}

/// A seeded random irreducible chain of a few hundred states: a band of
/// width 3 in both directions plus random long edges, so the sparse GTH
/// kernel sees uneven row envelopes and a U window that both grows and slides.
ctmc::Ctmc random_banded_chain(unsigned seed) {
    std::mt19937 rng(seed);
    const std::size_t n = 200 + 40 * (seed % 6);
    std::uniform_real_distribution<double> rate(0.1, 5.0);
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    std::vector<ctmc::Ctmc::Triplet> rates;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t d = 1; d <= 3; ++d) {
            const auto from = static_cast<ctmc::TangibleId>(i);
            if (i + d < n) rates.push_back({from, static_cast<ctmc::TangibleId>(i + d), rate(rng)});
            if (i >= d) rates.push_back({from, static_cast<ctmc::TangibleId>(i - d), rate(rng)});
        }
    }
    for (std::size_t e = 0; e < n / 8; ++e) {
        rates.push_back({static_cast<ctmc::TangibleId>(pick(rng)),
                         static_cast<ctmc::TangibleId>(pick(rng)), rate(rng)});
    }
    return ctmc::Ctmc(n, rates);
}

/// A seeded chain of 360 states: a band of width 1 in both directions plus
/// chords 37 states up from every fifth state and 45 states down from
/// others.  Its U profile rows are about two-thirds stored zeros, and the
/// chords are short enough for the U window to drop its dead prefix a
/// dozen times.
ctmc::Ctmc chorded_chain() {
    std::mt19937 rng(99);
    constexpr std::size_t n = 360;
    std::uniform_real_distribution<double> rate(0.1, 5.0);
    std::vector<ctmc::Ctmc::Triplet> rates;
    for (std::size_t i = 0; i < n; ++i) {
        const auto from = static_cast<ctmc::TangibleId>(i);
        if (i + 1 < n) rates.push_back({from, static_cast<ctmc::TangibleId>(i + 1), rate(rng)});
        if (i >= 1) rates.push_back({from, static_cast<ctmc::TangibleId>(i - 1), rate(rng)});
        if (i % 5 == 0 && i + 37 < n) {
            rates.push_back({from, static_cast<ctmc::TangibleId>(i + 37), rate(rng)});
        }
        if (i % 5 == 2 && i >= 45) {
            rates.push_back({from, static_cast<ctmc::TangibleId>(i - 45), rate(rng)});
        }
    }
    return ctmc::Ctmc(n, rates);
}

/// The sparse steady-state kernel under the sanitizers: steady_state on
/// random banded chains and on the chorded chain, solved on a pool of 1 and
/// of 4 jobs, must be bit-identical across job counts and within 1e-12
/// relative of the dense steady_state_gth.
int check_sparse_steady_state() {
    constexpr unsigned kChains = 6;
    std::vector<ctmc::Ctmc> chains;
    for (unsigned seed = 0; seed < kChains; ++seed) chains.push_back(random_banded_chain(seed));
    chains.push_back(chorded_chain());
    const auto solve_all = [&](std::size_t jobs) {
        exp::ThreadPool pool(jobs);
        std::vector<std::vector<double>> out(chains.size());
        pool.run(chains.size(), [&](std::size_t i) { out[i] = ctmc::steady_state(chains[i]); });
        return out;
    };
    const std::vector<std::vector<double>> serial = solve_all(1);
    if (serial != solve_all(4)) {
        std::fprintf(stderr, "FAIL: sparse steady state differs between jobs=1 and jobs=4\n");
        return 1;
    }
    double worst = 0.0;
    std::size_t states = 0;
    for (std::size_t c = 0; c < chains.size(); ++c) {
        const std::vector<double> dense = ctmc::steady_state_gth(chains[c]);
        for (std::size_t s = 0; s < dense.size(); ++s) {
            worst = std::max(worst, std::abs(serial[c][s] - dense[s]) / dense[s]);
        }
        states += dense.size();
    }
    if (!(worst <= 1e-12)) {
        std::fprintf(stderr, "FAIL: sparse and dense GTH differ by %.2e relative\n", worst);
        return 1;
    }
    std::printf("OK: sparse GTH bit-identical across jobs counts and within %.1e of dense "
                "(%zu chains, %zu states)\n",
                worst, chains.size(), states);
    return 0;
}

/// transient() and accumulated_reward() on rpc_revised_markov at three
/// horizons, each (horizon) on a pool of 1 and of 4 jobs: bit-identical
/// across job counts, and within 1e-13 relative of the push-form series
/// (zero-filled output, v / lambda scattered along the rows) inline here.
int check_transient() {
    const ctmc::MarkovModel markov =
        ctmc::build_markov(adl::compose(models::archi("rpc_revised_markov.aem")));
    const ctmc::Ctmc& chain = markov.chain;
    const std::size_t n = chain.num_states();
    std::vector<double> rewards(n);
    for (std::size_t i = 0; i < n; ++i) rewards[i] = static_cast<double>(i % 5) - 1.0;
    const double horizons[] = {1.0, 50.0, 2000.0};
    struct Result {
        std::vector<double> pi;
        double reward = 0.0;
        bool operator==(const Result&) const = default;
    };
    const auto solve_all = [&](std::size_t jobs) {
        exp::ThreadPool pool(jobs);
        std::vector<Result> out(std::size(horizons));
        pool.run(out.size(), [&](std::size_t i) {
            out[i].pi = ctmc::transient(chain, markov.initial_distribution, horizons[i]);
            out[i].reward = ctmc::accumulated_reward(chain, markov.initial_distribution,
                                                     rewards, horizons[i]);
        });
        return out;
    };
    const std::vector<Result> serial = solve_all(1);
    if (serial != solve_all(4)) {
        std::fprintf(stderr, "FAIL: transient analysis differs between jobs=1 and jobs=4\n");
        return 1;
    }
    const double lambda = std::max(chain.max_exit_rate() * 1.05, 1e-9);
    const auto push_step = [&](const std::vector<double>& v, std::vector<double>& out) {
        std::fill(out.begin(), out.end(), 0.0);
        for (ctmc::TangibleId s = 0; s < n; ++s) {
            out[s] += v[s] * (1.0 - chain.exit_rate(s) / lambda);
            for (const ctmc::RateEntry& e : chain.row(s)) out[e.target] += v[s] / lambda * e.rate;
        }
    };
    double worst = 0.0;
    for (std::size_t h = 0; h < std::size(horizons); ++h) {
        const double lt = lambda * horizons[h];
        const auto stop = [lt](double w, std::size_t k, double target) {
            const double kd = static_cast<double>(k);
            return kd >= lt && w * lt <= target * (kd + 1.0 - lt);
        };
        std::vector<double> start(n, 0.0);
        KahanSum initial_mass;
        for (const auto& [state, p] : markov.initial_distribution) {
            start[state] += p;
            initial_mass.add(p);
        }
        for (double& p : start) p /= initial_mass.value();
        std::vector<double> v = start;
        std::vector<double> next(n);
        std::vector<double> pi(n, 0.0);
        ctmc::PoissonWeights weights(lt);
        for (std::size_t k = 0;; ++k, weights.advance()) {
            for (std::size_t i = 0; i < n; ++i) pi[i] += weights.current() * v[i];
            if (stop(weights.current(), k, 1e-12)) break;
            push_step(v, next);
            v.swap(next);
        }
        KahanSum mass;
        for (const double p : pi) mass.add(p);
        for (std::size_t i = 0; i < n; ++i) {
            const double expected = pi[i] / mass.value();
            if (expected > 1e-300) {
                worst = std::max(worst, std::abs(serial[h].pi[i] - expected) / expected);
            }
        }
        KahanSum reward;
        double cdf = 0.0;
        v = start;
        ctmc::PoissonWeights reward_weights(lt);
        for (std::size_t k = 0;; ++k, reward_weights.advance()) {
            cdf += reward_weights.current();
            KahanSum dot;
            for (std::size_t i = 0; i < n; ++i) dot.add(v[i] * rewards[i]);
            reward.add(std::max(0.0, 1.0 - cdf) / lambda * dot.value());
            if (stop(reward_weights.current(), k, 1e-13)) break;
            push_step(v, next);
            v.swap(next);
        }
        worst = std::max(worst,
                         std::abs(serial[h].reward - reward.value()) / std::abs(reward.value()));
    }
    if (!(worst <= 1e-13)) {
        std::fprintf(stderr, "FAIL: transient analysis and the push series differ by %.2e "
                             "relative\n", worst);
        return 1;
    }
    std::printf("OK: transient and accumulated reward bit-identical across jobs counts and "
                "within %.1e of the push series (%zu states, %zu horizons)\n",
                worst, n, std::size(horizons));
    return 0;
}

/// A Markov sweep over one cached skeleton: every pool worker patches the
/// shared skeleton with with_exp_rate and runs build_markov, steady_state and
/// evaluate_measure on its copy.  A copy shares the skeleton's CSR and owns
/// only its rate slots, so the workers read one structure concurrently, and
/// the vanishing elimination kept with that structure is built once and
/// shared by every point.  The 4-job sweep runs first, so its workers also
/// race to derive the elimination's frequency terms (for the TRANS_REWARD
/// throughput), which must happen once.  The parallel sweep must be
/// bit-identical to the serial one, every copy must share the skeleton's
/// transition array and elimination, and the skeleton's rates must be
/// unchanged afterwards.  A second sweep retimes one point with with_delay
/// 0, which makes the swept slots immediate: points then switch the
/// structure's elimination back and forth concurrently, and must still be
/// bit-identical to the serial run.
int check_markov_sweep() {
    exp::ModelCache cache;
    const auto compose_rpc = [] { return adl::compose(models::archi("rpc_revised_markov.aem")); };
    const std::shared_ptr<const adl::ComposedModel> skeleton = cache.composed("rpc", compose_rpc);
    const std::vector<lts::RateSlot> before(skeleton->graph.slots().begin(),
                                            skeleton->graph.slots().end());
    const std::vector<adl::Measure> measures = models::measures("rpc_measures.msr");
    std::atomic<std::size_t> unshared{0};
    std::mutex seen_mutex;
    std::vector<std::shared_ptr<const ctmc::VanishingElimination>> seen;
    std::atomic<std::size_t> immediate_index{SIZE_MAX};

    exp::Experiment experiment;
    experiment.name = "markov_smoke";
    experiment.grid.axis(exp::Axis::linspace("shutdown_rate", 0.05, 2.0, 16));
    for (const adl::Measure& m : measures) experiment.measures.push_back(m.name);
    experiment.eval = [&](const exp::Point& point, const exp::PointContext&) {
        const std::shared_ptr<const adl::ComposedModel> model =
            cache.composed("rpc", compose_rpc);
        const bool immediate = point.index == immediate_index.load();
        const adl::ComposedModel patched =
            immediate ? exp::with_delay(*model, "DPM", "send_shutdown", 0.0)
                      : exp::with_exp_rate(*model, "DPM", "send_shutdown",
                                           point.at("shutdown_rate"));
        if (patched.graph.transitions().data() != model->graph.transitions().data()) {
            ++unshared;
        }
        const ctmc::MarkovModel markov = ctmc::build_markov(patched);
        if (!immediate) {
            const std::lock_guard<std::mutex> lock(seen_mutex);
            seen.push_back(markov.elimination);
        }
        const std::vector<double> pi = ctmc::steady_state(markov.chain);
        exp::PointResult result;
        for (const adl::Measure& m : measures) {
            result.values.push_back(ctmc::evaluate_measure(markov, patched, pi, m));
        }
        return result;
    };
    exp::RunOptions serial;
    serial.jobs = 1;
    exp::RunOptions parallel;
    parallel.jobs = 4;
    const auto identical = [&](const char* what) {
        const exp::ResultSet b = exp::run(experiment, parallel);
        const exp::ResultSet a = exp::run(experiment, serial);
        if (a.size() != b.size()) {
            std::fprintf(stderr, "FAIL: %zu serial Markov points vs %zu parallel (%s)\n",
                         a.size(), b.size(), what);
            return false;
        }
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (a.at(i).result.values != b.at(i).result.values) {
                std::fprintf(stderr,
                             "FAIL: Markov point %zu differs between jobs=1 and jobs=4 (%s)\n",
                             i, what);
                return false;
            }
        }
        return true;
    };
    obs::Counter& term_builds = obs::counter("ctmc.frequency_terms.builds");
    const std::uint64_t builds_before = term_builds.value();
    if (!identical("one elimination")) return 1;
    if (term_builds.value() - builds_before != 1) {
        std::fprintf(stderr, "FAIL: the frequency terms were derived %llu times, not once\n",
                     static_cast<unsigned long long>(term_builds.value() - builds_before));
        return 1;
    }
    if (unshared != 0) {
        std::fprintf(stderr, "FAIL: %zu patched copies do not share the skeleton's CSR\n",
                     unshared.load());
        return 1;
    }
    const std::size_t points = seen.size();
    if (std::any_of(seen.begin(), seen.end(), [&](const auto& e) {
            return e->orig_of.data() != seen.front()->orig_of.data();
        })) {
        std::fprintf(stderr, "FAIL: the %zu Markov points do not share one elimination\n",
                     points);
        return 1;
    }
    immediate_index = 8;
    if (!identical("with_delay 0 at point 8")) return 1;
    const auto after = skeleton->graph.slots();
    if (after.size() != before.size() ||
        !std::equal(before.begin(), before.end(), after.begin(),
                    [](const lts::RateSlot& x, const lts::RateSlot& y) {
                        return x.action == y.action && x.rate == y.rate;
                    })) {
        std::fprintf(stderr, "FAIL: patching changed the skeleton's rates\n");
        return 1;
    }
    std::printf("OK: %zu Markov points bit-identical across jobs counts, all on the "
                "skeleton's CSR and one elimination with its frequency terms derived once, "
                "also with a with_delay 0 point; skeleton rates unchanged\n",
                points);
    return 0;
}

/// The replication-parallel primitives (exp::simulate_replications,
/// exp::simulate_depletion, the pooled battery::simulate_lifetime) must be
/// bit-identical to their serial counterparts for any pool size — same
/// seeds, same sample vectors, same aggregates.
int check_pooled_primitives() {
    const adl::ComposedModel model = adl::compose(cell_system());
    const sim::Simulator simulator(model, cell_measures());
    sim::SimOptions options;
    options.warmup = 5.0;
    options.horizon = 200.0;
    options.seed = 99;
    exp::ThreadPool pool(4);

    const auto serial_reps = sim::simulate_replications(simulator, options, 8, 0.90);
    const auto pooled_reps =
        exp::simulate_replications(simulator, options, 8, 0.90, pool);
    for (std::size_t m = 0; m < serial_reps.size(); ++m) {
        if (serial_reps[m].samples != pooled_reps[m].samples ||
            serial_reps[m].mean != pooled_reps[m].mean ||
            serial_reps[m].half_width != pooled_reps[m].half_width) {
            std::fprintf(stderr, "FAIL: pooled replications differ from serial\n");
            return 1;
        }
    }

    sim::SimOptions depletion = options;
    depletion.warmup = 0.0;
    const sim::Estimate serial_dep =
        sim::simulate_depletion(simulator, 0, 20.0, depletion, 8, 0.90);
    const sim::Estimate pooled_dep =
        exp::simulate_depletion(simulator, 0, 20.0, depletion, 8, 0.90, pool);
    if (serial_dep.samples != pooled_dep.samples ||
        serial_dep.mean != pooled_dep.mean ||
        serial_dep.half_width != pooled_dep.half_width) {
        std::fprintf(stderr, "FAIL: pooled depletion differs from serial\n");
        return 1;
    }

    battery::BatteryParams params;
    params.kind = battery::BatteryParams::Kind::Kibam;
    params.capacity = 24.0;
    params.kibam_c = 0.5;
    params.kibam_rate = 0.05;
    battery::ReplayOptions replay;
    replay.horizon = 24.0 * params.capacity;
    replay.seed = 99;
    replay.replications = 8;
    const battery::LifetimeEstimate serial_life =
        battery::simulate_lifetime(simulator, 0, params, replay);
    const battery::LifetimeEstimate pooled_life =
        battery::simulate_lifetime(simulator, 0, params, replay, pool);
    if (serial_life.samples != pooled_life.samples ||
        serial_life.mean != pooled_life.mean ||
        serial_life.half_width != pooled_life.half_width ||
        serial_life.censored != pooled_life.censored ||
        serial_life.mean_totals != pooled_life.mean_totals ||
        serial_life.mean_delivered != pooled_life.mean_delivered ||
        serial_life.mean_recovered != pooled_life.mean_recovered ||
        serial_life.outcomes.size() != pooled_life.outcomes.size()) {
        std::fprintf(stderr, "FAIL: pooled battery replay differs from serial\n");
        return 1;
    }
    for (std::size_t r = 0; r < serial_life.outcomes.size(); ++r) {
        const battery::ReplicationOutcome& s = serial_life.outcomes[r];
        const battery::ReplicationOutcome& p = pooled_life.outcomes[r];
        if (s.time != p.time || s.depleted != p.depleted ||
            s.delivered != p.delivered || s.recovered != p.recovered ||
            s.state_of_charge != p.state_of_charge || s.totals != p.totals) {
            std::fprintf(stderr,
                         "FAIL: battery outcome %zu differs pooled vs serial\n", r);
            return 1;
        }
    }
    std::printf("OK: pooled replication/depletion/battery primitives match serial\n");
    return 0;
}

}  // namespace

int main() {
    if (const int rc = check_parallel_refinement(); rc != 0) return rc;
    if (const int rc = check_pooled_primitives(); rc != 0) return rc;
    if (const int rc = check_sparse_steady_state(); rc != 0) return rc;
    if (const int rc = check_transient(); rc != 0) return rc;
    if (const int rc = check_markov_sweep(); rc != 0) return rc;

    exp::ModelCache cache;
    const exp::Experiment experiment = sweep(cache);

    exp::RunOptions serial;
    serial.jobs = 1;
    serial.base_seed = 7;
    exp::RunOptions parallel;
    parallel.jobs = 4;
    parallel.base_seed = 7;

    const exp::ResultSet a = exp::run(experiment, serial);
    const exp::ResultSet b = exp::run(experiment, parallel);

    if (a.size() != b.size()) {
        std::fprintf(stderr, "FAIL: %zu serial points vs %zu parallel\n", a.size(),
                     b.size());
        return 1;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a.at(i).result.values != b.at(i).result.values ||
            a.at(i).result.half_widths != b.at(i).result.half_widths) {
            std::fprintf(stderr, "FAIL: point %zu differs between jobs=1 and jobs=4\n",
                         i);
            return 1;
        }
    }
    const exp::ModelCache::Stats stats = cache.stats();
    std::printf("OK: %zu points bit-identical across jobs counts (cache %llu/%llu)\n",
                a.size(), static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses));

    // Battery replay sweep over the same shared simulator.
    const adl::ComposedModel model = adl::compose(cell_system());
    const sim::Simulator simulator(model, cell_measures());
    const exp::Experiment lifetime = battery_sweep(simulator);
    const exp::ResultSet c = exp::run(lifetime, serial);
    const exp::ResultSet d = exp::run(lifetime, parallel);
    if (c.size() != d.size()) {
        std::fprintf(stderr, "FAIL: %zu serial battery points vs %zu parallel\n",
                     c.size(), d.size());
        return 1;
    }
    for (std::size_t i = 0; i < c.size(); ++i) {
        if (c.at(i).result.values != d.at(i).result.values ||
            c.at(i).result.half_widths != d.at(i).result.half_widths) {
            std::fprintf(stderr,
                         "FAIL: battery point %zu differs between jobs=1 and jobs=4\n",
                         i);
            return 1;
        }
    }
    std::printf("OK: %zu battery replay points bit-identical across jobs counts\n",
                c.size());

    // Event telemetry: workers finish out of order, the runner drains the
    // contiguous completed prefix under one mutex — so the stream (timing
    // fields off) must be byte-identical for every jobs count, and the sink
    // callback itself is a shared structure TSan should watch.
    const auto capture_events = [&](std::size_t jobs) {
        std::string stream;
        exp::RunOptions options;
        options.jobs = jobs;
        options.base_seed = 7;
        options.events.timing = false;
        options.events.sink = [&stream](const std::string& line) {
            stream += line;
            stream += '\n';
        };
        (void)exp::run(experiment, options);
        return stream;
    };
    const std::string events1 = capture_events(1);
    const std::string events8 = capture_events(8);
    if (events1.empty() || events1 != events8) {
        std::fprintf(stderr, "FAIL: event stream differs between jobs=1 and jobs=8\n");
        return 1;
    }
    std::printf("OK: event stream byte-identical across jobs counts (%zu bytes)\n",
                events1.size());

    // Run record of everything above: must be strict JSON with the
    // ResultSet series embedded intact.
    obs::RunReport record("tsan_smoke");
    record.add_series(a.json());
    record.add_series(c.json());
    std::string error;
    if (!obs::json_valid(record.json(), &error)) {
        std::fprintf(stderr, "FAIL: run record is not valid JSON: %s\n",
                     error.c_str());
        return 1;
    }
    std::printf("OK: run record round-trips the validator\n");
    return 0;
}
