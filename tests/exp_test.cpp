#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "core/error.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "exp/cache.hpp"
#include "exp/experiment.hpp"
#include "exp/pool.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/gsmp.hpp"
#include "sim/rng.hpp"

namespace dpma::exp {
namespace {

TEST(Axis, LinspaceCoversBothEndpoints) {
    const Axis axis = Axis::linspace("x", 2.0, 10.0, 5);
    ASSERT_EQ(axis.values.size(), 5u);
    EXPECT_DOUBLE_EQ(axis.values.front(), 2.0);
    EXPECT_DOUBLE_EQ(axis.values[2], 6.0);
    EXPECT_DOUBLE_EQ(axis.values.back(), 10.0);
    EXPECT_EQ(Axis::linspace("x", 3.0, 9.0, 1).values,
              std::vector<double>{3.0});
}

TEST(Axis, LogspaceIsGeometric) {
    const Axis axis = Axis::logspace("x", 1.0, 100.0, 3);
    ASSERT_EQ(axis.values.size(), 3u);
    EXPECT_DOUBLE_EQ(axis.values.front(), 1.0);
    EXPECT_NEAR(axis.values[1], 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(axis.values.back(), 100.0);
}

TEST(Grid, CartesianProductLastAxisFastest) {
    Grid grid;
    grid.axis(Axis::list("a", {1.0, 2.0, 3.0})).axis(Axis::toggle("dpm"));
    EXPECT_EQ(grid.size(), 6u);
    const Point p = grid.point(3);  // a=2, dpm=1
    EXPECT_DOUBLE_EQ(p.at("a"), 2.0);
    EXPECT_TRUE(p.flag("dpm"));
    EXPECT_FALSE(grid.point(2).flag("dpm"));
    EXPECT_THROW((void)p.at("nope"), Error);
    EXPECT_THROW((void)grid.point(6), Error);
}

TEST(Grid, RejectsDuplicateAxisNames) {
    Grid grid;
    grid.axis(Axis::toggle("dpm"));
    EXPECT_THROW(grid.axis(Axis::toggle("dpm")), Error);
}

TEST(ThreadPool, ExecutesEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.jobs(), 4u);
    std::vector<std::atomic<int>> hits(997);
    pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedRunDoesNotDeadlock) {
    ThreadPool pool(3);
    std::atomic<int> total{0};
    pool.run(4, [&](std::size_t) {
        pool.run(8, [&](std::size_t) { ++total; });
    });
    EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, SingleJobRunsInCaller) {
    ThreadPool pool(1);
    const auto caller = std::this_thread::get_id();
    pool.run(5, [&](std::size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); });
}

TEST(ThreadPool, RethrowsTheFirstJobException) {
    ThreadPool pool(4);
    EXPECT_THROW(pool.run(64,
                          [&](std::size_t i) {
                              if (i == 7) throw Error("boom");
                          }),
                 Error);
}

TEST(Env, DefaultJobsRejectsGarbage) {
    unsetenv("DPMA_JOBS");
    const std::size_t fallback = default_jobs();
    EXPECT_GE(fallback, 1u);
    setenv("DPMA_JOBS", "3", 1);
    EXPECT_EQ(default_jobs(), 3u);
    setenv("DPMA_JOBS", "garbage", 1);
    EXPECT_EQ(default_jobs(), fallback);
    setenv("DPMA_JOBS", "-2", 1);
    EXPECT_EQ(default_jobs(), fallback);
    setenv("DPMA_JOBS", "0", 1);
    EXPECT_EQ(default_jobs(), fallback);
    setenv("DPMA_JOBS", "2junk", 1);
    EXPECT_EQ(default_jobs(), fallback);
    unsetenv("DPMA_JOBS");
}

TEST(Env, PositiveDoubleRejectsPartialParses) {
    unsetenv("DPMA_TEST_SCALE");
    EXPECT_DOUBLE_EQ(env_positive_double("DPMA_TEST_SCALE", 1.5), 1.5);
    setenv("DPMA_TEST_SCALE", "0.25", 1);
    EXPECT_DOUBLE_EQ(env_positive_double("DPMA_TEST_SCALE", 1.5), 0.25);
    setenv("DPMA_TEST_SCALE", "12abc", 1);
    EXPECT_DOUBLE_EQ(env_positive_double("DPMA_TEST_SCALE", 1.5), 1.5);
    setenv("DPMA_TEST_SCALE", "-3", 1);
    EXPECT_DOUBLE_EQ(env_positive_double("DPMA_TEST_SCALE", 1.5), 1.5);
    setenv("DPMA_TEST_SCALE", "0", 1);
    EXPECT_DOUBLE_EQ(env_positive_double("DPMA_TEST_SCALE", 1.5), 1.5);
    unsetenv("DPMA_TEST_SCALE");
}

TEST(Rng, ThreeLevelSeedSplitComposesTwoLevel) {
    EXPECT_EQ(sim::Rng::derive_seed(9, 4, 7),
              sim::Rng::derive_seed(sim::Rng::derive_seed(9, 4), 7));
    EXPECT_NE(sim::Rng::derive_seed(9, 4, 7), sim::Rng::derive_seed(9, 7, 4));
}

TEST(Runner, AnalyticSweepBitIdenticalAcrossJobCounts) {
    const std::vector<double> timeouts = {0.0, 2.0, 5.0, 10.0, 25.0};
    RunOptions serial;
    serial.jobs = 1;
    RunOptions parallel;
    parallel.jobs = 8;
    const ResultSet a = run(bench::rpc_markov_experiment(timeouts, true), serial);
    const ResultSet b = run(bench::rpc_markov_experiment(timeouts, true), parallel);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.at(i).result.values, b.at(i).result.values) << "point " << i;
    }
}

TEST(Runner, SimulationSweepBitIdenticalAcrossJobCounts) {
    unsetenv("DPMA_BENCH_SCALE");
    const std::vector<double> timeouts = {5.0, 11.3};
    RunOptions serial;
    serial.jobs = 1;
    serial.base_seed = 42;
    RunOptions parallel;
    parallel.jobs = 8;
    parallel.base_seed = 42;
    const auto experiment = [&] {
        return bench::rpc_general_experiment(timeouts, true, 4, 1500.0);
    };
    const ResultSet a = run(experiment(), serial);
    const ResultSet b = run(experiment(), parallel);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.at(i).result.values, b.at(i).result.values) << "point " << i;
        EXPECT_EQ(a.at(i).result.half_widths, b.at(i).result.half_widths)
            << "point " << i;
    }
}

TEST(Runner, ParallelReplicationsMatchSerialBitForBit) {
    unsetenv("DPMA_BENCH_SCALE");
    const adl::ComposedModel model = adl::compose(models::archi("rpc_general.aem"));
    const sim::Simulator simulator(model, models::measures("rpc_measures.msr"));
    sim::SimOptions options;
    options.warmup = 100.0;
    options.horizon = 1000.0;
    options.seed = 7;
    const auto serial = sim::simulate_replications(simulator, options, 6, 0.90);
    ThreadPool pool(4);
    const auto parallel = simulate_replications(simulator, options, 6, 0.90, pool);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t m = 0; m < serial.size(); ++m) {
        EXPECT_EQ(serial[m].samples, parallel[m].samples);
        EXPECT_EQ(serial[m].mean, parallel[m].mean);
        EXPECT_EQ(serial[m].half_width, parallel[m].half_width);
    }
}

TEST(Cache, CountsHitsAndMissesAndSharesInstances) {
    ModelCache cache;
    const auto build = [] { return adl::compose(models::archi("rpc_revised_markov.aem")); };
    const auto first = cache.composed("rpc", build);
    const auto second = cache.composed("rpc", build);
    EXPECT_EQ(first.get(), second.get());
    const ModelCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    cache.clear();
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(Cache, PatchedSkeletonSolvesIdenticallyToFullCompose) {
    // The spec composes at a 5 ms shutdown timeout; rewrite its literal to
    // 4 ms for the directly composed reference.
    adl::ArchiType at_4ms = models::archi("rpc_revised_markov.aem");
    for (adl::ElemType& type : at_4ms.elem_types) {
        for (adl::BehaviorDef& behavior : type.behaviors) {
            for (adl::Alternative& alt : behavior.alternatives) {
                for (adl::Action& action : alt.actions) {
                    if (action.name == "send_shutdown") action.rate = lts::RateExp{1.0 / 4.0};
                }
            }
        }
    }
    const adl::ComposedModel skeleton = adl::compose(models::archi("rpc_revised_markov.aem"));
    const adl::ComposedModel patched =
        with_exp_rate(skeleton, "DPM", "send_shutdown", 1.0 / 4.0);
    const adl::ComposedModel direct = adl::compose(at_4ms);
    ASSERT_EQ(patched.graph.num_states(), direct.graph.num_states());

    const auto measures = models::measures("rpc_measures.msr");
    const ctmc::MarkovModel mp = ctmc::build_markov(patched);
    const ctmc::MarkovModel md = ctmc::build_markov(direct);
    const auto pip = ctmc::steady_state(mp.chain);
    const auto pid = ctmc::steady_state(md.chain);
    for (const adl::Measure& m : measures) {
        EXPECT_EQ(ctmc::evaluate_measure(mp, patched, pip, m),
                  ctmc::evaluate_measure(md, direct, pid, m))
            << m.name;
    }
}

TEST(Cache, WithDelayRetimesEitherPhaseOrMakesImmediate) {
    const adl::ComposedModel markov_model =
        adl::compose(models::archi("rpc_revised_markov.aem"));
    const adl::ComposedModel general_model = adl::compose(models::archi("rpc_general.aem"));
    const auto shutdown_rates = [](const adl::ComposedModel& model) {
        const std::vector<char> mask =
            adl::action_mask(model, adl::EnabledPredicate{"DPM", "send_shutdown"});
        std::vector<lts::Rate> rates;
        for (lts::StateId s = 0; s < model.graph.num_states(); ++s) {
            for (const lts::Transition& t : model.graph.out(s)) {
                if (mask[t.action]) rates.push_back(model.graph.rate(t));
            }
        }
        return rates;
    };
    for (const lts::Rate& rate :
         shutdown_rates(with_delay(markov_model, "DPM", "send_shutdown", 4.0))) {
        EXPECT_EQ(rate, lts::Rate{lts::RateExp{0.25}});
    }
    for (const lts::Rate& rate :
         shutdown_rates(with_delay(general_model, "DPM", "send_shutdown", 4.0))) {
        EXPECT_EQ(rate, lts::Rate{lts::RateGeneral{Dist::deterministic(4.0)}});
    }
    const adl::ComposedModel immediate = with_delay(markov_model, "DPM", "send_shutdown", 0.0);
    const std::vector<lts::Rate> rates = shutdown_rates(immediate);
    ASSERT_FALSE(rates.empty());
    for (const lts::Rate& rate : rates) {
        EXPECT_EQ(rate, (lts::Rate{lts::RateImmediate{1, 1.0}}));
    }
    EXPECT_EQ(immediate.graph.num_states(), markov_model.graph.num_states());
    // An immediate transition has no delay left to retime.
    EXPECT_THROW((void)with_delay(immediate, "DPM", "send_shutdown", 5.0), ModelError);
    EXPECT_THROW((void)with_delay(markov_model, "DPM", "no_such_action", 5.0), ModelError);
}

TEST(Cache, PatchRefusesMissingOrNonExponentialTargets) {
    const adl::ComposedModel markov_model =
        adl::compose(models::archi("rpc_revised_markov.aem"));
    EXPECT_THROW((void)with_exp_rate(markov_model, "DPM", "no_such_action", 2.0),
                 ModelError);
    const adl::ComposedModel general_model = adl::compose(models::archi("rpc_general.aem"));
    // In the general model the shutdown is deterministic, not exponential.
    EXPECT_THROW((void)with_exp_rate(general_model, "DPM", "send_shutdown", 2.0),
                 ModelError);
    EXPECT_THROW((void)with_dist(markov_model, "DPM", "send_shutdown",
                                 Dist::deterministic(5.0)),
                 ModelError);
    // The legitimate patches succeed.
    EXPECT_NO_THROW((void)with_dist(general_model, "DPM", "send_shutdown",
                                    Dist::deterministic(7.0)));
    EXPECT_NO_THROW((void)with_exp_rate(markov_model, "DPM", "send_shutdown", 2.0));
}

TEST(Cache, PatchRefusesNonFiniteValues) {
    const adl::ComposedModel markov_model =
        adl::compose(models::archi("rpc_revised_markov.aem"));
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const auto expect_refused = [](const auto& patch) {
        try {
            (void)patch();
            ADD_FAILURE() << "no ModelError";
        } catch (const ModelError& e) {
            EXPECT_NE(std::string(e.what()).find("DPM.send_shutdown"), std::string::npos)
                << e.what();
        }
    };
    for (const double bad : {inf, -inf, nan, 0.0, -1.0}) {
        expect_refused([&] { return with_exp_rate(markov_model, "DPM", "send_shutdown", bad); });
    }
    for (const double bad : {inf, -inf, nan}) {
        expect_refused([&] { return with_delay(markov_model, "DPM", "send_shutdown", bad); });
    }
}

TEST(CacheTrace, PatchAndMeasuresAreSpanned) {
    const adl::ComposedModel skeleton = adl::compose(models::archi("rpc_revised_markov.aem"));
    const std::vector<adl::Measure> measures = models::measures("rpc_measures.msr");
    obs::clear_trace();
    obs::set_tracing(true);
    const adl::ComposedModel patched = with_exp_rate(skeleton, "DPM", "send_shutdown", 0.5);
    const PointResult result = solve_point(patched, measures);
    obs::set_tracing(false);
    ASSERT_EQ(result.values.size(), measures.size());
#if !defined(DPMA_OBS_DISABLED)
    const obs::Json trace = obs::json_parse(obs::trace_json());
    const obs::Json* events = trace.find("traceEvents");
    ASSERT_NE(events, nullptr);
    const auto args_of = [events](std::string_view name) {
        std::vector<const obs::Json*> out;
        for (const obs::Json& e : events->array) {
            if (e.string_at("name") == name) out.push_back(e.find("args"));
        }
        return out;
    };
    // One patch: the copy's slot table, of which the slots labelled
    // DPM.send_shutdown were patched.
    const std::vector<char> labels =
        adl::action_mask(patched, adl::EnabledPredicate{"DPM", "send_shutdown"});
    std::size_t matching = 0;
    for (const lts::RateSlot& slot : patched.graph.slots()) matching += labels[slot.action];
    ASSERT_GT(matching, 0u);
    const std::vector<const obs::Json*> patches = args_of("exp.patch_model");
    ASSERT_EQ(patches.size(), 1u);
    ASSERT_NE(patches[0], nullptr);
    EXPECT_EQ(patches[0]->number_at("slots"),
              static_cast<double>(patched.graph.slots().size()));
    EXPECT_EQ(patches[0]->number_at("slots_patched"), static_cast<double>(matching));
    // One measure span per measure, in evaluation order.
    const auto tangible = static_cast<double>(ctmc::build_markov(patched).orig_of.size());
    const std::vector<const obs::Json*> evaluated = args_of("ctmc.measure");
    ASSERT_EQ(evaluated.size(), measures.size());
    for (std::size_t k = 0; k < measures.size(); ++k) {
        ASSERT_NE(evaluated[k], nullptr);
        EXPECT_EQ(evaluated[k]->number_at("clauses"),
                  static_cast<double>(measures[k].clauses.size()))
            << measures[k].name;
        EXPECT_EQ(evaluated[k]->number_at("tangible"), tangible) << measures[k].name;
    }
#endif
    obs::clear_trace();
}

TEST(CacheTrace, SweepEliminatesOncePerStructure) {
    const adl::ComposedModel skeleton = adl::compose(models::archi("rpc_revised_markov.aem"));
    const std::vector<adl::Measure> measures = models::measures("rpc_measures.msr");
    Experiment experiment;
    experiment.name = "eliminate_once";
    experiment.grid.axis(Axis::list("shutdown_rate", {0.1, 0.5, 2.0}));
    for (const adl::Measure& m : measures) experiment.measures.push_back(m.name);
    experiment.eval = [&](const Point& point, const PointContext&) {
        return solve_point(
            with_exp_rate(skeleton, "DPM", "send_shutdown", point.at("shutdown_rate")),
            measures);
    };
    RunOptions options;
    options.jobs = 2;
    const std::uint64_t builds_before = obs::counter("ctmc.builds").value();
    const std::uint64_t skeletons_before = obs::counter("ctmc.skeleton.builds").value();
    obs::clear_trace();
    obs::set_tracing(true);
    const ResultSet results = run(experiment, options);
    obs::set_tracing(false);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(obs::counter("ctmc.builds").value(), builds_before + 3);
    EXPECT_EQ(obs::counter("ctmc.skeleton.builds").value(), skeletons_before + 1);
#if !defined(DPMA_OBS_DISABLED)
    const obs::Json trace = obs::json_parse(obs::trace_json());
    const obs::Json* events = trace.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::size_t eliminations = 0;
    std::size_t builds = 0;
    double built = 0.0;
    for (const obs::Json& e : events->array) {
        if (e.string_at("name") == "ctmc.eliminate") {
            ++eliminations;
            EXPECT_EQ(e.find("args")->number_at("states"),
                      static_cast<double>(skeleton.graph.num_states()));
        } else if (e.string_at("name") == "ctmc.build_markov") {
            ++builds;
            built += e.find("args")->number_at("skeleton_built");
        }
    }
    EXPECT_EQ(eliminations, 1u);
    EXPECT_EQ(builds, 3u);
    EXPECT_EQ(built, 1.0);
#endif
    obs::clear_trace();
}

ResultSet demo_results() {
    ResultSet set("demo", {"x", "dpm"}, {"tput", "energy"});
    Point p0;
    p0.index = 0;
    p0.coords = {{"x", 1.5}, {"dpm", 1.0}};
    PointResult r0;
    r0.values = {0.25, 3.0};
    r0.half_widths = {0.01, 0.2};
    set.add(p0, r0);
    Point p1;
    p1.index = 1;
    p1.coords = {{"x", 2.5}, {"dpm", 0.0}};
    PointResult r1;
    r1.values = {0.5, 2.0};
    set.add(p1, r1);
    return set;
}

TEST(Report, CsvHasHeaderAndOneRowPerPoint) {
    const ResultSet set = demo_results();
    const std::string csv = set.csv();
    EXPECT_NE(csv.find("x,dpm,tput,tput_hw,energy,energy_hw\n"), std::string::npos);
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
    EXPECT_NE(csv.find("2.5,0,0.5,0,2,0"), std::string::npos);
}

TEST(Report, JsonHasTheDocumentedShape) {
    const ResultSet set = demo_results();
    const std::string json = set.json();
    EXPECT_NE(json.find("\"experiment\": \"demo\""), std::string::npos);
    EXPECT_NE(json.find("\"params\": [\"x\", \"dpm\"]"), std::string::npos);
    EXPECT_NE(json.find("\"measures\": [\"tput\", \"energy\"]"), std::string::npos);
    EXPECT_NE(json.find("\"points\": ["), std::string::npos);
    EXPECT_NE(json.find("\"values\": {\"tput\": 0.5, \"energy\": 2}"),
              std::string::npos);
    EXPECT_EQ(set.value(0, "energy"), 3.0);
    EXPECT_EQ(set.half_width(1, "tput"), 0.0);
    EXPECT_THROW((void)set.value(0, "nope"), Error);
}

TEST(Report, RejectsMisalignedResults) {
    ResultSet set("demo", {"x"}, {"a", "b"});
    Point p;
    p.coords = {{"x", 1.0}};
    PointResult one_value;
    one_value.values = {1.0};
    EXPECT_THROW(set.add(p, one_value), Error);
    PointResult misaligned_hw;
    misaligned_hw.values = {1.0, 2.0};
    misaligned_hw.half_widths = {0.1};
    EXPECT_THROW(set.add(p, misaligned_hw), Error);
}

TEST(Harness, TableFromResultSetPrints) {
    const ResultSet set = demo_results();
    bench::Table table = bench::table_from(set);
    EXPECT_NO_THROW(table.print());
}

/// Independent reference for a harness Markov point: the spec composed from
/// scratch (models::compose_point) and solved with the ctmc primitives.
std::vector<double> reference_point(const char* spec, const char* action, double delay,
                                    bool dpm, const char* measures_file) {
    const adl::ComposedModel model = models::compose_point(spec, action, delay, dpm);
    const ctmc::MarkovModel markov = ctmc::build_markov(model);
    const auto pi = ctmc::steady_state(markov.chain);
    std::vector<double> values;
    for (const adl::Measure& m : models::measures(measures_file)) {
        values.push_back(ctmc::evaluate_measure(markov, model, pi, m));
    }
    return values;
}

TEST(Harness, StreamingExperimentMatchesDirectPoint) {
    const ResultSet sweep =
        run(bench::streaming_markov_experiment({50.0}, true), RunOptions{});
    EXPECT_EQ(sweep.at(0).result.values,
              reference_point("streaming_markov.aem", "send_wakeup", 50.0, true,
                              "streaming_measures.msr"));
}

TEST(Harness, RpcExperimentMatchesDirectPoint) {
    const ResultSet sweep =
        run(bench::rpc_markov_experiment({7.5}, true), RunOptions{});
    EXPECT_EQ(sweep.at(0).result.values,
              reference_point("rpc_revised_markov.aem", "send_shutdown", 7.5, true,
                              "rpc_measures.msr"));
    EXPECT_NE(sweep.at(0).result.diagnostics.find("\"method\""), std::string::npos);
}

TEST(Harness, RpcSweepRetimesNearbyDelaysSeparately) {
    // Delays 0 and 1e-7 agree to six decimals; each point must still be
    // solved at its own delay, not at the first one's.
    RunOptions options;
    options.jobs = 1;
    const ResultSet sweep = run(bench::rpc_markov_experiment({0.0, 1e-7}, true), options);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        EXPECT_EQ(sweep.at(i).result.values,
                  reference_point("rpc_revised_markov.aem", "send_shutdown",
                                  sweep.at(i).point.at("timeout_ms"), true,
                                  "rpc_measures.msr"))
            << "point " << i;
    }
    EXPECT_NE(sweep.at(0).result.values, sweep.at(1).result.values);
}

TEST(Harness, MarkovSweepCachesOneSkeletonPerVariant) {
    const ModelCache::Stats before = ModelCache::global_stats();
    (void)run(bench::streaming_markov_experiment({45.0, 55.0, 65.0, 75.0, 85.0}, true),
              RunOptions{});
    (void)run(bench::streaming_markov_experiment({45.0}, false), RunOptions{});
    const ModelCache::Stats after = ModelCache::global_stats();
    EXPECT_LE(after.misses - before.misses, 2u);
}

TEST(Report, JsonCarriesPerPointElapsed) {
    const ResultSet sweep =
        run(bench::rpc_markov_experiment({5.0, 10.0}, true), RunOptions{});
    EXPECT_NE(sweep.json().find("\"elapsed_s\": "), std::string::npos);
    EXPECT_GT(sweep.at(0).result.elapsed_s, 0.0);
}

/// Eight-point sweep whose point 2 throws: values from the coordinate and
/// the per-point seed only.  \p evaluated counts the evals that ran.
Experiment failing_experiment(std::atomic<int>& evaluated) {
    Experiment experiment;
    experiment.name = "failing demo";
    experiment.grid.axis(Axis::linspace("x", 1.0, 8.0, 8));
    experiment.measures = {"y", "z"};
    experiment.eval = [&evaluated](const Point& point, const PointContext& context) {
        ++evaluated;
        if (point.index == 2) throw NumericalError("solver diverged");
        PointResult result;
        result.values = {2.0 * point.at("x"), static_cast<double>(context.seed() % 1000)};
        return result;
    };
    return experiment;
}

TEST(Runner, FailedPointBecomesARecordNotALostSweep) {
    std::atomic<int> evaluated{0};
    const Experiment experiment = failing_experiment(evaluated);
    RunOptions options;
    options.jobs = 4;
    const std::uint64_t failed_before = obs::counter("exp.point.failed").value();
    const RunOutcome outcome = run_sweep(experiment, options);
    EXPECT_EQ(obs::counter("exp.point.failed").value(), failed_before + 1);

    EXPECT_EQ(outcome.failed, 1u);
    ASSERT_TRUE(static_cast<bool>(outcome.first_error));
    ASSERT_EQ(outcome.results.size(), 8u);  // siblings are not discarded
    for (std::size_t i = 0; i < 8; ++i) {
        const PointRecord& record = outcome.results.at(i);
        EXPECT_EQ(record.point.index, i);
        EXPECT_EQ(record.result.failed(), i == 2) << i;
        if (i != 2) {
            EXPECT_EQ(record.result.values[0], 2.0 * static_cast<double>(i + 1));
        }
    }

    const PointRecord& failed = outcome.results.at(2);
    EXPECT_NE(failed.result.error.find("dpma::NumericalError"), std::string::npos)
        << failed.result.error;
    EXPECT_NE(failed.result.error.find("solver diverged"), std::string::npos);
    ASSERT_EQ(failed.result.values.size(), 2u);
    for (const double v : failed.result.values) EXPECT_TRUE(std::isnan(v));
    const std::string json = outcome.results.json();
    EXPECT_NE(json.find("\"error\": "), std::string::npos);
    EXPECT_EQ(json.find("\"attempts\""), std::string::npos);
}

TEST(Runner, RunRethrowsTheLowestIndexFailureAfterEverySiblingRan) {
    for (const std::size_t jobs : {1u, 4u}) {
        SCOPED_TRACE(jobs);
        std::atomic<int> evaluated{0};
        Experiment experiment = failing_experiment(evaluated);
        const auto inner = experiment.eval;
        // Point 6 fails too; its error must not win over point 2's.
        experiment.eval = [inner](const Point& point, const PointContext& context) {
            if (point.index == 6) throw Error("later failure");
            return inner(point, context);
        };
        RunOptions options;
        options.jobs = jobs;
        try {
            (void)run(experiment, options);
            FAIL() << "run() must rethrow a failed point";
        } catch (const NumericalError& e) {
            EXPECT_STREQ(e.what(), "solver diverged");
        }
        // Every point but 6 reached the counting eval: no failure cancelled
        // a sibling.
        EXPECT_EQ(evaluated.load(), 7);
    }
}

}  // namespace
}  // namespace dpma::exp
