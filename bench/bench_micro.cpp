/// \file bench_micro.cpp
/// Google-benchmark microbenchmarks of the analysis engines themselves:
/// composition, weak-bisimulation checking, CTMC construction + solution,
/// and GSMP simulation throughput.  These are ours (not a paper figure) and
/// guard against performance regressions of the toolchain.

#include <benchmark/benchmark.h>

#include <chrono>

#include "adl/measure.hpp"
#include "analysis/flow/analyze.hpp"
#include "bisim/equivalence.hpp"
#include "bisim/partition.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "lts/ops.hpp"
#include "ctmc/solve.hpp"
#include "exp/cache.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"
#include "noninterference/noninterference.hpp"
#include "obs/json_parse.hpp"
#include "obs/trace.hpp"
#include "sim/gsmp.hpp"

namespace {

using namespace dpma;

adl::ComposedModel compose_spec(std::string_view file_name) {
    return adl::compose(models::archi(file_name));
}

/// The streaming system with both buffers of the given capacity.
adl::ComposedModel compose_streaming(long capacity) {
    return adl::compose(
        models::with_capacity(models::archi("streaming_markov.aem"), {"AP", "B"}, capacity));
}

const std::vector<adl::Measure>& rpc_measures() {
    static const std::vector<adl::Measure> measures = models::measures("rpc_measures.msr");
    return measures;
}

void BM_ComposeRpcMarkov(benchmark::State& state) {
    const adl::ArchiType archi = models::archi("rpc_revised_markov.aem");
    for (auto _ : state) {
        benchmark::DoNotOptimize(adl::compose(archi));
    }
}
BENCHMARK(BM_ComposeRpcMarkov);

void BM_ComposeStreamingMarkov(benchmark::State& state) {
    const adl::ArchiType archi = models::archi("streaming_markov.aem");
    for (auto _ : state) {
        benchmark::DoNotOptimize(adl::compose(archi));
    }
    state.SetItemsProcessed(state.iterations() * adl::compose(archi).graph.num_states());
}
BENCHMARK(BM_ComposeStreamingMarkov);

void BM_NoninterferenceRpcRevised(benchmark::State& state) {
    const adl::ArchiType archi = models::archi("rpc_revised_markov.aem");
    const auto model = adl::compose(archi);
    const auto high = models::high_action_labels(archi);
    for (auto _ : state) {
        benchmark::DoNotOptimize(noninterference::check_dpm_transparency(model, high, "C"));
    }
}
BENCHMARK(BM_NoninterferenceRpcRevised);

/// The whole dataflow engine (parse + lint + CFGs + intervals + abstract
/// composition + ergodicity) on the largest shipped spec.  This is the cost
/// a `--precheck` adds before composition — it must stay far below the
/// composition+check it can save.
void BM_FlowAnalyzeStreaming(benchmark::State& state) {
    const std::string_view spec = models::spec("streaming_markov.aem");
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            analysis::flow::analyze_text(spec, "streaming_markov.aem"));
    }
}
BENCHMARK(BM_FlowAnalyzeStreaming);

void BM_NoninterferenceStreaming(benchmark::State& state) {
    const auto model = compose_streaming(state.range(0));
    const auto high = models::high_action_labels(models::archi("streaming_markov.aem"));
    for (auto _ : state) {
        benchmark::DoNotOptimize(noninterference::check_dpm_transparency(model, high, "C"));
    }
    state.SetLabel(std::to_string(model.graph.num_states()) + " states");
}
BENCHMARK(BM_NoninterferenceStreaming)->Arg(2)->Arg(3)->Arg(10);

/// Runs \p body once per benchmark iteration and reports the wall time per
/// iteration divided by \p states as the "ns/state" counter.
template <typename Body>
void time_per_state(benchmark::State& state, std::size_t states, Body&& body) {
    const auto start = std::chrono::steady_clock::now();
    for (auto _ : state) body();
    const std::chrono::duration<double, std::nano> elapsed =
        std::chrono::steady_clock::now() - start;
    state.counters["ns/state"] =
        elapsed.count() /
        (static_cast<double>(state.iterations()) * static_cast<double>(states));
}

/// The union of the two noninterference observer views of the streaming
/// system at buffers 10 (one pass over the composed graph per view), per
/// composed state.
void BM_ObserverViewsStreaming(benchmark::State& state) {
    const adl::ArchiType archi = models::archi("streaming_markov.aem");
    const auto model = adl::compose(archi);
    lts::ActionSet high;
    for (const std::string& label : models::high_action_labels(archi)) {
        high.insert(model.graph.actions()->find(label));
    }
    lts::ActionSet low;
    for (const lts::ActionId a : adl::actions_of_instance(model, "C")) low.insert(a);
    time_per_state(state, model.graph.num_states(), [&] {
        benchmark::DoNotOptimize(noninterference::make_views(model.graph, high, low));
    });
    state.SetLabel(std::to_string(model.graph.num_states()) + " composed states");
}
BENCHMARK(BM_ObserverViewsStreaming)->Unit(benchmark::kMillisecond);

/// build_markov on the streaming system at buffer capacity range(0) (10 is
/// the shipped spec; 16 gives 43k composed states), per composed state.
/// patched=0 builds on a freshly composed structure each time (elimination
/// and fill; the compose is not timed), patched=1 on a rate-patched copy of
/// a skeleton whose elimination is already built (the fill alone, as every
/// sweep point after the first).
void BM_BuildMarkovStreaming(benchmark::State& state) {
    const long capacity = state.range(0);
    const bool patched = state.range(1) != 0;
    const auto skeleton = compose_streaming(capacity);
    if (patched) benchmark::DoNotOptimize(ctmc::build_markov(skeleton));
    std::chrono::duration<double, std::nano> built{0};
    for (auto _ : state) {
        state.PauseTiming();
        const auto model = patched ? exp::with_exp_rate(skeleton, models::kDpm, "send_wakeup", 0.02)
                                   : compose_streaming(capacity);
        state.ResumeTiming();
        const auto start = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(ctmc::build_markov(model));
        built += std::chrono::steady_clock::now() - start;
    }
    state.counters["ns/state"] =
        built.count() / (static_cast<double>(state.iterations()) *
                         static_cast<double>(skeleton.graph.num_states()));
    state.SetLabel(std::to_string(skeleton.graph.num_states()) + " states");
}
BENCHMARK(BM_BuildMarkovStreaming)
    ->ArgNames({"capacity", "patched"})
    ->ArgsProduct({{10, 16}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

/// One sweep-point retiming (exp::with_exp_rate) of the streaming skeleton
/// at buffer capacity Arg.  The copy shares the composed structure and copies
/// only the rate slots and the instance names, so the time per patch should
/// stay flat as the state count grows.
void BM_PatchModelStreaming(benchmark::State& state) {
    const auto model = compose_streaming(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(exp::with_exp_rate(model, models::kDpm, "send_wakeup", 0.02));
    }
    state.SetLabel(std::to_string(model.graph.num_states()) + " states, " +
                   std::to_string(model.graph.slots().size()) + " rate slots");
}
BENCHMARK(BM_PatchModelStreaming)->Arg(10)->Arg(16);

void BM_SteadyStateGth(benchmark::State& state) {
    const auto model = compose_spec("rpc_revised_markov.aem");
    const auto markov = ctmc::build_markov(model);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ctmc::steady_state_gth(markov.chain));
    }
    state.SetLabel(std::to_string(markov.chain.num_states()) + " states");
}
BENCHMARK(BM_SteadyStateGth);

/// The sparse GTH steady-state solve on the streaming chain at buffer
/// capacity Arg, per tangible state; the label carries the factor size.
void BM_SteadyStateStreaming(benchmark::State& state) {
    const auto markov = ctmc::build_markov(compose_streaming(state.range(0)));
    ctmc::SolveDiagnostics diagnostics;
    time_per_state(state, markov.chain.num_states(), [&] {
        benchmark::DoNotOptimize(
            ctmc::steady_state(markov.chain, {.diagnostics = &diagnostics}));
    });
    state.SetLabel(std::to_string(markov.chain.num_states()) + " states, " +
                   std::to_string(diagnostics.factor_entries) + " factor entries");
}
BENCHMARK(BM_SteadyStateStreaming)->Arg(10)->Arg(16)->Unit(benchmark::kMillisecond);

/// The seven streaming measures at buffer capacity 16 (send_wakeup 1/100),
/// per tangible state: shared=0 makes one evaluate_measure call per measure,
/// as perfbench's markov_point does (six of them have a TRANS_REWARD
/// clause), shared=1 one evaluate_measures call, as exp::solve_point does.
/// The frequency terms are derived before the timed loop, as they are once
/// per structure in a sweep.
void BM_EvaluateMeasuresStreaming(benchmark::State& state) {
    const bool shared = state.range(0) != 0;
    const auto model =
        exp::with_exp_rate(compose_streaming(16), models::kDpm, "send_wakeup", 1.0 / 100.0);
    const auto markov = ctmc::build_markov(model);
    const std::vector<double> pi = ctmc::steady_state(markov.chain);
    const std::vector<adl::Measure> measures = models::measures("streaming_measures.msr");
    (void)ctmc::evaluate_measures(markov, model, pi, measures);
    time_per_state(state, markov.chain.num_states(), [&] {
        if (shared) {
            benchmark::DoNotOptimize(ctmc::evaluate_measures(markov, model, pi, measures));
            return;
        }
        for (const adl::Measure& m : measures) {
            benchmark::DoNotOptimize(ctmc::evaluate_measure(markov, model, pi, m));
        }
    });
    state.SetLabel(std::to_string(markov.chain.num_states()) + " tangible states, " +
                   std::to_string(measures.size()) + " measures");
}
BENCHMARK(BM_EvaluateMeasuresStreaming)
    ->ArgNames({"shared"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

/// transient() on the streaming chain (awake period 200 ms) over
/// first-passage's 2,000 ms horizon, per generator entry and series term:
/// the cost of one uniformisation step per rate.  The series length is the
/// `terms` arg of one traced call's ctmc.transient span.
void BM_TransientStreaming(benchmark::State& state) {
    const auto markov = ctmc::build_markov(exp::with_exp_rate(
        compose_spec("streaming_markov.aem"), models::kDpm, "send_wakeup", 1.0 / 200.0));
    const auto run = [&] {
        return ctmc::transient(markov.chain, markov.initial_distribution, 2000.0);
    };
    obs::clear_trace();
    obs::set_tracing(true);
    (void)run();
    obs::set_tracing(false);
    const obs::Json trace = obs::json_parse(obs::trace_json());
    double terms = 0.0;
    for (const obs::Json& event : trace.find("traceEvents")->array) {
        if (event.string_at("name") == "ctmc.transient") {
            terms = event.find("args")->number_at("terms");
        }
    }
    obs::clear_trace();
    const auto start = std::chrono::steady_clock::now();
    for (auto _ : state) benchmark::DoNotOptimize(run());
    const std::chrono::duration<double, std::nano> elapsed =
        std::chrono::steady_clock::now() - start;
    state.counters["ns/entry-step"] =
        elapsed.count() / (static_cast<double>(state.iterations()) * terms *
                           static_cast<double>(markov.chain.num_entries()));
    state.SetLabel(std::to_string(markov.chain.num_states()) + " states, " +
                   std::to_string(markov.chain.num_entries()) + " entries, " +
                   std::to_string(static_cast<long>(terms)) + " terms");
}
BENCHMARK(BM_TransientStreaming)->Unit(benchmark::kMillisecond);

void BM_SimulateRpcGeneral(benchmark::State& state) {
    const auto model = compose_spec("rpc_general.aem");
    const sim::Simulator simulator(model, rpc_measures());
    sim::SimOptions options;
    options.horizon = 5000.0;
    std::uint64_t seed = 1;
    std::uint64_t events = 0;
    for (auto _ : state) {
        options.seed = seed++;
        const auto run = simulator.run(options);
        events += run.events;
        benchmark::DoNotOptimize(run);
    }
    state.SetItemsProcessed(static_cast<int64_t>(events));
    state.SetLabel("items = simulated events");
}
BENCHMARK(BM_SimulateRpcGeneral);

// Scheduler throughput pair (items/sec = simulated events/sec): an
// all-exponential model through the clocked scheduler, and an
// immediate-heavy model exercising the compiled immediate tables.

void BM_SimulateMarkovClocked(benchmark::State& state) {
    const auto model = compose_spec("rpc_revised_markov.aem");
    const sim::Simulator simulator(model, rpc_measures());
    sim::SimOptions options;
    options.horizon = 5000.0;
    std::uint64_t seed = 1;
    std::uint64_t events = 0;
    for (auto _ : state) {
        options.seed = seed++;
        const auto run = simulator.run(options);
        events += run.events;
        benchmark::DoNotOptimize(run);
    }
    state.SetItemsProcessed(static_cast<int64_t>(events));
    state.SetLabel("items = simulated events (all-exponential)");
}
BENCHMARK(BM_SimulateMarkovClocked);

void BM_SimulateImmediateHeavy(benchmark::State& state) {
    // Immediate shutdown (timeout 0): every idle period fires an immediate
    // transition, so the run alternates timed and immediate events.
    const auto model =
        models::compose_point("rpc_revised_markov.aem", "send_shutdown", 0.0, true);
    const sim::Simulator simulator(model, rpc_measures());
    sim::SimOptions options;
    options.horizon = 5000.0;
    std::uint64_t seed = 1;
    std::uint64_t events = 0;
    for (auto _ : state) {
        options.seed = seed++;
        const auto run = simulator.run(options);
        events += run.events;
        benchmark::DoNotOptimize(run);
    }
    state.SetItemsProcessed(static_cast<int64_t>(events));
    state.SetLabel("items = simulated events (immediate-heavy)");
}
BENCHMARK(BM_SimulateImmediateHeavy);

// Instrumentation overhead guards: a span with tracing disabled must cost on
// the order of a single atomic load, and a solve with spans compiled in but
// tracing off must not be measurably slower than the same solve was before
// instrumentation (the tests assert a bound on the per-span cost).

void BM_SpanDisabled(benchmark::State& state) {
    obs::set_tracing(false);
    for (auto _ : state) {
        DPMA_SPAN("bench.disabled", "bench");
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
    obs::clear_trace();
    obs::set_tracing(true);
    for (auto _ : state) {
        DPMA_SPAN("bench.enabled", "bench");
        benchmark::ClobberMemory();
    }
    obs::set_tracing(false);
    obs::clear_trace();
}
BENCHMARK(BM_SpanEnabled);

void BM_SolveInstrumentedOff(benchmark::State& state) {
    obs::set_tracing(false);
    const auto model = compose_spec("rpc_revised_markov.aem");
    const auto markov = ctmc::build_markov(model);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ctmc::steady_state(markov.chain));
    }
    state.SetLabel("spans compiled in, tracing off");
}
BENCHMARK(BM_SolveInstrumentedOff);

void BM_WeakBisimQuotient(benchmark::State& state) {
    const auto model = compose_spec("rpc_revised_markov.aem");
    const lts::Lts hidden = lts::hide(
        model.graph,
        [&] {
            lts::ActionSet set;
            for (auto a : adl::actions_of_instance(model, "DPM")) set.insert(a);
            return set;
        }());
    for (auto _ : state) {
        benchmark::DoNotOptimize(bisim::weakly_bisimilar(hidden, hidden));
    }
}
BENCHMARK(BM_WeakBisimQuotient);

// Hot-path guards for the CSR/saturation/refinement overhaul.

/// 10k-state tau-dense chain: 100 clusters of 100 mutually-tau states,
/// chained by tau and visible edges.  The weak-bisimulation prep pipeline
/// (SCC collapse + saturation) must digest it without materialising
/// per-state closure vectors — the pre-CSR saturation held O(n^2) state ids
/// for inputs of this shape.
lts::Lts tau_dense_chain(std::size_t clusters, std::size_t cluster_size) {
    lts::LtsBuilder m;
    const lts::ActionId tau = m.actions()->tau();
    const lts::ActionId step = m.action("step");
    const std::size_t n = clusters * cluster_size;
    for (std::size_t s = 0; s < n; ++s) m.add_state();
    for (std::size_t c = 0; c < clusters; ++c) {
        const auto base = static_cast<lts::StateId>(c * cluster_size);
        for (std::size_t i = 0; i < cluster_size; ++i) {
            // Tau ring: the whole cluster is one tau-SCC.
            m.add_transition(base + i, tau,
                             base + static_cast<lts::StateId>((i + 1) % cluster_size));
        }
        if (c + 1 < clusters) {
            const auto next = static_cast<lts::StateId>((c + 1) * cluster_size);
            m.add_transition(base, tau, next);       // silent drift down the chain
            m.add_transition(base + 1, step, next);  // observable progress
        }
    }
    m.set_initial(0);
    return std::move(m).build();
}

void BM_SaturateTauDenseChain(benchmark::State& state) {
    const lts::Lts chain = tau_dense_chain(100, 100);
    std::size_t weak_transitions = 0;
    for (auto _ : state) {
        const lts::TauCollapseResult collapsed = lts::collapse_tau_sccs(chain);
        const lts::Lts sat = lts::saturate(collapsed.collapsed);
        weak_transitions = sat.num_transitions();
        benchmark::DoNotOptimize(sat);
    }
    state.SetLabel(std::to_string(chain.num_states()) + " states -> " +
                   std::to_string(weak_transitions) + " weak transitions");
}
BENCHMARK(BM_SaturateTauDenseChain);

void BM_SaturateNoninterferenceView(benchmark::State& state) {
    // The saturation input the Sect. 3 checks actually produce: the revised
    // rpc system with everything but the low interface hidden.
    const auto model = compose_spec("rpc_revised_markov.aem");
    lts::ActionSet hide;
    for (auto a : adl::actions_of_instance(model, "DPM")) hide.insert(a);
    const lts::Lts hidden =
        lts::reachable_part(lts::hide(model.graph, hide));
    const lts::TauCollapseResult collapsed = lts::collapse_tau_sccs(hidden);
    for (auto _ : state) {
        benchmark::DoNotOptimize(lts::saturate(collapsed.collapsed));
    }
    state.SetLabel(std::to_string(collapsed.collapsed.num_states()) + " states");
}
BENCHMARK(BM_SaturateNoninterferenceView);

void BM_RefineStrongSaturated(benchmark::State& state) {
    const auto model = compose_spec("rpc_revised_markov.aem");
    lts::ActionSet hide;
    for (auto a : adl::actions_of_instance(model, "DPM")) hide.insert(a);
    const lts::Lts sat = lts::saturate(lts::collapse_tau_sccs(
        lts::reachable_part(lts::hide(model.graph, hide))).collapsed);
    for (auto _ : state) {
        benchmark::DoNotOptimize(bisim::refine_strong(sat));
    }
    state.SetLabel(std::to_string(sat.num_states()) + " states, " +
                   std::to_string(sat.num_transitions()) + " transitions");
}
BENCHMARK(BM_RefineStrongSaturated);

}  // namespace

BENCHMARK_MAIN();
