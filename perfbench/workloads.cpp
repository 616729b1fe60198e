#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "adl/compose.hpp"
#include "adl/measure.hpp"
#include "aemilia/parser.hpp"
#include "analysis/flow/analyze.hpp"
#include "battery/battery.hpp"
#include "battery/coupling.hpp"
#include "bisim/hml_check.hpp"
#include "core/dist.hpp"
#include "ctmc/absorption.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "exp/cache.hpp"
#include "exp/experiment.hpp"
#include "exp/pool.hpp"
#include "exp/runner.hpp"
#include "inputs.hpp"
#include "lts/ops.hpp"
#include "noninterference/noninterference.hpp"
#include "sim/gsmp.hpp"
#include "tracer.hpp"

namespace perfbench {

void Workload::reset_stats() {
    const std::lock_guard<std::mutex> lock(mutex_);
    solve_stats_ = SolveStats{};
    busy_s_ = 0.0;
}

SolveStats Workload::solve_stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return solve_stats_;
}

double Workload::busy_seconds() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return busy_s_;
}

void Workload::record_solve(const dpma::ctmc::SolveDiagnostics& diagnostics) {
    const std::lock_guard<std::mutex> lock(mutex_);
    solve_stats_.solves += 1;
    (diagnostics.method == "gth" ? solve_stats_.gth : solve_stats_.iterative) += 1;
    solve_stats_.iterations += static_cast<double>(diagnostics.iterations);
    solve_stats_.max_residual = std::max(solve_stats_.max_residual, diagnostics.final_residual);
}

void Workload::record_busy(double seconds) {
    const std::lock_guard<std::mutex> lock(mutex_);
    busy_s_ += seconds;
}

namespace {

using namespace dpma;

/// Shares by which the seed moves values.  The seed must not change the
/// amount of work: kJitter applies to values the cost does not follow (rpc
/// and disk rates, rewards, simulation delays of rpc, battery capacities);
/// kFineJitter to values that steer an iterative solver (awake periods).
/// Streaming rates stay as shipped: its client buffer sits near critical
/// load, where a 2% rate change moves solver iterations several-fold.
constexpr double kJitter = 0.02;
constexpr double kFineJitter = 0.005;

const std::string kRpcHigh = "DPM.send_shutdown#S.receive_shutdown";
const std::vector<std::string> kStreamingHigh = {"DPM.send_shutdown#NIC.receive_shutdown",
                                                 "DPM.send_wakeup#NIC.receive_wakeup"};

double elapsed_ms(std::uint64_t start_ns) {
    return static_cast<double>(now_ns() - start_ns) / 1e6;
}

/// Reads the shipped specs (and the benchmark's templates) and draws the
/// seeded values; every call consumes the seed's stream in program order.
struct Inputs {
    std::string specs;      ///< <root>/specs/
    std::string templates;  ///< <root>/perfbench/templates/
    Rng rng;

    Inputs(const std::string& root, std::uint64_t seed)
        : specs(root + "/specs/"), templates(root + "/perfbench/templates/"), rng(seed) {}

    [[nodiscard]] std::string shipped(const std::string& file) const {
        return read_file(specs + file);
    }
    [[nodiscard]] std::string jittered(const std::string& file) {
        return jitter_rates(shipped(file), rng, kJitter);
    }
    /// \p model under \p name, with the measure file at \p measures_path
    /// (rewards drawn from the seed) when one is given.
    [[nodiscard]] SpecText spec(const std::string& name, std::string model,
                                const std::string& measures_path = {}) {
        SpecText out{name, std::move(model), {}, {}};
        if (!measures_path.empty()) {
            out.measures = jitter_rewards(read_file(measures_path), rng, kJitter);
            out.measures_name = measures_path.substr(measures_path.rfind('/') + 1);
        }
        return out;
    }
};

/// Streaming at AP buffer capacity \p ap and client buffer capacity \p client.
std::string streaming_at(std::string_view text, long ap, long client) {
    return with_capacity(with_capacity(text, "Access_Point_Type", ap), "Client_Buffer_Type",
                         client);
}

/// \p count evenly spaced values over [lo, hi], each jittered by \p share.
std::vector<double> jittered_grid(Rng& rng, double lo, double hi, std::size_t count,
                                  double share) {
    std::vector<double> out;
    for (std::size_t i = 0; i < count; ++i) {
        const double t = count == 1 ? 0.0 : static_cast<double>(i) / static_cast<double>(count - 1);
        out.push_back(rng.jitter(lo + t * (hi - lo), share));
    }
    return out;
}

struct Loaded {
    adl::ArchiType archi;
    std::vector<adl::Measure> measures;
};

/// The set-up pipeline of one input: lint (which must find nothing at all),
/// parse, and the flow passes (which must find no error).
Loaded load(const SpecText& spec) {
    {
        Span span("analysis.lint");
        require_lint_clean(spec);
    }
    Loaded out;
    {
        Span span("aemilia.parse");
        out.archi = aemilia::parse_archi_type(spec.model);
        if (!spec.measures.empty()) out.measures = aemilia::parse_measures(spec.measures);
    }
    {
        Span span("analysis.flow");
        const auto flow = analysis::flow::analyze_model(out.archi, spec.name, {});
        if (!flow.ok()) {
            throw std::runtime_error("perfbench: flow analysis rejects " + spec.name);
        }
    }
    return out;
}

adl::ComposedModel compose_model(const adl::ArchiType& archi) {
    Span span("adl.compose", -1, 0, /*rss=*/true);
    adl::ComposedModel model = adl::compose(archi);
    span.states(static_cast<double>(model.graph.num_states()));
    return model;
}

ctmc::MarkovModel build_chain(const adl::ComposedModel& model) {
    Span span("ctmc.build", -1, 0, /*rss=*/true);
    span.states(static_cast<double>(model.graph.num_states()));
    return ctmc::build_markov(model);
}

adl::ComposedModel patch_rate(const adl::ComposedModel& skeleton, const std::string& instance,
                              const std::string& action, double rate) {
    Span span("exp.patch");
    return exp::with_exp_rate(skeleton, instance, action, rate);
}

adl::ComposedModel patch_delay(const adl::ComposedModel& skeleton, const std::string& instance,
                               const std::string& action, double delay) {
    Span span("exp.patch");
    return exp::with_dist(skeleton, instance, action, Dist::deterministic(delay));
}

/// One point of an exponential-rate sweep: the sequence `dpma_cli sweep`
/// runs per point (patch the skeleton, rebuild the CTMC, solve, evaluate).
exp::PointResult markov_point(const adl::ComposedModel& skeleton, const std::string& instance,
                              const std::string& action, double rate,
                              const std::vector<adl::Measure>& measures,
                              ctmc::SolveDiagnostics& diagnostics) {
    const adl::ComposedModel model = patch_rate(skeleton, instance, action, rate);
    const ctmc::MarkovModel markov = build_chain(model);
    ctmc::SolveOptions options;
    options.diagnostics = &diagnostics;
    const std::vector<double> pi = [&] {
        Span span("ctmc.steady", -1, 0, /*rss=*/true);
        span.states(static_cast<double>(markov.chain.num_states()));
        return ctmc::steady_state(markov.chain, options);
    }();
    exp::PointResult result;
    Span span("ctmc.reward");
    for (const adl::Measure& m : measures) {
        result.values.push_back(ctmc::evaluate_measure(markov, model, pi, m));
    }
    return result;
}

bool agrees(double a, double b, double relative, double absolute = 0.0) {
    return std::abs(a - b) <= relative * std::max(std::abs(a), std::abs(b)) + absolute;
}

std::string format(const char* fmt, double a, double b, double c = 0.0) {
    char buffer[256];
    std::snprintf(buffer, sizeof buffer, fmt, a, b, c);
    return buffer;
}

// ---------------------------------------------------------------------------
// functional
// ---------------------------------------------------------------------------

/// Streaming (AP, client) buffer capacities checked.  Weak-bisimulation
/// cost grows ~1.4x per step, so the verdict costs spread evenly over two
/// decades and the median result is not pinned to one input: a median
/// inside a cluster of equal costs jumps whenever a slow spell of the
/// machine covers half of that cluster.
constexpr std::pair<long, long> kFunctionalCapacities[] = {
    {2, 3}, {3, 3}, {3, 4}, {4, 4}, {4, 5}, {5, 5}, {5, 6}, {6, 6}, {6, 7}, {7, 7}};

class Functional final : public Workload {
public:
    explicit Functional(const Options& options) : Workload(1, 1) {
        Inputs in(options.root, options.seed);
        // Rates do not enter the functional phase, so every spec is jittered.
        checks_.push_back({in.spec("rpc_untimed.aem", in.shipped("rpc_untimed.aem")),
                           {kRpcHigh}, "C", false});
        checks_.push_back({in.spec("rpc_revised_markov.aem", in.jittered("rpc_revised_markov.aem")),
                           {kRpcHigh}, "C", true});
        checks_.push_back({in.spec("disk_markov.aem", in.jittered("disk_markov.aem")),
                           {"DPM.send_shutdown#D.receive_shutdown"}, "SINK", true});
        const std::string streaming = in.jittered("streaming_markov.aem");
        for (const auto& [ap, client] : kFunctionalCapacities) {
            checks_.push_back({in.spec("streaming_cap" + std::to_string(ap) + "x" +
                                           std::to_string(client) + ".aem",
                                       streaming_at(streaming, ap, client)),
                               kStreamingHigh, "C", true});
        }
    }

    void setup() override {
        structure_.clear();
        for (const Check& check : checks_) {
            const Loaded loaded = load(check.spec);
            const adl::ComposedModel model = compose_model(loaded.archi);
            structure_ += check.spec.name + ".states=" +
                          std::to_string(model.graph.num_states()) + " " + check.spec.name +
                          ".transitions=" + std::to_string(model.graph.num_transitions()) + " ";
        }
    }

    [[nodiscard]] std::string structure() const override {
        return structure_ + "results_per_cycle=" + std::to_string(checks_.size());
    }

    CycleOutcome cycle() override {
        CycleOutcome out;
        for (std::size_t i = 0; i < checks_.size(); ++i) {
            const Check& check = checks_[i];
            Span result("result", static_cast<std::int64_t>(i));
            const std::uint64_t start = now_ns();
            bool ok = false;
            try {
                const adl::ArchiType archi = [&] {
                    Span span("aemilia.parse");
                    return aemilia::parse_archi_type(check.spec.model);
                }();
                const bool linted = [&] {
                    Span span("analysis.lint");
                    return analysis::lint_model(archi, check.spec.name).ok();
                }();
                const adl::ComposedModel model = compose_model(archi);
                const noninterference::Result verdict = [&] {
                    Span span("noninterference.check");
                    span.states(static_cast<double>(model.graph.num_states()));
                    return noninterference::check_dpm_transparency(model, check.high, check.low);
                }();
                ok = linted && verdict.noninterfering == check.noninterfering;
            } catch (const std::exception&) {
                ok = false;
            }
            if (!ok) ++out.failed;
            out.latencies_ms.push_back(elapsed_ms(start));
        }
        return out;
    }

    /// Verdicts are checked against their expectations in every cycle; the
    /// oracle model-checks the simplified rpc's distinguishing formula on
    /// the two observer views, rebuilt here from the public LTS operations.
    OracleOutcome oracle() override {
        OracleOutcome out;
        const Check& check = checks_.front();
        const adl::ComposedModel model =
            adl::compose(aemilia::parse_archi_type(check.spec.model));
        const auto verdict =
            noninterference::check_dpm_transparency(model, check.high, check.low);
        const auto& table = *model.graph.actions();
        lts::ActionSet high;
        for (const std::string& label : check.high) high.insert(table.find(label));
        lts::ActionSet low;
        for (const lts::ActionId a : adl::actions_of_instance(model, check.low)) low.insert(a);
        lts::ActionSet hide_hidden = high;
        lts::ActionSet hide_restricted;
        for (Symbol a = 0; a < table.size(); ++a) {
            if (a == table.tau() || low.contains(a)) continue;
            hide_hidden.insert(a);
            if (!high.contains(a)) hide_restricted.insert(a);
        }
        const lts::Lts hidden = lts::reachable_part(lts::hide(model.graph, hide_hidden));
        const lts::Lts restricted = lts::reachable_part(
            lts::hide(lts::restrict_actions(model.graph, high), hide_restricted));
        const lts::UnionResult u = lts::disjoint_union(hidden, restricted);
        const bool ok = !verdict.noninterfering && verdict.formula != nullptr &&
                        bisim::satisfies(u.combined, u.initial_lhs, verdict.formula) &&
                        !bisim::satisfies(u.combined, u.initial_rhs, verdict.formula);
        out.checked = 1;
        out.mismatches = ok ? 0 : 1;
        out.notes.push_back(std::string("rpc_untimed.aem: distinguishing formula ") +
                            (ok ? "holds on M/High and fails on M\\High" : "DOES NOT separate the views"));
        return out;
    }

private:
    struct Check {
        SpecText spec;
        std::vector<std::string> high;
        std::string low;
        bool noninterfering;
    };
    std::vector<Check> checks_;
    std::string structure_;
};

// ---------------------------------------------------------------------------
// markov-sweep
// ---------------------------------------------------------------------------

/// rpc: 546 composed, 48 tangible states (GTH).  Streaming at buffer
/// capacity 16: 43k composed, 4.2k tangible, a 2.1k-state recurrent class
/// (Gauss–Seidel).  At the shipped capacity 10 the recurrent class has 891
/// states and GTH would solve both chains.
constexpr std::size_t kRpcSweepPoints = 120;
constexpr std::size_t kStreamingSweepPoints = 8;
constexpr long kSweepStreamingCapacity = 16;
/// Every kOracleStride-th point is re-solved by the oracle.
constexpr std::size_t kOracleStride = 20;

struct Sweep {
    SpecText spec;
    std::string instance;
    std::string action;
    std::vector<double> rates;
    Loaded loaded;
    std::shared_ptr<const adl::ComposedModel> skeleton;
    std::vector<std::vector<double>> last_values;  ///< per point, of the last cycle
    std::vector<char> last_direct;  ///< per point: solved by GTH, not iteratively
};

class MarkovSweep final : public Workload {
public:
    explicit MarkovSweep(const Options& options)
        : Workload(options.jobs, options.jobs), pool_(options.jobs), seed_(options.seed) {
        Inputs in(options.root, options.seed);
        Sweep rpc;
        rpc.spec = in.spec("rpc_revised_markov.aem", in.jittered("rpc_revised_markov.aem"),
                           in.specs + "rpc_measures.msr");
        rpc.instance = "DPM";
        rpc.action = "send_shutdown";
        rpc.rates = jittered_grid(in.rng, 0.05, 2.0, kRpcSweepPoints, kJitter);
        Sweep streaming;
        streaming.spec = in.spec(
            "streaming_cap" + std::to_string(kSweepStreamingCapacity) + ".aem",
            streaming_at(in.shipped("streaming_markov.aem"), kSweepStreamingCapacity,
                         kSweepStreamingCapacity),
            in.templates + "streaming.msr");
        streaming.instance = "DPM";
        streaming.action = "send_wakeup";
        for (const double period :
             jittered_grid(in.rng, 25.0, 400.0, kStreamingSweepPoints, kFineJitter)) {
            streaming.rates.push_back(1.0 / period);
        }
        sweeps_ = {std::move(rpc), std::move(streaming)};
    }

    void setup() override {
        // The old cache is the last owner of the old skeletons once these
        // are reset, so replacing it frees them before anything is rebuilt.
        for (Sweep& sweep : sweeps_) sweep.skeleton.reset();
        cache_ = std::make_unique<exp::ModelCache>();
        for (Sweep& sweep : sweeps_) {
            sweep.loaded = load(sweep.spec);
            sweep.skeleton = cache_->composed(sweep.spec.name,
                                              [&] { return compose_model(sweep.loaded.archi); });
            const ctmc::MarkovModel markov = build_chain(*sweep.skeleton);
            counts_[&sweep - sweeps_.data()] = {sweep.skeleton->graph.num_states(),
                                                markov.chain.num_states()};
        }
    }

    [[nodiscard]] std::string structure() const override {
        std::string out;
        for (std::size_t i = 0; i < sweeps_.size(); ++i) {
            const std::string& name = sweeps_[i].spec.name;
            out += name + ".states=" + std::to_string(counts_[i].first) + " " + name +
                   ".tangible=" + std::to_string(counts_[i].second) + " " + name +
                   ".vanishing=" + std::to_string(counts_[i].first - counts_[i].second) + " " +
                   name + ".points=" + std::to_string(sweeps_[i].rates.size()) + " ";
        }
        return out + "results_per_cycle=" +
               std::to_string(kRpcSweepPoints + kStreamingSweepPoints) +
               " jobs=" + std::to_string(jobs());
    }

    CycleOutcome cycle() override {
        CycleOutcome out;
        std::int64_t offset = 0;
        for (Sweep& sweep : sweeps_) {
            // Each sweep asks the cache for its skeleton, as a run of
            // several sweeps over one model does.
            const auto skeleton = cache_->composed(sweep.spec.name, [&] {
                return compose_model(sweep.loaded.archi);
            });
            Span run("exp.run");
            exp::Experiment experiment;
            experiment.name = sweep.spec.name;
            experiment.grid.axis(exp::Axis::list("rate", sweep.rates));
            for (const adl::Measure& m : sweep.loaded.measures) experiment.measures.push_back(m.name);
            sweep.last_direct.assign(sweep.rates.size(), 0);
            experiment.eval = [&, parent = run.id()](const exp::Point& point,
                                                    const exp::PointContext&) {
                Span result("result", offset + static_cast<std::int64_t>(point.index), parent);
                ctmc::SolveDiagnostics diagnostics;
                exp::PointResult r = markov_point(*skeleton, sweep.instance, sweep.action,
                                                  point.at("rate"), sweep.loaded.measures,
                                                  diagnostics);
                record_solve(diagnostics);
                sweep.last_direct[point.index] = diagnostics.method == "gth";
                r.diagnostics = diagnostics.json();
                return r;
            };
            const exp::RunOutcome outcome = exp::run_sweep(experiment, run_options());
            out.failed += outcome.failed;
            sweep.last_values.clear();
            for (std::size_t i = 0; i < outcome.results.size(); ++i) {
                const exp::PointResult& r = outcome.results.at(i).result;
                out.latencies_ms.push_back(r.elapsed_s * 1e3);
                record_busy(r.elapsed_s);
                sweep.last_values.push_back(r.values);
            }
            offset += static_cast<std::int64_t>(sweep.rates.size());
        }
        return out;
    }

    /// Re-solves every kOracleStride-th point with GTH (the dense path of
    /// steady_state, on the recurrent class) and requires the
    /// measures to agree to 1e-9 relative — 1e-8 for points the sweep solved
    /// by Gauss–Seidel, whose absolute 1e-12 stopping rule leaves ~4e-9
    /// relative error on the small streaming loss measures.
    OracleOutcome oracle() override {
        OracleOutcome out;
        for (const Sweep& sweep : sweeps_) {
            for (std::size_t i = 0; i < sweep.rates.size(); i += kOracleStride) {
                const adl::ComposedModel model = exp::with_exp_rate(
                    *sweep.skeleton, sweep.instance, sweep.action, sweep.rates[i]);
                const ctmc::MarkovModel markov = ctmc::build_markov(model);
                const std::vector<double> pi =
                    ctmc::steady_state(markov.chain, {.dense_threshold = SIZE_MAX});
                double worst = 0.0;
                bool ok = sweep.last_values.size() == sweep.rates.size();
                for (std::size_t m = 0; ok && m < sweep.loaded.measures.size(); ++m) {
                    const double exact =
                        ctmc::evaluate_measure(markov, model, pi, sweep.loaded.measures[m]);
                    const double got = sweep.last_values[i].at(m);
                    ok = ok && agrees(got, exact, sweep.last_direct[i] ? 1e-9 : 1e-8);
                    worst = std::max(worst, std::abs(got - exact) /
                                                std::max(std::abs(exact), 1e-300));
                }
                ++out.checked;
                if (!ok) ++out.mismatches;
                out.notes.push_back(sweep.spec.name + format(" point %.0f (%.0f states): GTH max rel. diff %.2e",
                                                         static_cast<double>(i),
                                                         static_cast<double>(markov.chain.num_states()),
                                                         worst));
            }
        }
        return out;
    }

private:
    [[nodiscard]] exp::RunOptions run_options() {
        exp::RunOptions options;
        options.pool = &pool_;
        options.base_seed = seed_;
        return options;
    }

    exp::ThreadPool pool_;
    std::uint64_t seed_;
    std::unique_ptr<exp::ModelCache> cache_;
    std::vector<Sweep> sweeps_;
    std::pair<std::size_t, std::size_t> counts_[2];  ///< composed, tangible per sweep
};

// ---------------------------------------------------------------------------
// first-passage
// ---------------------------------------------------------------------------

/// DPM awake periods (ms): the expected time to the first AP-buffer
/// overflow and the power profile over kProfileHorizon.  The hitting-time
/// solve gets cheaper as the period grows (~190 ms at 125, ~55 ms at 300),
/// so the periods spread the result costs evenly (see
/// kFunctionalCapacities for why that matters).  An odd count puts the
/// median result in the middle of one period's latencies, not on the step
/// between two.
constexpr double kAwakePeriods[] = {125.0, 150.0, 175.0, 200.0, 225.0,
                                    250.0, 275.0, 300.0, 325.0};
constexpr double kProfileHorizon = 2000.0;

class FirstPassage final : public Workload {
public:
    explicit FirstPassage(const Options& options) : Workload(1, 1) {
        Inputs in(options.root, options.seed);
        spec_ = in.spec("streaming_markov.aem", in.shipped("streaming_markov.aem"),
                        in.templates + "streaming.msr");
        for (const double period : kAwakePeriods) {
            periods_.push_back(in.rng.jitter(period, kFineJitter));
        }
    }

    void setup() override {
        skeleton_ = {};
        loaded_ = load(spec_);
        skeleton_ = compose_model(loaded_.archi);
        // The AP-full predicate, at the capacity the spec instantiates.
        const adl::Instance& ap = *std::find_if(
            loaded_.archi.instances.begin(), loaded_.archi.instances.end(),
            [](const adl::Instance& i) { return i.name == "AP"; });
        full_ = adl::state_mask(skeleton_, adl::InStatePredicate{
                                               "AP", "AP_Buffer(" + std::to_string(ap.args.at(1)) + ","});
        power_.assign(skeleton_.graph.num_states(), 0.0);
        for (const adl::RewardClause& clause : loaded_.measures.at(0).clauses) {
            const std::vector<char> mask = adl::state_mask(skeleton_, clause.predicate);
            for (std::size_t g = 0; g < mask.size(); ++g) {
                if (mask[g]) power_[g] += clause.reward;
            }
        }
        tangible_ = build_chain(skeleton_).chain.num_states();
    }

    [[nodiscard]] std::string structure() const override {
        return "streaming_markov.aem.states=" + std::to_string(skeleton_.graph.num_states()) +
               " streaming_markov.aem.tangible=" + std::to_string(tangible_) +
               " results_per_cycle=" + std::to_string(periods_.size());
    }

    CycleOutcome cycle() override {
        CycleOutcome out;
        last_.clear();
        for (std::size_t i = 0; i < periods_.size(); ++i) {
            Span result("result", static_cast<std::int64_t>(i));
            const std::uint64_t start = now_ns();
            try {
                last_.push_back(solve(periods_[i], 0));
                if (!(last_.back().passage > 0.0) || !std::isfinite(last_.back().energy)) {
                    ++out.failed;
                }
            } catch (const std::exception&) {
                ++out.failed;
                last_.push_back({});
            }
            out.latencies_ms.push_back(elapsed_ms(start));
        }
        return out;
    }

    /// Re-solves the first and last period with the dense direct path.
    OracleOutcome oracle() override {
        OracleOutcome out;
        for (const std::size_t i : {std::size_t{0}, periods_.size() - 1}) {
            const Passage dense = solve(periods_[i], tangible_ + 1);
            const bool ok = i < last_.size() && agrees(last_[i].passage, dense.passage, 1e-6);
            ++out.checked;
            if (!ok) ++out.mismatches;
            out.notes.push_back(format(
                "awake=%.3f ms: E[T_overflow] iterative %.10g, dense %.10g", periods_[i],
                i < last_.size() ? last_[i].passage : 0.0, dense.passage));
        }
        return out;
    }

private:
    struct Passage {
        double passage = 0.0;   ///< expected time to the first AP overflow (ms)
        double full = 0.0;      ///< P(AP full at kProfileHorizon)
        double energy = 0.0;    ///< NIC energy over [0, kProfileHorizon]
    };

    /// \p dense_threshold 0 forces the iterative hitting-time solver (as
    /// Ablation 4 does); above the chain size it forces the dense one.
    Passage solve(double period, std::size_t dense_threshold) {
        const adl::ComposedModel model = patch_rate(skeleton_, "DPM", "send_wakeup", 1.0 / period);
        const ctmc::MarkovModel markov = build_chain(model);
        const std::size_t n = markov.chain.num_states();
        std::vector<char> targets(n, 0);
        std::vector<double> power(n, 0.0);
        for (ctmc::TangibleId t = 0; t < n; ++t) {
            targets[t] = full_[markov.orig_of[t]];
            power[t] = power_[markov.orig_of[t]];
        }
        Passage out;
        {
            Span span("ctmc.hitting", -1, 0, /*rss=*/true);
            span.states(static_cast<double>(n));
            const std::vector<double> h =
                ctmc::expected_hitting_times(markov.chain, targets, dense_threshold);
            for (const auto& [state, p] : markov.initial_distribution) out.passage += p * h[state];
        }
        Span span("ctmc.transient");
        span.states(static_cast<double>(n));
        const std::vector<double> pi_t =
            ctmc::transient(markov.chain, markov.initial_distribution, kProfileHorizon);
        for (ctmc::TangibleId t = 0; t < n; ++t) out.full += targets[t] ? pi_t[t] : 0.0;
        out.energy = ctmc::accumulated_reward(markov.chain, markov.initial_distribution, power,
                                              kProfileHorizon);
        return out;
    }

    SpecText spec_;
    std::vector<double> periods_;
    Loaded loaded_;
    adl::ComposedModel skeleton_;
    std::vector<char> full_;
    std::vector<double> power_;
    std::size_t tangible_ = 0;
    std::vector<Passage> last_;
};

// ---------------------------------------------------------------------------
// general-sim
// ---------------------------------------------------------------------------

constexpr int kReplications = 4;
/// Horizons (ms) keep the four kinds of point apart in cost (battery <
/// exponential rpc < general rpc < general streaming), so the median and
/// tail latencies each fall inside one kind, and make each point long
/// enough (~30-80 ms) that a run has a few hundred results: the tail is then
/// a percentile in the 90s, not the eleventh-slowest of a thousand.  Five of
/// the thirteen points are general rpc, so the median result lies well
/// inside that kind, not on its step down to the larger battery replay.
constexpr double kRpcExponentialHorizon = 160'000.0;
constexpr double kRpcGeneralHorizon = 240'000.0;
constexpr double kStreamingHorizon = 3'200'000.0;
constexpr double kRpcGeneralTimeouts[] = {2.0, 3.5, 5.0, 7.5, 10.0};
constexpr double kRpcExponentialTimeouts[] = {2.0, 5.0, 10.0};
constexpr double kStreamingPeriods[] = {50.0, 100.0, 200.0};
/// KiBaM capacities (reward units); the rpc server draws ~2 units/ms.
constexpr double kBatteryCapacities[] = {80'000.0, 160'000.0};
constexpr double kBatteryHorizon = 8'000'000.0;  // ms, far beyond every lifetime
/// Relative distance from the CTMC value that an exponentialized estimate
/// may always have; ~6 standard errors at kRpcExponentialHorizon.
constexpr double kSimTolerance = 0.02;
/// Index of the power measure ("energy") in specs/rpc_measures.msr.
constexpr std::size_t kRpcEnergyMeasure = 2;

class GeneralSim final : public Workload {
public:
    explicit GeneralSim(const Options& options)
        : Workload(options.jobs, 1), pool_(options.jobs), seed_(options.seed) {
        Inputs in(options.root, options.seed);
        const std::string rpc_msr = in.specs + "rpc_measures.msr";
        models_[kRpcGeneral].spec =
            in.spec("rpc_general.aem", in.jittered("rpc_general.aem"), rpc_msr);
        models_[kStreamingGeneral].spec = in.spec(
            "streaming_general.aem",
            generalize(in.shipped("streaming_markov.aem"), "propagate_packet", 0.043125),
            in.templates + "streaming.msr");
        models_[kRpcExponential].spec =
            in.spec("rpc_revised_markov.aem", in.jittered("rpc_revised_markov.aem"), rpc_msr);
        for (const double t : kRpcGeneralTimeouts) {
            points_.push_back({kRpcGeneral, in.rng.jitter(t, kJitter)});
        }
        for (const double p : kStreamingPeriods) {
            points_.push_back({kStreamingGeneral, in.rng.jitter(p, kFineJitter)});
        }
        for (const double t : kRpcExponentialTimeouts) {
            points_.push_back({kRpcExponential, in.rng.jitter(t, kJitter)});
        }
        for (const double c : kBatteryCapacities) {
            points_.push_back({kBattery, in.rng.jitter(c, kJitter)});
        }
    }

    void setup() override {
        replay_.reset();
        for (Model& model : models_) model.skeleton = {};
        for (Model& model : models_) {
            model.loaded = load(model.spec);
            model.skeleton = compose_model(model.loaded.archi);
        }
        // The battery replays the general rpc trajectories through one
        // simulator built here, at the spec's own shutdown timeout.
        Span span("sim.compile");
        replay_ = std::make_unique<sim::Simulator>(models_[kRpcGeneral].skeleton,
                                                   models_[kRpcGeneral].loaded.measures);
    }

    [[nodiscard]] std::string structure() const override {
        std::string out;
        for (const Model& model : models_) {
            out += model.spec.name + ".states=" + std::to_string(model.skeleton.graph.num_states()) +
                   " ";
        }
        return out + "replications=" + std::to_string(kReplications) +
               " results_per_cycle=" + std::to_string(points_.size()) +
               " jobs=" + std::to_string(jobs());
    }

    CycleOutcome cycle() override {
        CycleOutcome out;
        Span run("exp.run");
        exp::Experiment experiment;
        experiment.name = "general-sim";
        std::vector<double> indices;
        for (std::size_t i = 0; i < points_.size(); ++i) indices.push_back(static_cast<double>(i));
        experiment.grid.axis(exp::Axis::list("point", indices));
        experiment.measures = {"value0", "value1", "value2"};  // see evaluate()
        experiment.eval = [&, parent = run.id()](const exp::Point& point,
                                                const exp::PointContext& context) {
            Span result("result", static_cast<std::int64_t>(point.index), parent);
            return evaluate(points_.at(point.index), context);
        };
        // Points run one after the other and each spreads its replications
        // over the pool, so a point's latency is its own work only.
        exp::RunOptions options;
        options.jobs = 1;
        options.base_seed = seed_;
        const exp::RunOutcome outcome = exp::run_sweep(experiment, options);
        out.failed += outcome.failed;
        last_.clear();
        for (std::size_t i = 0; i < outcome.results.size(); ++i) {
            const exp::PointResult& r = outcome.results.at(i).result;
            out.latencies_ms.push_back(r.elapsed_s * 1e3);
            record_busy(r.elapsed_s);
            last_.push_back(r);
            // A censored battery replication is a failed result.
            if (points_[i].model == kBattery && !r.failed() && r.values.at(2) > 0.0) ++out.failed;
        }
        return out;
    }

    /// Each exponentialized estimate must lie within four CI half-widths of
    /// its exact CTMC value, or within kSimTolerance of it: four
    /// replications now and then agree so closely that their half-width is
    /// far below the estimate's real error (seed 3003: 0.0005 against the
    /// usual 0.013).
    OracleOutcome oracle() override {
        OracleOutcome out;
        const Model& model = models_[kRpcExponential];
        for (std::size_t i = 0; i < points_.size(); ++i) {
            if (points_[i].model != kRpcExponential) continue;
            const adl::ComposedModel patched = exp::with_exp_rate(
                model.skeleton, "DPM", "send_shutdown", 1.0 / points_[i].value);
            const ctmc::MarkovModel markov = ctmc::build_markov(patched);
            const std::vector<double> pi = ctmc::steady_state(markov.chain);
            bool ok = i < last_.size() && !last_[i].failed();
            double worst = 0.0;
            for (std::size_t m = 0; ok && m < model.loaded.measures.size(); ++m) {
                const double exact =
                    ctmc::evaluate_measure(markov, patched, pi, model.loaded.measures[m]);
                const double hw = last_[i].half_widths.at(m);
                const double distance = std::abs(last_[i].values.at(m) - exact);
                ok = ok && distance <= std::max(4.0 * hw, kSimTolerance * std::abs(exact));
                worst = std::max(worst, hw > 0.0 ? distance / hw : 0.0);
            }
            ++out.checked;
            if (!ok) ++out.mismatches;
            out.notes.push_back(format(
                "rpc exponential, timeout %.3f ms: worst |estimate - CTMC| = %.2f half-widths",
                points_[i].value, worst));
        }
        return out;
    }

private:
    enum Kind : std::size_t { kRpcGeneral = 0, kStreamingGeneral, kRpcExponential, kBattery };
    struct Model {
        SpecText spec;
        Loaded loaded;
        adl::ComposedModel skeleton;
    };
    struct PointSpec {
        Kind model;
        double value;  ///< timeout / awake period (ms) or battery capacity
    };

    /// One sweep point; values are the first three measures (battery:
    /// mean lifetime, its half-width and the censored count).
    exp::PointResult evaluate(const PointSpec& point, const exp::PointContext& context) {
        exp::PointResult result;
        if (point.model == kBattery) {
            battery::BatteryParams params;
            params.kind = battery::BatteryParams::Kind::Kibam;
            params.capacity = point.value;
            battery::ReplayOptions options;
            options.horizon = kBatteryHorizon;
            options.seed = context.seed();
            options.replications = kReplications;
            Span span("battery.replay");
            const battery::LifetimeEstimate estimate = battery::simulate_lifetime(
                *replay_, kRpcEnergyMeasure, params, options, pool_);
            result.values = {estimate.mean, estimate.half_width,
                             static_cast<double>(estimate.censored)};
            return result;
        }
        const Model& model = models_[point.model];
        const adl::ComposedModel patched =
            point.model == kRpcExponential
                ? patch_rate(model.skeleton, "DPM", "send_shutdown", 1.0 / point.value)
            : point.model == kRpcGeneral
                ? patch_delay(model.skeleton, "DPM", "send_shutdown", point.value)
                : patch_delay(model.skeleton, "DPM", "send_wakeup", point.value);
        const auto simulator = [&] {
            Span span("sim.compile");
            return std::make_unique<sim::Simulator>(patched, model.loaded.measures);
        }();
        sim::SimOptions options;
        const bool streaming = point.model == kStreamingGeneral;
        options.horizon = streaming                         ? kStreamingHorizon
                          : point.model == kRpcGeneral ? kRpcGeneralHorizon
                                                       : kRpcExponentialHorizon;
        options.warmup = streaming ? 5'000.0 : 500.0;
        options.seed = context.seed();
        Span span("sim.run");
        const std::vector<sim::Estimate> estimates =
            exp::simulate_replications(*simulator, options, kReplications, 0.95, pool_);
        for (std::size_t m = 0; m < 3; ++m) {
            result.values.push_back(estimates.at(m).mean);
            result.half_widths.push_back(estimates.at(m).half_width);
        }
        return result;
    }

    exp::ThreadPool pool_;
    std::uint64_t seed_;
    Model models_[3];
    std::vector<PointSpec> points_;
    std::unique_ptr<sim::Simulator> replay_;
    std::vector<exp::PointResult> last_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, const Options& options) {
    if (name == "functional") return std::make_unique<Functional>(options);
    if (name == "markov-sweep") return std::make_unique<MarkovSweep>(options);
    if (name == "first-passage") return std::make_unique<FirstPassage>(options);
    if (name == "general-sim") return std::make_unique<GeneralSim>(options);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
