#include "bench/harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "core/error.hpp"
#include "core/text.hpp"
#include "core/stats_math.hpp"
#include "exp/pool.hpp"
#include "exp/runner.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/batch_means.hpp"
#include "sim/gsmp.hpp"

namespace dpma::bench {
namespace {

/// The shipped specs of the two paper case studies and the DPM action each
/// figure sweeps (the rpc shutdown timeout, the streaming awake period).
struct Family {
    const char* markov_spec;
    const char* general_spec;
    const char* swept_action;
};
constexpr Family kRpc{"rpc_revised_markov.aem", "rpc_general.aem", "send_shutdown"};
constexpr Family kStreaming{"streaming_markov.aem", "streaming_general.aem", "send_wakeup"};

const std::vector<adl::Measure>& rpc_measures() {
    static const std::vector<adl::Measure> measures = models::measures("rpc_measures.msr");
    return measures;
}

const std::vector<adl::Measure>& streaming_measures() {
    static const std::vector<adl::Measure> measures =
        models::measures("streaming_measures.msr");
    return measures;
}

/// Positions in rpc_measures(), looked up by name once.
struct RpcIndex {
    std::size_t throughput = models::measure_index(rpc_measures(), "throughput");
    std::size_t waiting = models::measure_index(rpc_measures(), "waiting");
    std::size_t energy = models::measure_index(rpc_measures(), "energy");
};

/// Positions in streaming_measures(), looked up by name once.
struct StreamingIndex {
    std::size_t energy = models::measure_index(streaming_measures(), "nic_energy");
    std::size_t frames = models::measure_index(streaming_measures(), "frames_received");
    std::size_t ap_loss = models::measure_index(streaming_measures(), "ap_loss");
    std::size_t b_loss = models::measure_index(streaming_measures(), "b_loss");
    std::size_t miss = models::measure_index(streaming_measures(), "miss");
    std::size_t hits = models::measure_index(streaming_measures(), "hits");
    std::size_t generated = models::measure_index(streaming_measures(), "generated");
};

/// Replaces every exponential rate of the composed graph by an explicitly
/// general exponential distribution: the Fig. 5 cross-validation runs the
/// *simulator* on a distribution-for-distribution copy of the Markov model.
void exponentialize(adl::ComposedModel& model) {
    model.graph.mutate_rates([](lts::ActionId, lts::Rate& rate) {
        if (const auto* exp_rate = std::get_if<lts::RateExp>(&rate)) {
            rate = lts::RateGeneral{Dist::exponential(exp_rate->rate)};
        }
    });
}

struct SimulatedValues {
    std::vector<double> means;
    std::vector<double> half_widths;
};

SimulatedValues simulate_measures(const adl::ComposedModel& model,
                                  const std::vector<adl::Measure>& measures,
                                  int replications, double warmup, double horizon,
                                  std::uint64_t seed,
                                  exp::ThreadPool* pool = nullptr) {
    const sim::Simulator simulator(model, measures);
    sim::SimOptions options;
    options.warmup = warmup;
    options.horizon = horizon * effort_scale();
    options.seed = seed;
    const auto estimates =
        pool != nullptr
            ? exp::simulate_replications(simulator, options, replications, 0.90, *pool)
            : sim::simulate_replications(simulator, options, replications, 0.90);
    SimulatedValues out;
    for (const sim::Estimate& e : estimates) {
        out.means.push_back(e.mean);
        out.half_widths.push_back(e.half_width);
    }
    return out;
}

std::vector<std::string> measure_names(const std::vector<adl::Measure>& measures) {
    std::vector<std::string> names;
    names.reserve(measures.size());
    for (const adl::Measure& m : measures) names.push_back(m.name);
    return names;
}

/// Convergence record of a replication-based estimate, in the same shape as
/// a batch-means trajectory: entry k of the half-width trajectory uses the
/// first k+2 replications only.  Lag-1 autocorrelation stays 0 — the
/// replications are independent by construction.
std::vector<sim::BatchEstimate> replication_convergence(
    const std::vector<sim::Estimate>& estimates, double confidence) {
    std::vector<sim::BatchEstimate> convergence(estimates.size());
    for (std::size_t m = 0; m < estimates.size(); ++m) {
        const std::vector<double>& samples = estimates[m].samples;
        convergence[m].mean = estimates[m].mean;
        convergence[m].half_width = estimates[m].half_width;
        for (std::size_t k = 2; k <= samples.size(); ++k) {
            const std::vector<double> prefix(
                samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k));
            convergence[m].cumulative_half_widths.push_back(
                confidence_half_width(prefix, confidence));
        }
    }
    return convergence;
}

/// Composed model for one sweep point.  figure_cache() holds one skeleton
/// per spec variant: the spec as shipped, which each call retimes to
/// \p delay (exp::with_delay, immediate when <= 0), and the spec without the
/// DPM's commands, which ignores the delay and is returned as is.
std::shared_ptr<const adl::ComposedModel> point_model(const char* spec,
                                                      const char* action, bool dpm,
                                                      double delay) {
    if (!dpm) {
        return figure_cache().composed(std::string(spec) + "/nodpm", [&] {
            return adl::compose(models::without_dpm(models::archi(spec)));
        });
    }
    const auto skeleton = figure_cache().composed(
        spec, [&] { return adl::compose(models::archi(spec)); });
    return std::make_shared<const adl::ComposedModel>(
        exp::with_delay(*skeleton, models::kDpm, action, delay));
}

/// The analytic point of every Markov figure: the retimed skeleton, solved by
/// exp::solve_point.
exp::PointResult markov_point(const Family& family,
                              const std::vector<adl::Measure>& measures, bool dpm,
                              double delay) {
    return exp::solve_point(
        *point_model(family.markov_spec, family.swept_action, dpm, delay), measures);
}

}  // namespace

double effort_scale() { return exp::env_positive_double("DPMA_BENCH_SCALE", 1.0); }

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void Table::add_row(const std::vector<double>& values) { rows_.push_back(values); }

void Table::print() const {
    std::printf("\n### %s\n", title_.c_str());
    std::vector<int> widths;
    widths.reserve(columns_.size());
    for (const std::string& c : columns_) {
        widths.push_back(std::max(14, static_cast<int>(c.size()) + 2));
    }
    for (std::size_t i = 0; i < columns_.size(); ++i) {
        std::printf("%*s", widths[i], columns_[i].c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            const int width = i < widths.size() ? widths[i] : 14;
            std::printf("%*s", width, format_fixed(row[i], 6).c_str());
        }
        std::printf("\n");
    }
    std::fflush(stdout);
}

Table table_from(const exp::ResultSet& results) {
    std::vector<std::string> columns = results.params();
    for (const std::string& m : results.measures()) columns.push_back(m);
    Table table(results.name(), std::move(columns));
    for (std::size_t i = 0; i < results.size(); ++i) {
        const exp::PointRecord& record = results.at(i);
        std::vector<double> row;
        for (const auto& [axis, value] : record.point.coords) {
            (void)axis;
            row.push_back(value);
        }
        for (const double v : record.result.values) row.push_back(v);
        table.add_row(row);
    }
    return table;
}

exp::ModelCache& figure_cache() {
    static exp::ModelCache cache;
    return cache;
}

ScopedObservation::ScopedObservation() {
    const char* env = std::getenv("DPMA_BENCH_BREAKDOWN");
    enabled_ = env == nullptr || std::string_view(env) != "0";
    if (!enabled_) return;
    obs::clear_trace();
    obs::set_tracing(true);
}

ScopedObservation::ScopedObservation(std::string tool, int argc,
                                     const char* const* argv)
    : ScopedObservation() {
    report_file_ = obs::report_path(tool);
    if (report_file_.empty()) return;  // DPMA_REPORT=0
    report_ = std::make_unique<obs::RunReport>(std::move(tool));
    if (argc > 0 && argv != nullptr) {
        report_->set_args(std::vector<std::string>(argv, argv + argc));
    }
}

void ScopedObservation::record(const exp::ResultSet& results) {
    if (report_ == nullptr) return;
    report_->add_series(results.json());
}

ScopedObservation::~ScopedObservation() {
    if (report_ != nullptr) {
        // Before the breakdown turns tracing off: the record's span summary
        // and metrics snapshot should match what gets printed below.
        try {
            report_->write(report_file_);
            std::fprintf(stderr, "run record: %s\n", report_file_.c_str());
        } catch (const Error& e) {
            std::fprintf(stderr, "run record failed: %s\n", e.what());
        }
    }
    if (!enabled_) return;
    obs::set_tracing(false);
    std::printf("\n### instrumentation breakdown\n");
    std::printf("%-28s %10s %14s %14s\n", "span", "count", "total_ms", "mean_us");
    for (const obs::SpanStats& s : obs::span_summary()) {
        std::printf("%-28s %10llu %14.3f %14.1f\n", s.name.c_str(),
                    static_cast<unsigned long long>(s.count), s.total_us / 1000.0,
                    s.count == 0 ? 0.0 : s.total_us / static_cast<double>(s.count));
    }
    std::printf("\nmetrics:\n");
    const std::string metrics = obs::metrics_text();
    std::string_view remaining = metrics;
    while (!remaining.empty()) {
        const std::size_t eol = remaining.find('\n');
        const std::string_view line = remaining.substr(0, eol);
        std::printf("  %.*s\n", static_cast<int>(line.size()), line.data());
        if (eol == std::string_view::npos) break;
        remaining.remove_prefix(eol + 1);
    }
    std::fflush(stdout);
}

RpcPoint rpc_point_from(const std::vector<double>& values,
                        const std::vector<double>& half_widths) {
    static const RpcIndex at;
    RpcPoint point;
    point.throughput = values[at.throughput];
    point.energy_rate = values[at.energy];
    if (point.throughput > 0.0) {
        point.waiting_per_request = values[at.waiting] / point.throughput;
        point.energy_per_request = point.energy_rate / point.throughput;
    }
    if (!half_widths.empty()) {
        point.throughput_hw = half_widths[at.throughput];
        point.energy_rate_hw = half_widths[at.energy];
    }
    return point;
}

StreamingPoint streaming_point_from(const std::vector<double>& values,
                                    const std::vector<double>& half_widths) {
    static const StreamingIndex at;
    StreamingPoint point;
    const double fetches = values[at.miss] + values[at.hits];
    if (values[at.frames] > 0.0) {
        point.energy_per_frame = values[at.energy] / values[at.frames];
        if (!half_widths.empty()) {
            point.energy_per_frame_hw = half_widths[at.energy] / values[at.frames];
        }
    }
    if (values[at.generated] > 0.0) {
        point.loss = (values[at.ap_loss] + values[at.b_loss]) / values[at.generated];
    }
    if (fetches > 0.0) {
        point.miss = values[at.miss] / fetches;
        point.quality = values[at.hits] / fetches;
    }
    return point;
}

RpcPoint rpc_markov_point(double shutdown_timeout, bool dpm) {
    return rpc_point_from(markov_point(kRpc, rpc_measures(), dpm, shutdown_timeout).values,
                          {});
}

RpcPoint rpc_general_point(double shutdown_timeout, bool dpm, int replications,
                           double horizon, std::uint64_t seed, exp::ThreadPool* pool) {
    const auto model =
        point_model(kRpc.general_spec, kRpc.swept_action, dpm, shutdown_timeout);
    const SimulatedValues sim = simulate_measures(*model, rpc_measures(), replications,
                                                  500.0, horizon, seed, pool);
    return rpc_point_from(sim.means, sim.half_widths);
}

RpcPoint rpc_general_exp_point(double shutdown_timeout, bool dpm, int replications,
                               double horizon, std::uint64_t seed,
                               exp::ThreadPool* pool) {
    adl::ComposedModel model =
        *point_model(kRpc.markov_spec, kRpc.swept_action, dpm, shutdown_timeout);
    exponentialize(model);
    const SimulatedValues sim = simulate_measures(model, rpc_measures(), replications,
                                                  500.0, horizon, seed, pool);
    return rpc_point_from(sim.means, sim.half_widths);
}

StreamingPoint streaming_markov_point(double awake_period, bool dpm) {
    return streaming_point_from(
        markov_point(kStreaming, streaming_measures(), dpm, awake_period).values, {});
}

StreamingPoint streaming_general_point(double awake_period, bool dpm, int replications,
                                       double horizon, std::uint64_t seed,
                                       exp::ThreadPool* pool) {
    const auto model = point_model(kStreaming.general_spec, kStreaming.swept_action, dpm,
                                   awake_period);
    const SimulatedValues sim = simulate_measures(*model, streaming_measures(),
                                                  replications, 3000.0, horizon, seed,
                                                  pool);
    return streaming_point_from(sim.means, sim.half_widths);
}

exp::Experiment rpc_markov_experiment(std::vector<double> timeouts, bool dpm) {
    exp::Experiment experiment;
    experiment.name = dpm ? "fig3_rpc_markov_dpm" : "fig3_rpc_markov_nodpm";
    experiment.grid.axis(exp::Axis::list("timeout_ms", std::move(timeouts)));
    experiment.measures = measure_names(rpc_measures());
    experiment.eval = [dpm](const exp::Point& point, const exp::PointContext&) {
        return markov_point(kRpc, rpc_measures(), dpm, point.at("timeout_ms"));
    };
    return experiment;
}

exp::Experiment rpc_general_experiment(std::vector<double> timeouts, bool dpm,
                                       int replications, double horizon) {
    exp::Experiment experiment;
    experiment.name = dpm ? "fig3_rpc_general_dpm" : "fig3_rpc_general_nodpm";
    experiment.grid.axis(exp::Axis::list("timeout_ms", std::move(timeouts)));
    experiment.measures = measure_names(rpc_measures());
    experiment.eval = [dpm, replications, horizon](const exp::Point& point,
                                                   const exp::PointContext& context) {
        const double timeout = point.at("timeout_ms");
        const auto model =
            point_model(kRpc.general_spec, kRpc.swept_action, dpm, timeout);
        const sim::Simulator simulator(*model, rpc_measures());
        sim::SimOptions options;
        options.warmup = 500.0;
        options.horizon = horizon * effort_scale();
        options.seed = context.seed();
        const auto estimates = exp::simulate_replications(simulator, options,
                                                          replications, 0.90,
                                                          *context.pool);
        exp::PointResult result;
        for (const sim::Estimate& e : estimates) {
            result.values.push_back(e.mean);
            result.half_widths.push_back(e.half_width);
        }
        result.diagnostics =
            sim::convergence_json(replication_convergence(estimates, 0.90),
                                  measure_names(rpc_measures()));
        return result;
    };
    return experiment;
}

exp::Experiment streaming_general_experiment(std::vector<double> periods, bool dpm,
                                             int replications, double horizon) {
    exp::Experiment experiment;
    experiment.name =
        dpm ? "fig6_streaming_general_dpm" : "fig6_streaming_general_nodpm";
    experiment.grid.axis(exp::Axis::list("awake_ms", std::move(periods)));
    experiment.measures = {"energy_per_frame", "loss", "miss", "quality"};
    experiment.eval = [dpm, replications, horizon](const exp::Point& point,
                                                   const exp::PointContext& context) {
        const double period = point.at("awake_ms");
        const StreamingPoint sp = streaming_general_point(
            period, dpm, replications, horizon,
            4200 + static_cast<std::uint64_t>(period), context.pool);
        exp::PointResult result;
        result.values = {sp.energy_per_frame, sp.loss, sp.miss, sp.quality};
        result.half_widths = {sp.energy_per_frame_hw, 0.0, 0.0, 0.0};
        return result;
    };
    return experiment;
}

exp::Experiment streaming_markov_experiment(std::vector<double> periods, bool dpm) {
    exp::Experiment experiment;
    experiment.name = dpm ? "fig4_streaming_markov_dpm" : "fig4_streaming_markov_nodpm";
    experiment.grid.axis(exp::Axis::list("awake_ms", std::move(periods)));
    experiment.measures = measure_names(streaming_measures());
    experiment.eval = [dpm](const exp::Point& point, const exp::PointContext&) {
        return markov_point(kStreaming, streaming_measures(), dpm, point.at("awake_ms"));
    };
    return experiment;
}

}  // namespace dpma::bench
