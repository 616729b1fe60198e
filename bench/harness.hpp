#pragma once

/// \file harness.hpp
/// Shared plumbing for the figure-reproduction benches: each paper figure
/// has one binary that sweeps the DPM operation rate and prints the series
/// the paper plots.  Absolute numbers differ from the paper's testbed; the
/// *shapes* (who wins, by what factor, where crossovers fall) are the
/// reproduction target — see EXPERIMENTS.md.
///
/// The sweeps themselves run on the experiment engine (src/exp): the
/// *_experiment() builders below describe each figure's parameter grid
/// declaratively; exp::run() executes the points over a thread pool
/// (DPMA_JOBS) and figure_cache() amortises model composition across the
/// sweep — rate points patch a cached skeleton instead of re-exploring the
/// state space.  The single-point functions (rpc_markov_point, ...) and the
/// experiments' evaluations share one path: the cached skeleton of the spec
/// variant (with or without the DPM), retimed per point with exp::with_delay
/// and, for the Markov models, solved by exp::solve_point.

#include <memory>
#include <string>
#include <vector>

#include "exp/cache.hpp"
#include "exp/experiment.hpp"
#include "exp/pool.hpp"
#include "exp/report.hpp"
#include "obs/run_report.hpp"

namespace dpma::bench {

/// Scale factor for simulation effort, from DPMA_BENCH_SCALE (default 1.0).
/// CI environments can pass 0.2 for quick smoke runs; 5 gives tighter CIs.
/// Values that do not parse completely as a number > 0 are rejected with a
/// stderr warning and fall back to 1.0.
[[nodiscard]] double effort_scale();

/// Simple fixed-width table printer (markdown-ish, one row per sweep point).
class Table {
public:
    Table(std::string title, std::vector<std::string> columns);

    void add_row(const std::vector<double>& values);
    void print() const;

private:
    std::string title_;
    std::vector<std::string> columns_;
    std::vector<std::vector<double>> rows_;
};

/// ResultSet -> Table sink: params then measures as columns, one row per
/// sweep point (the bench_fig* binaries compose fancier tables by hand, but
/// any engine result can be dumped this way).
[[nodiscard]] Table table_from(const exp::ResultSet& results);

/// Process-wide model cache shared by the figure benches: one composed
/// skeleton per spec variant, nothing per sweep point.  Hit/miss numbers
/// for reporting come from exp::ModelCache::global_stats() — the same
/// registry counters dpma_cli --metrics dumps.
[[nodiscard]] exp::ModelCache& figure_cache();

/// RAII instrumentation session for a bench main(): enables tracing on
/// construction and, on destruction, prints the per-phase breakdown (span
/// name, count, total/mean time from obs::span_summary()) followed by the
/// metrics registry.  Set DPMA_BENCH_BREAKDOWN=0 to silence it (and skip
/// the tracing overhead).
///
/// When constructed with a tool name it additionally writes an
/// obs::RunReport (run record: provenance, resources, metrics, spans, and
/// every ResultSet handed to record()) to obs::report_path(tool) on
/// destruction — "BENCH_<tool>.json" by default, DPMA_REPORT to move or
/// disable it.  Record-writing is independent of DPMA_BENCH_BREAKDOWN.
class ScopedObservation {
public:
    ScopedObservation();
    /// \p argc/\p argv, when given, are stored in the record verbatim.
    explicit ScopedObservation(std::string tool, int argc = 0,
                               const char* const* argv = nullptr);
    ~ScopedObservation();

    ScopedObservation(const ScopedObservation&) = delete;
    ScopedObservation& operator=(const ScopedObservation&) = delete;

    /// Adds \p results as one series of the run record (no-op without a
    /// tool name).
    void record(const exp::ResultSet& results);

private:
    bool enabled_ = false;
    // Set by the tool-name ctor only; the RunReport's wall clock starts with
    // the bench, so the record's wall_s covers the whole main().
    std::string report_file_;
    std::unique_ptr<obs::RunReport> report_;
};

/// One point of the rpc performance comparison (Fig. 3): derived per-request
/// quantities as plotted by the paper.
struct RpcPoint {
    double throughput = 0.0;        ///< requests per msec
    double waiting_per_request = 0.0;  ///< msec (Little's law on P(waiting))
    double energy_per_request = 0.0;   ///< reward units
    double energy_rate = 0.0;          ///< reward units per msec
    // Simulation only: 90% CI half-widths (0 for the analytic solver).
    double throughput_hw = 0.0;
    double energy_rate_hw = 0.0;
};

/// Derives the paper's per-request quantities from the raw measure values
/// (in the order of specs/rpc_measures.msr); half_widths may be empty.
[[nodiscard]] RpcPoint rpc_point_from(const std::vector<double>& values,
                                      const std::vector<double>& half_widths);

[[nodiscard]] RpcPoint rpc_markov_point(double shutdown_timeout, bool dpm);
/// \p pool (optional) parallelises the replications (bit-identical results).
[[nodiscard]] RpcPoint rpc_general_point(double shutdown_timeout, bool dpm,
                                         int replications, double horizon,
                                         std::uint64_t seed,
                                         exp::ThreadPool* pool = nullptr);
/// Fig. 5 validation: the general model with *exponential* distributions
/// substituted back in, simulated (30 runs, 90% CI in the paper).
[[nodiscard]] RpcPoint rpc_general_exp_point(double shutdown_timeout, bool dpm,
                                             int replications, double horizon,
                                             std::uint64_t seed,
                                             exp::ThreadPool* pool = nullptr);

/// One point of the streaming comparison (Fig. 4 / Fig. 6): the paper's four
/// derived metrics.
struct StreamingPoint {
    double energy_per_frame = 0.0;
    double loss = 0.0;     ///< buffer-full drops / generated frames
    double miss = 0.0;     ///< real-time violations / frame fetches
    double quality = 0.0;  ///< in-time deliveries / frame fetches
    double energy_per_frame_hw = 0.0;
};

/// Derives the four metrics from the raw measure values (in the order of
/// specs/streaming_measures.msr); half_widths may be empty.
[[nodiscard]] StreamingPoint streaming_point_from(const std::vector<double>& values,
                                                  const std::vector<double>& half_widths);

[[nodiscard]] StreamingPoint streaming_markov_point(double awake_period, bool dpm);
/// \p pool (optional) parallelises the replications (bit-identical results).
[[nodiscard]] StreamingPoint streaming_general_point(double awake_period, bool dpm,
                                                     int replications, double horizon,
                                                     std::uint64_t seed,
                                                     exp::ThreadPool* pool = nullptr);

// Engine-based figure sweeps.  Each experiment's measures are the raw
// measure names of the model family (specs/rpc_measures.msr /
// specs/streaming_measures.msr); use rpc_point_from / streaming_point_from
// on a record's values to recover the plotted quantities.  All of them
// cache the composed spec in figure_cache() and retime the swept DPM action
// per point (exp::with_delay; timeout <= 0 makes it immediate).  The
// analytic ones carry the solver's diagnostics (ctmc::SolveDiagnostics) on
// every point.

/// Fig. 3 left: analytic sweep of the Markovian rpc model over axis
/// "timeout_ms".
[[nodiscard]] exp::Experiment rpc_markov_experiment(std::vector<double> timeouts,
                                                    bool dpm);

/// Fig. 3 right: simulated sweep of the general rpc model over axis
/// "timeout_ms"; per-point seeds come from the runner's (base_seed,
/// point_index) split and replications fan out on the sweep's pool.
[[nodiscard]] exp::Experiment rpc_general_experiment(std::vector<double> timeouts,
                                                     bool dpm, int replications,
                                                     double horizon);

/// Fig. 4: analytic sweep of the Markovian streaming model over axis
/// "awake_ms".
[[nodiscard]] exp::Experiment streaming_markov_experiment(std::vector<double> periods,
                                                          bool dpm);

/// Fig. 6: simulated sweep of the general streaming model over axis
/// "awake_ms".  Measures are the four derived metrics of StreamingPoint
/// (energy_per_frame with its CI half-width, then loss/miss/quality); the
/// per-point seed is pinned to 4200 + period so the printed figures match
/// the historical hand-rolled sweep.  Replications fan out on the sweep's
/// pool.
[[nodiscard]] exp::Experiment streaming_general_experiment(std::vector<double> periods,
                                                           bool dpm, int replications,
                                                           double horizon);

}  // namespace dpma::bench
