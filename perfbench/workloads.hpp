#pragma once

/// \file workloads.hpp
/// The four workloads of the methodology benchmark, one per way a DPM
/// designer waits on the toolchain:
///
///  * functional    — parse → lint → compose → noninterference check, serial;
///  * markov-sweep  — exponential-rate sweeps through exp::run_sweep (patch,
///                    build_markov, steady_state, evaluate_measure per point);
///  * first-passage — expected hitting times to AP-buffer overflow plus
///                    transient power profiles, serial;
///  * general-sim   — replicated GSMP simulation sweeps (clocked scheduler,
///                    Markov fast path, KiBaM battery replay) over the pool.
///
/// A workload's unit of work is a *cycle*: every input once, or every sweep
/// point once.  Cycles repeat identically (the seed fixes every value), so a
/// run of any length measures the same mix of results.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dpma::ctmc {
struct SolveDiagnostics;
}

namespace perfbench {

struct Options {
    std::string root;         ///< repository checkout holding specs/ and perfbench/
    std::uint64_t seed = 1;
    std::size_t jobs = 1;     ///< pool size for the parallel workloads
};

/// What one cycle produced: one latency per result, and how many failed
/// (exception, wrong verdict, censored replication).
struct CycleOutcome {
    std::vector<double> latencies_ms;
    std::size_t failed = 0;
};

/// Independent re-check of a subsample of results, run after the timed
/// phase.  Every mismatch counts as one failed result.
struct OracleOutcome {
    std::size_t checked = 0;
    std::size_t mismatches = 0;
    std::vector<std::string> notes;  ///< one line per check, printed
};

/// Solver diagnostics aggregated over every steady-state solve.
struct SolveStats {
    std::size_t solves = 0;
    std::size_t gth = 0;
    std::size_t iterative = 0;
    double iterations = 0.0;
    double max_residual = 0.0;
};

class Workload {
public:
    virtual ~Workload() = default;

    /// Parse, lint (asserting clean input), flow analysis, compose, and
    /// skeleton / simulator construction.  Re-runnable: each call frees the
    /// state the timed cycles use, then rebuilds it, so repeated set-ups
    /// between cycles never hold two copies.
    virtual void setup() = 0;
    /// Seed-independent structural counts, "key=value" separated by spaces.
    [[nodiscard]] virtual std::string structure() const = 0;
    virtual CycleOutcome cycle() = 0;
    virtual OracleOutcome oracle() = 0;

    /// Threads the workload computes on.
    [[nodiscard]] std::size_t jobs() const noexcept { return jobs_; }
    /// Sweep points evaluated at once (the runner's concurrency).
    [[nodiscard]] std::size_t sweep_jobs() const noexcept { return sweep_jobs_; }

    /// Running totals for the per-layer table; reset at the start of a phase.
    void reset_stats();
    [[nodiscard]] SolveStats solve_stats() const;
    /// Sum of sweep-point evaluation times (exp::PointResult::elapsed_s).
    [[nodiscard]] double busy_seconds() const;

protected:
    Workload(std::size_t jobs, std::size_t sweep_jobs) : jobs_(jobs), sweep_jobs_(sweep_jobs) {}
    void record_solve(const dpma::ctmc::SolveDiagnostics& diagnostics);
    void record_busy(double seconds);

private:
    std::size_t jobs_;
    std::size_t sweep_jobs_;
    mutable std::mutex mutex_;
    SolveStats solve_stats_;  // guarded by mutex_
    double busy_s_ = 0.0;     // guarded by mutex_
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const Options& options);

}  // namespace perfbench
