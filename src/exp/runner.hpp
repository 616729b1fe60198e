#pragma once

/// \file runner.hpp
/// Executes an Experiment over a ThreadPool.
///
/// Determinism contract: results are bit-identical for every jobs count.
/// Each point writes into its own index slot, each point's seed is derived
/// from (base_seed, point_index), and each replication's seed from
/// (point seed, replication_index) — the same splitting the serial code
/// paths use — so DPMA_JOBS=1 and DPMA_JOBS=N produce the same bytes.

#include <cstdint>
#include <exception>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/pool.hpp"
#include "exp/report.hpp"
#include "sim/gsmp.hpp"

namespace dpma::exp {

struct RunOptions {
    /// Total concurrency; 0 means DPMA_JOBS / hardware_concurrency (see
    /// default_jobs()).  Ignored when an external pool is supplied.
    std::size_t jobs = 0;
    std::uint64_t base_seed = 1;
    /// Execute on this pool instead of creating one (e.g. to share workers
    /// between experiments).
    ThreadPool* pool = nullptr;
};

/// What a sweep produced: one record per grid point, in grid order.
struct RunOutcome {
    explicit RunOutcome(ResultSet results) : results(std::move(results)) {}

    ResultSet results;
    std::size_t failed = 0;  ///< points whose eval threw (failed records)
    /// The exception of the lowest-index failed point (null when none) —
    /// what run() rethrows for callers without failure handling.
    std::exception_ptr first_error;
};

/// Evaluates every grid point of \p experiment (in parallel when jobs > 1)
/// with per-point failure isolation: a point whose eval throws becomes a
/// failed record (one NaN per measure, the demangled exception type and
/// message in PointResult::error, counter exp.point.failed) and its
/// siblings still run.
[[nodiscard]] RunOutcome run_sweep(const Experiment& experiment,
                                   const RunOptions& options = {});

/// Evaluates every grid point of \p experiment and returns the records in
/// grid order.  Thin wrapper over run_sweep(): when any point failed, it
/// rethrows the lowest-index point's exception once every sibling has run.
[[nodiscard]] ResultSet run(const Experiment& experiment, const RunOptions& options = {});

/// Replication-parallel counterpart of sim::simulate_replications: the same
/// per-replication seeds, samples kept in replication order, so estimates
/// (means, CI half-widths) are bit-identical to the serial function — only
/// wall-clock changes.
[[nodiscard]] std::vector<sim::Estimate> simulate_replications(
    const sim::Simulator& simulator, const sim::SimOptions& options, int replications,
    double confidence, ThreadPool& pool);

/// Replication-parallel counterpart of sim::simulate_depletion: same
/// per-replication seeds (offset 7777, like the serial function), samples in
/// replication order, and the too-short-horizon NumericalError raised for
/// the lowest failing replication index — bit-identical for any pool size.
[[nodiscard]] sim::Estimate simulate_depletion(const sim::Simulator& simulator,
                                               std::size_t measure_index,
                                               double threshold,
                                               const sim::SimOptions& options,
                                               int replications, double confidence,
                                               ThreadPool& pool);

}  // namespace dpma::exp
