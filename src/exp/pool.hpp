#pragma once

/// \file pool.hpp
/// Fixed-size worker pool for the experiment engine.
///
/// The pool executes *indexed batches*: run(count, body) calls body(i) for
/// every i in [0, count) exactly once, distributing indices over the workers
/// and the calling thread.  Because the caller participates, a job may itself
/// call run() on the same pool (sweep points fanning out into simulation
/// replications) without risking deadlock: the inner call makes progress on
/// the caller's own thread even when every worker is busy.
///
/// Determinism is the pool's contract with the rest of the engine: the pool
/// only decides *who* executes an index, never *what* the index computes.  As
/// long as body(i) writes results into slot i of a caller-owned container and
/// derives any randomness from i (see sim::Rng::derive_seed), results are
/// bit-identical for every pool size, including the degenerate single-thread
/// pool that runs everything in the caller.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dpma::exp {

/// Number of parallel jobs from the environment: DPMA_JOBS when it parses as
/// a positive integer (invalid values earn an obs::log warning and are
/// ignored), otherwise std::thread::hardware_concurrency(), at least 1.
[[nodiscard]] std::size_t default_jobs();

/// Strictly positive double from the environment variable \p name.  Returns
/// \p fallback — with an obs::log warning — when the variable is set but does
/// not parse completely as a number > 0.  Used for DPMA_BENCH_SCALE.
[[nodiscard]] double env_positive_double(const char* name, double fallback);

class ThreadPool {
public:
    /// \p jobs is the total concurrency including the calling thread, so
    /// jobs <= 1 spawns no workers at all and run() degrades to a plain
    /// in-caller loop.  jobs == 0 means default_jobs().
    explicit ThreadPool(std::size_t jobs = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] std::size_t jobs() const noexcept { return jobs_; }

    /// Executes body(0) .. body(count - 1), each exactly once, and blocks
    /// until all have finished.  The first exception thrown by a job cancels
    /// the indices not yet claimed and is rethrown here once the batch has
    /// drained.  Reentrant: body may call run() on this pool.
    void run(std::size_t count, const std::function<void(std::size_t)>& body);

private:
    struct Batch;

    void worker_loop();
    static void execute(Batch& batch);

    std::size_t jobs_;
    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable work_available_;
    std::deque<std::shared_ptr<Batch>> queue_;
    bool stopping_ = false;
};

}  // namespace dpma::exp
