#include "exp/pool.hpp"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <exception>

#include "obs/log.hpp"

namespace dpma::exp {
namespace {

bool only_trailing_space(const char* rest) {
    while (*rest != '\0') {
        if (std::isspace(static_cast<unsigned char>(*rest)) == 0) return false;
        ++rest;
    }
    return true;
}

}  // namespace

std::size_t default_jobs() {
    const unsigned hardware = std::thread::hardware_concurrency();
    const std::size_t fallback = hardware == 0 ? 1 : hardware;
    const char* env = std::getenv("DPMA_JOBS");
    if (env == nullptr) return fallback;
    errno = 0;
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (errno != 0 || end == env || !only_trailing_space(end) || value < 1) {
        obs::logf(obs::LogLevel::Warn,
                  "ignoring DPMA_JOBS='%s' (want a positive integer); using %zu",
                  env, fallback);
        return fallback;
    }
    return static_cast<std::size_t>(value);
}

double env_positive_double(const char* name, double fallback) {
    const char* env = std::getenv(name);
    if (env == nullptr) return fallback;
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(env, &end);
    if (errno != 0 || end == env || !only_trailing_space(end) || !(value > 0.0)) {
        obs::logf(obs::LogLevel::Warn, "ignoring %s='%s' (want a number > 0); using %g",
                  name, env, fallback);
        return fallback;
    }
    return value;
}

/// Shared state of one run() call.  Indices are claimed from `next`; `done`
/// counts completed ones so the submitting thread knows when to wake up.
struct ThreadPool::Batch {
    std::size_t count = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> cancelled{false};
    std::mutex mutex;
    std::condition_variable finished;
    std::exception_ptr error;  // guarded by mutex
};

ThreadPool::ThreadPool(std::size_t jobs) : jobs_(jobs == 0 ? default_jobs() : jobs) {
    for (std::size_t i = 1; i < jobs_; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_available_.notify_all();
    for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::execute(Batch& batch) {
    for (;;) {
        const std::size_t index = batch.next.fetch_add(1, std::memory_order_relaxed);
        if (index >= batch.count) return;
        if (!batch.cancelled.load(std::memory_order_relaxed)) {
            try {
                (*batch.body)(index);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(batch.mutex);
                if (!batch.error) batch.error = std::current_exception();
                batch.cancelled.store(true, std::memory_order_relaxed);
            }
        }
        if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 == batch.count) {
            const std::lock_guard<std::mutex> lock(batch.mutex);
            batch.finished.notify_all();
        }
    }
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::shared_ptr<Batch> batch;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (stopping_ && queue_.empty()) return;
            batch = queue_.front();
        }
        execute(*batch);
        {
            // The batch is exhausted (every index claimed); retire it.
            const std::lock_guard<std::mutex> lock(mutex_);
            if (!queue_.empty() && queue_.front() == batch) queue_.pop_front();
        }
    }
}

void ThreadPool::run(std::size_t count, const std::function<void(std::size_t)>& body) {
    if (count == 0) return;
    const auto batch = std::make_shared<Batch>();
    batch->count = count;
    batch->body = &body;
    if (!workers_.empty() && count > 1) {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            queue_.push_back(batch);
        }
        work_available_.notify_all();
    }
    execute(*batch);  // the caller works too — this is what makes run() reentrant
    {
        std::unique_lock<std::mutex> lock(batch->mutex);
        batch->finished.wait(lock, [&] {
            return batch->done.load(std::memory_order_acquire) == batch->count;
        });
    }
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (*it == batch) {
                queue_.erase(it);
                break;
            }
        }
    }
    if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace dpma::exp
