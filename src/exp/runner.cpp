#include "exp/runner.hpp"

#include <cxxabi.h>

#include <chrono>
#include <cstdlib>
#include <limits>
#include <string>
#include <typeinfo>
#include <utility>

#include "core/error.hpp"
#include "core/stats_math.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/rng.hpp"

namespace dpma::exp {
namespace {

/// Human-readable "Type: message" for a failure record, demangled so the
/// record says "dpma::NumericalError", not "N4dpma14NumericalErrorE".
std::string describe_exception(const std::exception& e) {
    const char* mangled = typeid(e).name();
    int status = 0;
    char* demangled = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
    std::string name = status == 0 && demangled != nullptr ? demangled : mangled;
    std::free(demangled);
    return name + ": " + e.what();
}

}  // namespace

RunOutcome run_sweep(const Experiment& experiment, const RunOptions& options) {
    DPMA_REQUIRE(static_cast<bool>(experiment.eval),
                 "experiment '" + experiment.name + "' has no eval function");
    DPMA_NAMED_SPAN(span, "exp.run", "exp");
    obs::counter("exp.runs").add();
    // When the caller supplies a pool, the local one stays thread-less.
    ThreadPool local(options.pool != nullptr ? 1 : options.jobs);
    ThreadPool& pool = options.pool != nullptr ? *options.pool : local;

    const std::size_t count = experiment.grid.size();
    std::vector<Point> points(count);
    std::vector<PointResult> results(count);
    std::vector<std::exception_ptr> errors(count);

    static obs::Counter& point_counter = obs::counter("exp.points");
    static obs::Counter& failed_counter = obs::counter("exp.point.failed");
    pool.run(count, [&](std::size_t i) {
        DPMA_NAMED_SPAN(point_span, "exp.point", "exp");
        point_span.arg("index", static_cast<double>(i));
        points[i] = experiment.grid.point(i);
        PointContext context;
        context.base_seed = options.base_seed;
        context.point_index = i;
        context.pool = &pool;

        const auto started = std::chrono::steady_clock::now();
        PointResult result;
        std::string error_text;
        try {
            result = experiment.eval(points[i], context);
        } catch (const std::exception& e) {
            errors[i] = std::current_exception();
            error_text = describe_exception(e);
        } catch (...) {
            errors[i] = std::current_exception();
            error_text = "unknown exception";
        }
        if (errors[i]) {
            // The point is a failure *record*, not a lost sweep: NaN values
            // keep it measure-aligned.
            failed_counter.add();
            result = PointResult{};
            result.values.assign(experiment.measures.size(),
                                 std::numeric_limits<double>::quiet_NaN());
            result.error = std::move(error_text);
        }
        result.elapsed_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
                .count();
        results[i] = std::move(result);
        point_counter.add();
    });
    span.arg("points", static_cast<double>(count));

    RunOutcome outcome(
        ResultSet(experiment.name, experiment.grid.names(), experiment.measures));
    for (std::size_t i = 0; i < count; ++i) {
        if (errors[i]) {
            ++outcome.failed;
            if (!outcome.first_error) outcome.first_error = errors[i];
        }
        outcome.results.add(std::move(points[i]), std::move(results[i]));
    }
    return outcome;
}

ResultSet run(const Experiment& experiment, const RunOptions& options) {
    RunOutcome outcome = run_sweep(experiment, options);
    // A throwing eval surfaces to the caller, but only after every sibling
    // point has run.
    if (outcome.first_error) std::rethrow_exception(outcome.first_error);
    return std::move(outcome.results);
}

namespace {

/// Counts replication batches dispatched over a pool wider than one job.
void note_parallel_replications(const ThreadPool& pool) {
    static obs::Counter& counter = obs::counter("sim.replications.parallel");
    if (pool.jobs() > 1) counter.add();
}

}  // namespace

std::vector<sim::Estimate> simulate_replications(const sim::Simulator& simulator,
                                                 const sim::SimOptions& options,
                                                 int replications, double confidence,
                                                 ThreadPool& pool) {
    DPMA_REQUIRE(replications >= 1, "need at least one replication");
    DPMA_NAMED_SPAN(span, "exp.replications", "exp");
    span.arg("replications", static_cast<double>(replications));
    note_parallel_replications(pool);
    const std::size_t num_measures = simulator.measures().size();
    const auto count = static_cast<std::size_t>(replications);

    std::vector<std::vector<double>> samples(count);
    pool.run(count, [&](std::size_t r) {
        sim::SimOptions rep = options;
        rep.seed = sim::Rng::derive_seed(options.seed, static_cast<std::uint64_t>(r));
        samples[r] = simulator.run(rep).values;
    });

    // Assemble in replication order: the samples vectors, and therefore the
    // means and half-widths, match sim::simulate_replications bit for bit.
    std::vector<sim::Estimate> estimates(num_measures);
    for (std::size_t m = 0; m < num_measures; ++m) {
        estimates[m].samples.reserve(count);
        for (std::size_t r = 0; r < count; ++r) {
            estimates[m].samples.push_back(samples[r][m]);
        }
        estimates[m].mean = mean_of(estimates[m].samples);
        estimates[m].half_width = confidence_half_width(estimates[m].samples, confidence);
    }
    return estimates;
}

sim::Estimate simulate_depletion(const sim::Simulator& simulator,
                                 std::size_t measure_index, double threshold,
                                 const sim::SimOptions& options, int replications,
                                 double confidence, ThreadPool& pool) {
    DPMA_REQUIRE(replications >= 1, "need at least one replication");
    DPMA_NAMED_SPAN(span, "exp.depletions", "exp");
    span.arg("replications", static_cast<double>(replications));
    note_parallel_replications(pool);
    const auto count = static_cast<std::size_t>(replications);

    std::vector<double> times(count, 0.0);
    std::vector<char> depleted(count, 0);
    pool.run(count, [&](std::size_t r) {
        sim::SimOptions rep = options;
        rep.seed = sim::Rng::derive_seed(options.seed,
                                         static_cast<std::uint64_t>(r) + 7777);
        const sim::DepletionResult result =
            simulator.run_until(measure_index, threshold, rep);
        times[r] = result.time;
        depleted[r] = result.depleted ? 1 : 0;
    });
    // Check in replication order so the error (if any) names the same run
    // the serial loop would have stopped at.
    for (std::size_t r = 0; r < count; ++r) {
        if (!depleted[r]) {
            throw NumericalError(
                "depletion horizon too short: threshold not reached; raise "
                "SimOptions::horizon");
        }
    }

    sim::Estimate estimate;
    estimate.samples = std::move(times);
    estimate.mean = mean_of(estimate.samples);
    estimate.half_width = confidence_half_width(estimate.samples, confidence);
    return estimate;
}

}  // namespace dpma::exp
