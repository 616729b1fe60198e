/// \file main.cpp
/// The methodology benchmark's entry point.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--root <checkout>] [--trace-out <file.json>]
///
/// Untraced (--trace 0) it prints the end-to-end metrics; traced (--trace 1)
/// the per-layer ones, from the benchmark's own spans around every call into
/// a layer plus the library's metric registry.  The last line of standard
/// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
/// perfbench/run.py builds this binary and forwards its arguments.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

/// In the second half of its window, an untraced run repeats the set-up
/// between cycles whenever the repeated set-ups took less than this share of
/// the second half's cycle time.  It repeats them in rounds, one set-up on
/// each allowed CPU; setup_s is the median of the rounds' mean set-up time.
/// One set-up takes 20-100 ms, so set-ups done together would measure the
/// machine at one moment; spread over the window like the cycles, they see
/// the same drift.  Set-ups on one CPU or another took 60 or 90 ms on
/// markov-sweep, so the median of single set-ups jumped between the two.
/// peak_rss_mb is read at half-time, before the first repeat: freeing and
/// rebuilding a set-up between cycles leaves the heap in one of several
/// shapes, which moved markov-sweep's high-water mark by up to 10%.
constexpr double kSetupShare = 0.25;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string root = ".";
    std::string trace_out;
};

Args parse_args(int argc, char** argv) {
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") throw std::invalid_argument("--trace is 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--root") {
            args.root = value;
        } else if (flag == "--trace-out") {
            args.trace_out = value;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
        if (end != nullptr && *end != '\0') {
            throw std::invalid_argument("malformed number for " + flag + ": " + value);
        }
    }
    if (!have_workload) throw std::invalid_argument("--workload is required");
    return args;
}

/// Removes every DPMA_* variable (jobs, effort, fault injection, telemetry,
/// report and log sinks) so nothing ambient changes what runs.
std::vector<std::string> neutralise_environment() {
    std::vector<std::string> names;
    for (char** env = environ; *env != nullptr; ++env) {
        const std::string entry = *env;
        if (entry.rfind("DPMA_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string& name : names) unsetenv(name.c_str());
    return names;
}

struct Usage {
    double cpu_s;
    double minor_faults;
};

Usage usage() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return {static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6,
            static_cast<double>(usage.ru_minflt)};
}

/// Median of a non-empty sample.
double median(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Counters of the library's metric registry that the per-layer table reads.
const char* const kCounters[] = {
    "compose.calls", "compose.states", "compose.transitions", "ctmc.builds",
    "ctmc.tangible_states", "ctmc.vanishing_eliminated", "lts.saturate.weak_transitions",
    "bisim.refine.rounds", "bisim.refine.states_resigned", "cache.hits", "cache.misses",
    "sim.events", "sim.fastpath.runs", "battery.steps"};

using Counters = std::map<std::string, double>;

Counters snapshot() {
    Counters out;
    for (const char* name : kCounters) {
        out[name] = static_cast<double>(dpma::obs::counter(name).value());
    }
    return out;
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
        }
    }
    return cpus;
}

/// Pins the i-th thread of this process (by thread id; the main thread
/// first, then the pool's workers) to cpus[(turn + i) % cpus.size()].  On a
/// shared host each vCPU runs at its own speed for tens of seconds at a time
/// (up to 2x apart), so a thread the scheduler leaves on one vCPU measures
/// that vCPU's luck.  Every cycle, with the set-ups that follow it, takes
/// the next turn instead, so a run measures the mix of all of them.
void rotate(const std::vector<int>& cpus, std::size_t turn) {
    if (cpus.empty()) return;
    std::vector<pid_t> threads;
    for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
        threads.push_back(static_cast<pid_t>(std::stol(entry.path().filename().string())));
    }
    std::sort(threads.begin(), threads.end());
    for (std::size_t i = 0; i < threads.size(); ++i) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus[(turn + i) % cpus.size()], &set);
        // A thread may have ended since the listing (ESRCH).
        if (sched_setaffinity(threads[i], sizeof set, &set) != 0 && errno != ESRCH) {
            throw std::runtime_error("cannot pin thread " + std::to_string(threads[i]));
        }
    }
}

struct Phase {
    std::vector<double> latencies_ms;
    std::size_t failed = 0;
    std::size_t cycles = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double minor_faults = 0.0;
    [[nodiscard]] double results_per_s() const {
        return static_cast<double>(latencies_ms.size()) / wall_s;
    }
};

struct Phases {
    Phase traced;
    Phase untraced;
    double peak_rss_mb = 0.0;
};

/// Library span totals (name -> {count, total ms}), drained from the
/// library's bounded buffer after every traced cycle.
using LibrarySpans = std::map<std::string, std::pair<double, double>>;

/// Runs one set-up and returns its duration in seconds.
double timed_setup(Workload& workload, std::size_t rep) {
    const std::uint64_t start = now_ns();
    {
        Span span("setup", static_cast<std::int64_t>(rep));
        workload.setup();
    }
    return static_cast<double>(now_ns() - start) / 1e9;
}

/// Runs whole cycles, each on the next of \p cpus, until \p seconds have
/// passed.  With \p trace the cycles alternate traced and untraced, so both
/// kinds see the same drift of the machine, and the library's spans of the
/// traced ones go to \p library.  Without it, set-ups are repeated between
/// the cycles of the second half (see kSetupShare) and the mean of each
/// round appended to \p setup_rounds_s.
Phases run_phases(Workload& workload, double seconds, bool trace, const std::vector<int>& cpus,
                  LibrarySpans& library, std::vector<double>& setup_rounds_s) {
    Phases out;
    std::size_t turn = 0;
    const std::uint64_t start_ns = now_ns();
    const auto window = static_cast<std::uint64_t>(seconds * 1e9);
    double half_wall_s = 0.0;  // cycle time before the first repeated set-up
    double repeats_s = 0.0;
    do {
        rotate(cpus, turn++);
        const bool traced = trace && out.traced.cycles <= out.untraced.cycles;
        Phase& phase = traced ? out.traced : out.untraced;
        set_tracing(traced);
        dpma::obs::set_tracing(traced);
        const Usage before = usage();
        const std::uint64_t start = now_ns();
        const CycleOutcome outcome = workload.cycle();
        const double wall_s = static_cast<double>(now_ns() - start) / 1e9;
        const Usage after = usage();
        set_tracing(false);
        dpma::obs::set_tracing(false);
        phase.latencies_ms.insert(phase.latencies_ms.end(), outcome.latencies_ms.begin(),
                                  outcome.latencies_ms.end());
        phase.failed += outcome.failed;
        phase.wall_s += wall_s;
        phase.cpu_s += after.cpu_s - before.cpu_s;
        phase.minor_faults += after.minor_faults - before.minor_faults;
        ++phase.cycles;
        if (traced) {
            for (const dpma::obs::SpanStats& s : dpma::obs::span_summary()) {
                auto& [count, total_ms] = library[s.name];
                count += static_cast<double>(s.count);
                total_ms += s.total_us / 1e3;
            }
            dpma::obs::clear_trace();
        }
        if (trace || now_ns() - start_ns < window / 2) continue;
        if (out.peak_rss_mb == 0.0) {
            out.peak_rss_mb = peak_rss_mb();
            half_wall_s = out.untraced.wall_s;
        }
        const std::size_t round = std::max<std::size_t>(1, cpus.size());
        while (setup_rounds_s.empty() ||
               repeats_s < kSetupShare * (out.untraced.wall_s - half_wall_s)) {
            double round_s = 0.0;
            for (std::size_t i = 0; i < round; ++i) {
                rotate(cpus, i);
                round_s += timed_setup(workload, 1 + setup_rounds_s.size() * round + i);
            }
            setup_rounds_s.push_back(round_s / static_cast<double>(round));
            repeats_s += round_s;
        }
    } while (now_ns() - start_ns < window || (trace && out.untraced.cycles == 0));
    if (out.peak_rss_mb == 0.0) out.peak_rss_mb = peak_rss_mb();
    return out;
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/// The highest percentile with at least ten results beyond it, as
/// {value, percentile}; the maximum when there are ten results or fewer.
std::pair<double, double> tail(std::vector<double> latencies) {
    std::sort(latencies.begin(), latencies.end());
    const std::size_t n = latencies.size();
    if (n <= 10) return {latencies.back(), 100.0};
    return {latencies[n - 11], 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)};
}

std::vector<Metric> per_layer_metrics(const Workload& workload, const SpanReport& spans,
                                      const LibrarySpans& library, const Counters& before_setup,
                                      const Counters& before_phase, const Counters& after,
                                      const SolveStats& solves, double busy_s,
                                      const Phases& phases, double oracle_ms) {
    const auto row = [&](const char* name) {
        const auto it = spans.layers.find(name);
        return it == spans.layers.end() ? LayerRow{} : it->second;
    };
    const auto delta = [&](const char* name, const Counters& from) {
        return after.at(name) - from.at(name);
    };
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    // Counters and solver statistics run over every cycle, spans over the
    // traced ones only.
    const Phase& traced = phases.traced;
    const Phase& untraced = phases.untraced;
    const double cycles = static_cast<double>(traced.cycles + untraced.cycles);
    const double traced_cycles = static_cast<double>(traced.cycles);
    const auto per_cycle = [&](const char* name) { return delta(name, before_phase) / cycles; };
    const auto library_ms = [&](const char* name) {
        const auto it = library.find(name);
        return it == library.end() ? 0.0 : it->second.second / traced_cycles;
    };
    const double sim_run_s = row("sim.run").total_ms / 1e3;
    return {
        {"aemilia.parse_ms", row("aemilia.parse").mean_ms(), "ms"},
        {"analysis.lint_ms", row("analysis.lint").mean_ms(), "ms"},
        {"analysis.flow_ms", row("analysis.flow").mean_ms(), "ms"},
        {"adl.compose_ms", row("adl.compose").mean_ms(), "ms"},
        {"adl.compose.states",
         ratio(delta("compose.states", before_setup), delta("compose.calls", before_setup)),
         "count"},
        {"adl.compose.transitions",
         ratio(delta("compose.transitions", before_setup), delta("compose.calls", before_setup)),
         "count"},
        {"adl.compose.ns_per_state", row("adl.compose").ns_per_state(), "ns/state"},
        {"noninterference.check_ms", row("noninterference.check").mean_ms(), "ms"},
        {"lts.saturate.weak_transitions", per_cycle("lts.saturate.weak_transitions"), "count"},
        {"bisim.refine.rounds", per_cycle("bisim.refine.rounds"), "count"},
        {"bisim.refine.states_resigned", per_cycle("bisim.refine.states_resigned"), "count"},
        {"bisim.weak_check_ms", library_ms("bisim.weak_check"), "ms"},
        {"bisim.refine_ms", library_ms("bisim.refine"), "ms"},
        {"ctmc.build_ms", row("ctmc.build").mean_ms(), "ms"},
        {"ctmc.tangible_states",
         ratio(delta("ctmc.tangible_states", before_setup), delta("ctmc.builds", before_setup)),
         "count"},
        {"ctmc.vanishing_eliminated",
         ratio(delta("ctmc.vanishing_eliminated", before_setup),
               delta("ctmc.builds", before_setup)),
         "count"},
        {"ctmc.build.ns_per_state", row("ctmc.build").ns_per_state(), "ns/state"},
        {"ctmc.steady_ms", row("ctmc.steady").mean_ms(), "ms"},
        {"ctmc.steady.iterations", ratio(solves.iterations, static_cast<double>(solves.solves)),
         "count"},
        {"ctmc.steady.residual", solves.max_residual, "1"},
        {"ctmc.steady.method_gth", static_cast<double>(solves.gth) / cycles, "count"},
        {"ctmc.steady.method_iterative", static_cast<double>(solves.iterative) / cycles,
         "count"},
        {"ctmc.reward_ms", row("ctmc.reward").mean_ms(), "ms"},
        {"ctmc.hitting_ms", row("ctmc.hitting").mean_ms(), "ms"},
        {"ctmc.hitting.ns_per_state", row("ctmc.hitting").ns_per_state(), "ns/state"},
        {"ctmc.transient_ms", row("ctmc.transient").mean_ms(), "ms"},
        {"exp.patch_ms", row("exp.patch").mean_ms(), "ms"},
        {"exp.cache.hits", per_cycle("cache.hits"), "count"},
        {"exp.cache.misses", per_cycle("cache.misses"), "count"},
        {"exp.pool.busy_ratio",
         busy_s / (static_cast<double>(workload.sweep_jobs()) * (traced.wall_s + untraced.wall_s)),
         "ratio"},
        {"sim.compile_ms", row("sim.compile").mean_ms(), "ms"},
        {"sim.run_ms", row("sim.run").mean_ms(), "ms"},
        {"sim.events", per_cycle("sim.events"), "count"},
        {"sim.events_per_s", ratio(per_cycle("sim.events") * traced_cycles, sim_run_s), "1/s"},
        {"sim.fastpath.runs", per_cycle("sim.fastpath.runs"), "count"},
        {"battery.replay_ms", row("battery.replay").mean_ms(), "ms"},
        {"battery.steps", per_cycle("battery.steps"), "count"},
        {"proc.cpu_s", (traced.cpu_s + untraced.cpu_s) / cycles, "s"},
        {"proc.minor_faults", (traced.minor_faults + untraced.minor_faults) / cycles, "count"},
        {"proc.rss_delta_mb.compose", row("adl.compose").rss_delta_mb, "MB"},
        {"proc.rss_delta_mb.build", row("ctmc.build").rss_delta_mb, "MB"},
        {"proc.rss_delta_mb.solve",
         row("ctmc.steady").rss_delta_mb + row("ctmc.hitting").rss_delta_mb, "MB"},
        {"trace.coverage", ratio(spans.covered_ms, spans.wrapped_ms), "ratio"},
        {"trace.overhead", traced.results_per_s() / untraced.results_per_s(), "ratio"},
        {"oracle_ms", oracle_ms, "ms"},
    };
}

void print_layer_table(const SpanReport& spans) {
    std::printf("%-24s %8s %12s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms",
                "ns/state", "rss_delta_mb");
    for (const auto& [name, row] : spans.layers) {
        std::printf("%-24s %8llu %12.3f %12.3f %12.1f %12.2f\n", name.c_str(),
                    static_cast<unsigned long long>(row.count), row.total_ms, row.self_ms,
                    row.ns_per_state(), row.rss_delta_mb);
    }
}

std::string result_line(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
    std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char buffer[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (!std::isfinite(metrics[i].value)) {
            throw std::runtime_error("metric " + metrics[i].name + " is not finite");
        }
        std::snprintf(buffer, sizeof buffer, "%.17g", metrics[i].value);
        out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buffer +
               ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    return out + "}}";
}

int run(const Args& args) {
    const std::vector<std::string> neutralised = neutralise_environment();
    const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
    Options options;
    options.root = args.root;
    options.seed = args.seed;
    options.jobs = std::min<std::size_t>(2, nproc);
    std::unique_ptr<Workload> workload = make_workload(args.workload, options);

    std::string env_list;
    for (const std::string& name : neutralised) env_list += (env_list.empty() ? "" : ",") + name;
    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d git=%s build=%s "
                "nproc=%zu jobs=%zu neutralised_env=[%s]\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, PERFBENCH_GIT_SHA, PERFBENCH_BUILD_TYPE, nproc,
                workload->jobs(), env_list.c_str());

    // Set-up.  A traced run traces it, so that the RSS high-water growth of
    // compose is attributed before it is reached.
    const Counters before_setup = snapshot();
    set_tracing(args.trace);
    const double first_setup_s = timed_setup(*workload, 0);
    set_tracing(false);
    std::printf("structure: %s\n", workload->structure().c_str());

    // Timed phase.  A traced run alternates traced and untraced cycles,
    // which gives the tracing overhead; an untraced one repeats the set-up
    // between cycles.
    workload->reset_stats();
    const Counters before_phase = snapshot();
    dpma::obs::clear_trace();
    LibrarySpans library;
    const std::vector<int> cpus = allowed_cpus();
    std::vector<double> setup_rounds_s;
    const Phases phases =
        run_phases(*workload, args.seconds, args.trace, cpus, library, setup_rounds_s);
    const Counters after_phase = snapshot();
    const SolveStats solves = workload->solve_stats();
    const double busy_s = workload->busy_seconds();

    const std::uint64_t oracle_start = now_ns();
    const OracleOutcome oracle = workload->oracle();
    const double oracle_ms = static_cast<double>(now_ns() - oracle_start) / 1e6;
    for (const std::string& note : oracle.notes) std::printf("oracle: %s\n", note.c_str());

    // Latencies come from the traced cycles of a traced run; every result
    // counts as attempted.
    const Phase& measured = args.trace ? phases.traced : phases.untraced;
    const std::size_t attempted =
        phases.traced.latencies_ms.size() + phases.untraced.latencies_ms.size();
    const std::size_t failed = phases.traced.failed + phases.untraced.failed + oracle.mismatches;
    const auto [tail_ms, tail_pct] = tail(measured.latencies_ms);
    std::printf("results: attempted=%zu failed=%zu failed_ratio=%.6g cycles=%zu wall_s=%.3f "
                "minor_faults=%.0f oracle_checks=%zu oracle_ms=%.1f\n",
                attempted, failed, static_cast<double>(failed) / static_cast<double>(attempted),
                measured.cycles, measured.wall_s, measured.minor_faults, oracle.checked,
                oracle_ms);

    std::vector<Metric> metrics;
    if (args.trace) {
        const SpanReport spans = summarize();
        print_layer_table(spans);
        metrics = per_layer_metrics(*workload, spans, library, before_setup, before_phase,
                                    after_phase, solves, busy_s, phases, oracle_ms);
        if (!args.trace_out.empty()) {
            std::ofstream out(args.trace_out, std::ios::binary);
            out << chrome_trace_json();
            if (!out) throw std::runtime_error("cannot write " + args.trace_out);
            std::printf("trace: %s\n", args.trace_out.c_str());
        }
    } else {
        std::printf("result_ms.tail is p%.2f of %zu results; setup_s is the median of %zu "
                    "rounds of %zu (first set-up %.4f s)\n",
                    tail_pct, attempted, setup_rounds_s.size(),
                    std::max<std::size_t>(1, cpus.size()), first_setup_s);
        metrics = {
            {"results_per_s", measured.results_per_s(), "1/s"},
            {"result_ms.p50", median(measured.latencies_ms), "ms"},
            {"result_ms.tail", tail_ms, "ms"},
            {"peak_rss_mb", phases.peak_rss_mb, "MB"},
            {"setup_s", median(setup_rounds_s), "s"},
        };
    }
    std::printf("%s\n", result_line(failed == 0, attempted, failed, metrics).c_str());
    return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    try {
        return perfbench::run(perfbench::parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
