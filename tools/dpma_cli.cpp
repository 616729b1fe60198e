/// \file dpma_cli.cpp
/// Command-line front end of the toolchain — the TwoTowers-like workflow on
/// Æmilia files, no C++ required:
///
///   dpma_cli info     model.aem
///   dpma_cli dot      model.aem                       > model.dot
///   dpma_cli lint     model.aem|dir ... [measures.msr]
///                     [--format text|json|sarif]
///   dpma_cli analyze  model.aem|dir ... [measures.msr]
///                     [--format text|json|sarif] [--high L1,L2 --low C]
///   dpma_cli check    model.aem --high L1,L2 --low C  [--traces] [--precheck]
///   dpma_cli solve    model.aem measures.msr [--precheck]
///   dpma_cli simulate model.aem measures.msr [--horizon H] [--warmup W]
///                     [--reps N] [--seed S] [--confidence C]
///   dpma_cli sweep    model.aem measures.msr --param I.action=lo:hi:steps
///                     [--jobs N] [--json PATH|-] [--csv PATH|-] [--precheck]
///   dpma_cli lifetime rpc|streaming [--battery ideal|peukert|kibam]
///                     [--capacity lo:hi:steps] [--control C] [--reps N]
///                     [--seed S] [--confidence C] [--jobs N]
///                     [--horizon-factor F] [--peukert-exponent A]
///                     [--peukert-ref P] [--kibam-c C] [--kibam-rate K]
///                     [--format text|json] [--json PATH|-] [--csv PATH|-]
///   dpma_cli report   old.json new.json [--threshold R] [--confidence C]
///                     [--resamples N] [--seed S]
///
/// Global options, valid in any position with any command:
///
///   --trace FILE       record tracing spans, write Chrome trace-event JSON
///                      to FILE on exit (chrome://tracing, Perfetto)
///   --metrics FILE     write the metrics registry as JSON to FILE on exit
///   --report FILE      write an obs::RunReport run record to FILE on exit
///                      ("-" = stdout); sweep/lifetime attach their
///                      ResultSet as a record series
///   --log-level LEVEL  error | warn | info | debug (overrides DPMA_LOG)
///
/// `check` runs the paper's noninterference analysis: --high lists the
/// global action labels of the power-management commands (as printed by
/// `info`), --low names the observing instance.
///
/// `lint` runs the semantic analyser (src/analysis) and prints every
/// diagnostic with its file:line:column span — clang-style text by default,
/// strict JSON with --format json, SARIF 2.1.0 with --format sarif.  It
/// accepts any mix of .aem files and directories (searched recursively for
/// *.aem); exit status aggregates over all of them: 0 when no file has
/// errors (warnings allowed), 1 otherwise.  All other commands run the same
/// lint automatically before touching the model: a spec with lint errors
/// fails fast with the diagnostics on stderr (exit 4) instead of dying
/// somewhere inside composition or solving.
///
/// `analyze` runs lint plus the dataflow / abstract-interpretation engine
/// (src/analysis/flow): rate-literal scan [non-positive-rate], interval
/// propagation of behaviour parameters [unbounded-parameter], abstract
/// composition over interaction alphabets [dead-interaction, sync-deadlock]
/// and the ergodicity precheck [non-ergodic] — all without ever building
/// the composed LTS.  With --high/--low it additionally runs the static
/// DPM-transparency slice and prints the verdict
/// (transparent/leaks/inconclusive); a static `transparent` is sound (it
/// implies the exact weak-bisimulation verdict of `check`), the other two
/// are advisory.  Same inputs, formats and exit contract as `lint`.
///
/// `--precheck` on check/solve/sweep runs the same flow passes first:
/// `check --precheck` skips the exact weak-bisimulation comparison when the
/// static slice already proves transparency; solve/sweep abort (exit 4) on
/// flow *errors* before composing.
///
/// Exit status: 0 = check passed / command succeeded, 1 = check or lint
/// failed, 2 = usage error, 3 = Æmilia parse error, 4 = analysis error
/// (lint errors under a non-lint command, numerical failure, bad measure,
/// unwritable output, ...), 6 = sweep/lifetime finished but some points
/// failed (artifacts written; a failed point carries an "error" record and
/// NaN values, and its siblings still ran).  Trace and metrics files are
/// written even when the command fails — a trace of a failing run is
/// precisely the one worth looking at.  Every file artifact (--json, --csv,
/// --trace, --metrics, --report) is written atomically: temp file + fsync +
/// rename, so no crash or full disk leaves a truncated artifact behind.
///
/// `lifetime` runs a battery lifetime study (src/battery) on a built-in
/// case-study system: capacity x {NO-DPM, DPM} sweep, each point replaying
/// simulated trajectories into a fresh battery plus the analytic
/// fluid/refined bounds from the CTMC.  Battery parameters must be positive
/// and finite (kibam-c strictly inside (0,1)); anything else is a usage
/// error (exit 2).
///
/// `report` is the perf-regression gate (exp/regress.hpp): it loads two run
/// records (as written by --report or a bench binary), pairs their result
/// series by experiment and point, and prints a verdict table of
/// bootstrap-CI'd time ratios.  Exit 0 when no series regressed beyond
/// --threshold (default 1.20), 1 on a significant regression, 4 when either
/// file is unreadable, invalid JSON, or not a run record.
///
/// `sweep` solves the model at every point of a parameter range on the
/// experiment engine (src/exp): the model is composed *once*, and each point
/// patches the exponential rate of the transitions matching I.action (either
/// side of a synchronised label, as in measure ENABLED predicates) before
/// re-extracting and solving the CTMC — the state space is reused across the
/// whole sweep.  Points run in parallel (--jobs, default DPMA_JOBS /
/// hardware_concurrency); results are identical for every jobs count.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "adl/compose.hpp"
#include "aemilia/parser.hpp"
#include "analysis/flow/analyze.hpp"
#include "analysis/lint.hpp"
#include "battery/lifetime.hpp"
#include "bisim/hml.hpp"
#include "core/error.hpp"
#include "core/text.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "exp/cache.hpp"
#include "exp/experiment.hpp"
#include "exp/pool.hpp"
#include "exp/regress.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "lts/dot.hpp"
#include "lts/ops.hpp"
#include "noninterference/noninterference.hpp"
#include "obs/atomic_write.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "sim/gsmp.hpp"

namespace {

using namespace dpma;

/// Run record of this invocation (--report); commands that produce a
/// ResultSet attach it as a series.  Null without --report.
dpma::obs::RunReport* g_run_report = nullptr;

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage:\n"
                 "  dpma_cli info     <model.aem>\n"
                 "  dpma_cli dot      <model.aem>\n"
                 "  dpma_cli lint     <model.aem|dir>... [<measures.msr>] "
                 "[--format text|json|sarif]\n"
                 "  dpma_cli analyze  <model.aem|dir>... [<measures.msr>] "
                 "[--format text|json|sarif] [--high L1,L2,... --low INSTANCE]\n"
                 "  dpma_cli check    <model.aem> --high L1,L2,... --low INSTANCE "
                 "[--traces] [--precheck]\n"
                 "  dpma_cli solve    <model.aem> <measures.msr> [--precheck]\n"
                 "  dpma_cli simulate <model.aem> <measures.msr> [--horizon H] "
                 "[--warmup W] [--reps N] [--seed S] [--confidence C]\n"
                 "  dpma_cli sweep    <model.aem> <measures.msr> "
                 "--param <instance.action>=<lo>:<hi>:<steps> [--jobs N] "
                 "[--json PATH|-] [--csv PATH|-] [--precheck]\n"
                 "  dpma_cli lifetime <rpc|streaming> "
                 "[--battery ideal|peukert|kibam] [--capacity lo:hi:steps] "
                 "[--control C] [--reps N] [--seed S] [--confidence C] "
                 "[--jobs N] [--horizon-factor F] [--peukert-exponent A] "
                 "[--peukert-ref P] [--kibam-c C] [--kibam-rate K] "
                 "[--format text|json] [--json PATH|-] [--csv PATH|-]\n"
                 "  dpma_cli report   <old.json> <new.json> [--threshold R] "
                 "[--confidence C] [--resamples N] [--seed S]\n"
                 "global options (any command): [--trace FILE] [--metrics FILE] "
                 "[--report FILE] "
                 "[--log-level error|warn|info|debug]\n");
    std::exit(2);
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw Error("cannot open " + path);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// Parses and lints \p path.  ParseError propagates (exit 3); lint errors
/// print their diagnostics to stderr and throw Error (exit 4) so the model
/// never reaches composition.  Lint warnings are printed and tolerated.
adl::ArchiType load_archi(const std::string& path) {
    adl::ArchiType archi = aemilia::parse_archi_type_unchecked(read_file(path));
    const analysis::LintResult lint = analysis::lint_model(archi, path);
    if (!lint.diagnostics.empty()) {
        std::fputs(analysis::render_text(lint.diagnostics).c_str(), stderr);
    }
    if (!lint.ok()) {
        throw Error(path + " failed semantic analysis with " +
                    std::to_string(lint.error_count()) +
                    " error(s); diagnostics above, or run `dpma_cli lint`");
    }
    return archi;
}

adl::ComposedModel load_model(const std::string& path) {
    return adl::compose(load_archi(path));
}

/// Parses and lints a measure file against the architecture it will be
/// evaluated on.  Same contract as load_archi.
std::vector<adl::Measure> load_measures(const std::string& path, const adl::ArchiType& archi,
                                        const std::string& archi_path) {
    std::vector<adl::Measure> measures = aemilia::parse_measures(read_file(path));
    analysis::LintResult lint;
    analysis::lint_measures(archi, measures, path, archi_path, lint);
    if (!lint.diagnostics.empty()) {
        std::fputs(analysis::render_text(lint.diagnostics).c_str(), stderr);
    }
    if (!lint.ok()) {
        throw Error(path + " failed semantic analysis with " +
                    std::to_string(lint.error_count()) +
                    " error(s); diagnostics above, or run `dpma_cli lint`");
    }
    return measures;
}

/// Pulls `--name value` out of the argument list; returns fallback when absent.
std::string option(std::vector<std::string>& args, const std::string& name,
                   const std::string& fallback) {
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
        if (args[i] == name) {
            const std::string value = args[i + 1];
            args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                       args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
            return value;
        }
    }
    return fallback;
}

bool flag(std::vector<std::string>& args, const std::string& name) {
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == name) {
            args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
            return true;
        }
    }
    return false;
}

/// Strict full-string double parse; rejects trailing garbage.
bool parse_double(const std::string& text, double* out) {
    char* end = nullptr;
    *out = std::strtod(text.c_str(), &end);
    return end != text.c_str() && *end == '\0';
}

/// Strict full-string base-10 unsigned parse; rejects a sign, trailing
/// garbage and values beyond 64 bits.
bool parse_unsigned(const std::string& text, std::uint64_t* out) {
    if (text.empty() || std::isdigit(static_cast<unsigned char>(text[0])) == 0) return false;
    errno = 0;
    char* end = nullptr;
    *out = std::strtoull(text.c_str(), &end, 10);
    return errno == 0 && *end == '\0';
}

/// Prints a usage error of \p command and returns the usage exit code (2):
/// a bad command-line value is a usage error, not an analysis failure.
int usage_error(const char* command, const std::string& message) {
    std::fprintf(stderr, "dpma_cli: %s: %s\n", command, message.c_str());
    return 2;
}

/// Pulls `--name value` out of \p args (\p fallback when absent) and parses
/// it strictly as a number; false after a usage error naming the flag.
bool number_option(std::vector<std::string>& args, const char* command, const char* name,
                   const char* fallback, double* out) {
    const std::string text = option(args, name, fallback);
    if (parse_double(text, out)) return true;
    usage_error(command, std::string(name) + " wants a number, got '" + text + "'");
    return false;
}

/// As number_option, for an integer in [lo, hi].
bool count_option(std::vector<std::string>& args, const char* command, const char* name,
                  const char* fallback, std::uint64_t lo, std::uint64_t hi,
                  std::uint64_t* out) {
    const std::string text = option(args, name, fallback);
    if (parse_unsigned(text, out) && *out >= lo && *out <= hi) return true;
    const std::string range = hi == UINT64_MAX ? ">= " + std::to_string(lo)
                                               : "in [" + std::to_string(lo) + ", " +
                                                     std::to_string(hi) + "]";
    usage_error(command,
                std::string(name) + " wants an integer " + range + ", got '" + text + "'");
    return false;
}

int cmd_info(const std::string& path) {
    const adl::ComposedModel model = load_model(path);
    std::printf("architecture: %zu instances, %zu states, %zu transitions\n",
                model.instance_names.size(), model.graph.num_states(),
                model.graph.num_transitions());
    std::printf("instances:");
    for (const std::string& name : model.instance_names) std::printf(" %s", name.c_str());
    std::printf("\n");
    const auto deadlocks = lts::deadlock_states(model.graph);
    std::printf("deadlock states: %zu\n", deadlocks.size());
    std::printf("action labels:\n");
    // Show only labels that actually occur on transitions.
    const auto& table = *model.graph.actions();
    std::vector<char> used(table.size(), 0);
    for (const lts::Transition& t : model.graph.transitions()) used[t.action] = 1;
    for (Symbol a = 1; a < table.size(); ++a) {
        if (used[a]) std::printf("  %s\n", table.name(a).c_str());
    }
    return 0;
}

int cmd_dot(const std::string& path) {
    const adl::ComposedModel model = load_model(path);
    lts::DotOptions options;
    options.max_states = 2000;
    std::fputs(lts::to_dot(model.graph, options).c_str(), stdout);
    return 0;
}

/// Expands a mix of .aem files and directories (searched recursively for
/// *.aem, sorted for stable output) into the list of spec files to process.
std::vector<std::string> collect_spec_files(const std::vector<std::string>& inputs) {
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    for (const std::string& input : inputs) {
        std::error_code ec;
        if (fs::is_directory(input, ec)) {
            std::vector<std::string> found;
            for (const auto& entry : fs::recursive_directory_iterator(input)) {
                if (entry.is_regular_file() && entry.path().extension() == ".aem") {
                    found.push_back(entry.path().string());
                }
            }
            if (found.empty()) throw Error("no .aem files under " + input);
            std::sort(found.begin(), found.end());
            files.insert(files.end(), found.begin(), found.end());
        } else {
            files.push_back(input);
        }
    }
    return files;
}

/// Shared front end of `lint` and `analyze`: positional inputs (files or
/// directories), with a trailing .msr peeled off as the measure file of a
/// single-spec invocation.
struct SpecInputs {
    std::vector<std::string> files;
    std::string measures_path;
};

SpecInputs parse_spec_inputs(const std::string& first, std::vector<std::string>& args) {
    std::vector<std::string> inputs{first};
    while (!args.empty() && !args[0].empty() && args[0][0] != '-') {
        inputs.push_back(args[0]);
        args.erase(args.begin());
    }
    SpecInputs out;
    if (inputs.size() >= 2 && inputs.back().size() > 4 &&
        inputs.back().rfind(".msr") == inputs.back().size() - 4) {
        out.measures_path = inputs.back();
        inputs.pop_back();
    }
    out.files = collect_spec_files(inputs);
    if (!out.measures_path.empty() && out.files.size() != 1) {
        throw Error("a measure file needs exactly one specification, got " +
                    std::to_string(out.files.size()));
    }
    return out;
}

int cmd_lint(const std::string& model_path, std::vector<std::string> args) {
    const std::string format = option(args, "--format", "text");
    SpecInputs inputs = parse_spec_inputs(model_path, args);
    if (!args.empty() || (format != "text" && format != "json" && format != "sarif")) {
        usage();
    }

    std::vector<analysis::Diagnostic> merged;
    bool ok = true;
    for (const std::string& file : inputs.files) {
        const std::string spec_text = read_file(file);
        analysis::LintResult result;
        if (inputs.measures_path.empty()) {
            result = analysis::lint_text(spec_text, file);
        } else {
            result = analysis::lint_text(spec_text, file,
                                         read_file(inputs.measures_path),
                                         inputs.measures_path);
        }
        ok = ok && result.ok();
        if (format == "text" && result.clean()) {
            std::printf("%s: no problems found\n", file.c_str());
        }
        merged.insert(merged.end(), result.diagnostics.begin(),
                      result.diagnostics.end());
    }
    if (format == "json") {
        std::fputs(analysis::render_json(merged).c_str(), stdout);
    } else if (format == "sarif") {
        std::fputs(analysis::render_sarif(merged, "dpma-lint").c_str(), stdout);
    } else if (!merged.empty()) {
        std::fputs(analysis::render_text(merged).c_str(), stdout);
    }
    return ok ? 0 : 1;
}

int cmd_analyze(const std::string& model_path, std::vector<std::string> args) {
    const std::string format = option(args, "--format", "text");
    const std::string high = option(args, "--high", "");
    const std::string low = option(args, "--low", "");
    SpecInputs inputs = parse_spec_inputs(model_path, args);
    if (!args.empty() || (format != "text" && format != "json" && format != "sarif")) {
        usage();
    }
    if (high.empty() != low.empty()) usage();

    analysis::flow::AnalyzeOptions options;
    if (!high.empty()) {
        if (inputs.files.size() != 1) {
            throw Error("--high/--low slice one architecture; pass a single spec");
        }
        for (const std::string& label : split(high, ',')) {
            options.high_labels.emplace_back(trim(label));
        }
        options.low_instance = low;
    }

    std::vector<analysis::Diagnostic> merged;
    std::optional<analysis::flow::TransparencyResult> transparency;
    bool ok = true;
    for (const std::string& file : inputs.files) {
        const std::string spec_text = read_file(file);
        analysis::flow::AnalyzeResult result;
        if (inputs.measures_path.empty()) {
            result = analysis::flow::analyze_text(spec_text, file, options);
        } else {
            result = analysis::flow::analyze_text(spec_text, file,
                                                  read_file(inputs.measures_path),
                                                  inputs.measures_path, options);
        }
        ok = ok && result.ok();
        if (format == "text" && result.clean()) {
            std::printf("%s: no problems found\n", file.c_str());
        }
        const std::vector<analysis::Diagnostic> all = result.all();
        merged.insert(merged.end(), all.begin(), all.end());
        if (result.transparency) transparency = std::move(result.transparency);
    }

    if (format == "json") {
        std::string json = analysis::render_json(merged);
        if (transparency) {
            // Splice the verdict object before the closing "\n}\n".
            json.resize(json.size() - 3);
            json += ",\n  \"transparency\": {\"verdict\": " +
                    obs::json_quote(
                        analysis::flow::verdict_name(transparency->verdict)) +
                    ", \"reason\": " + obs::json_quote(transparency->reason) +
                    ", \"slice_states\": " +
                    std::to_string(transparency->slice_states) + ", \"slice\": [";
            for (std::size_t i = 0; i < transparency->slice_instances.size(); ++i) {
                if (i != 0) json += ", ";
                json += obs::json_quote(transparency->slice_instances[i]);
            }
            json += "], \"leak_chain\": [";
            for (std::size_t i = 0; i < transparency->leak_chain.size(); ++i) {
                if (i != 0) json += ", ";
                json += obs::json_quote(transparency->leak_chain[i]);
            }
            json += "]}\n}\n";
        }
        std::fputs(json.c_str(), stdout);
    } else if (format == "sarif") {
        std::fputs(analysis::render_sarif(merged, "dpma-analyze").c_str(), stdout);
    } else {
        if (!merged.empty()) {
            std::fputs(analysis::render_text(merged).c_str(), stdout);
        }
        if (transparency) {
            std::printf("transparency (static): %s\n",
                        analysis::flow::verdict_name(transparency->verdict));
            std::printf("  %s\n", transparency->reason.c_str());
            for (const std::string& link : transparency->leak_chain) {
                std::printf("  leak chain: %s\n", link.c_str());
            }
        }
    }
    return ok ? 0 : 1;
}

/// The `--precheck` pre-pass of solve/sweep: flow analyses on the linted
/// architecture, diagnostics to stderr, flow *errors* abort (exit 4).
void run_precheck(const adl::ArchiType& archi, const std::string& path) {
    analysis::flow::AnalyzeResult result =
        analysis::flow::analyze_model(archi, path, analysis::LintResult{});
    if (!result.flow.empty()) {
        std::fputs(analysis::render_text(result.flow).c_str(), stderr);
    }
    if (!result.ok()) {
        throw Error(path + " failed the flow precheck with " +
                    std::to_string(result.error_count()) +
                    " error(s); diagnostics above, or run `dpma_cli analyze`");
    }
}

int cmd_check(const std::string& path, std::vector<std::string> args) {
    const std::string high = option(args, "--high", "");
    const std::string low = option(args, "--low", "");
    const bool traces = flag(args, "--traces");
    const bool precheck = flag(args, "--precheck");
    if (high.empty() || low.empty() || !args.empty()) usage();

    const adl::ArchiType archi = load_archi(path);
    std::vector<std::string> high_labels;
    for (const std::string& label : split(high, ',')) {
        high_labels.emplace_back(trim(label));
    }

    if (precheck && !traces) {
        // The static slice can only *prove* transparency; any other verdict
        // (including precheck setup errors) falls through to the exact check.
        try {
            analysis::flow::TransparencyOptions transparency_options;
            transparency_options.high_labels = high_labels;
            transparency_options.low_instance = low;
            const analysis::flow::TransparencyResult verdict =
                analysis::flow::analyze_transparency(archi, transparency_options);
            std::printf("static precheck: %s\n  %s\n",
                        analysis::flow::verdict_name(verdict.verdict),
                        verdict.reason.c_str());
            if (verdict.verdict == analysis::flow::TransparencyVerdict::Transparent) {
                std::printf("noninterference (weak bisimulation): PASS "
                            "(proved statically, exact check skipped)\n");
                return 0;
            }
        } catch (const Error& e) {
            std::fprintf(stderr, "static precheck unavailable: %s\n", e.what());
        }
    }

    const adl::ComposedModel model = adl::compose(archi);

    if (traces) {
        const auto verdict =
            noninterference::check_dpm_trace_transparency(model, high_labels, low);
        std::printf("trace-based noninterference (SNNI): %s\n",
                    verdict.noninterfering ? "PASS" : "FAIL");
        if (!verdict.noninterfering) {
            std::printf("distinguishing trace:");
            for (const std::string& a : verdict.distinguishing_trace) {
                std::printf(" %s", a.c_str());
            }
            std::printf("\n");
        }
        return verdict.noninterfering ? 0 : 1;
    }

    const auto verdict =
        noninterference::check_dpm_transparency(model, high_labels, low);
    std::printf("noninterference (weak bisimulation): %s\n",
                verdict.noninterfering ? "PASS" : "FAIL");
    if (!verdict.noninterfering) {
        std::printf("distinguishing formula:\n%s\n",
                    bisim::to_two_towers(verdict.formula).c_str());
    }
    return verdict.noninterfering ? 0 : 1;
}

int cmd_solve(const std::string& model_path, const std::string& measures_path,
              std::vector<std::string> args) {
    const bool precheck = flag(args, "--precheck");
    if (!args.empty()) usage();
    const adl::ArchiType archi = load_archi(model_path);
    if (precheck) run_precheck(archi, model_path);
    const auto measures = load_measures(measures_path, archi, model_path);
    const adl::ComposedModel model = adl::compose(archi);
    const ctmc::MarkovModel markov = ctmc::build_markov(model);
    const auto pi = ctmc::steady_state(markov.chain);
    std::printf("CTMC: %zu tangible states\n", markov.chain.num_states());
    const std::vector<double> values = ctmc::evaluate_measures(markov, model, pi, measures);
    for (std::size_t k = 0; k < measures.size(); ++k) {
        std::printf("%-24s = %.12g\n", measures[k].name.c_str(), values[k]);
    }
    return 0;
}

int cmd_simulate(const std::string& model_path, const std::string& measures_path,
                 std::vector<std::string> args) {
    double horizon = 0.0, warmup = 0.0, confidence = 0.0;
    std::uint64_t reps = 0, seed = 0;
    if (!number_option(args, "simulate", "--horizon", "10000", &horizon) ||
        !number_option(args, "simulate", "--warmup", "0", &warmup) ||
        !number_option(args, "simulate", "--confidence", "0.90", &confidence) ||
        !count_option(args, "simulate", "--reps", "10", 1, INT_MAX, &reps) ||
        !count_option(args, "simulate", "--seed", "1", 0, UINT64_MAX, &seed)) {
        return 2;
    }
    if (!args.empty()) usage();

    const adl::ArchiType archi = load_archi(model_path);
    const auto measures = load_measures(measures_path, archi, model_path);
    const adl::ComposedModel model = adl::compose(archi);
    const sim::Simulator simulator(model, measures);
    sim::SimOptions options;
    options.horizon = horizon;
    options.warmup = warmup;
    options.seed = seed;
    // Replications fan out over DPMA_JOBS workers; estimates are
    // bit-identical to the serial path for any jobs count.
    exp::ThreadPool pool;
    const auto estimates = exp::simulate_replications(
        simulator, options, static_cast<int>(reps), confidence, pool);
    std::printf("simulated %d replications of horizon %g (warmup %g), %.0f%% CIs\n",
                static_cast<int>(reps), horizon, warmup, confidence * 100.0);
    for (std::size_t m = 0; m < measures.size(); ++m) {
        std::printf("%-24s = %.8g ± %.3g\n", measures[m].name.c_str(),
                    estimates[m].mean, estimates[m].half_width);
    }
    return 0;
}

/// Writes \p text to \p path, or to stdout when \p path is "-".  File
/// writes are atomic (obs::atomic_write: temp + fsync + rename) and both
/// paths check the stream state — a full disk exits nonzero with the path
/// in the message instead of leaving a truncated artifact behind.
void write_output(const std::string& path, const std::string& text) {
    if (path == "-") {
        if (std::fputs(text.c_str(), stdout) == EOF || std::fflush(stdout) != 0) {
            throw Error("cannot write to stdout");
        }
        return;
    }
    obs::atomic_write(path, text);
}

/// Maps a sweep outcome to the CLI exit code — 0 complete, 6 finished with
/// failed points — and prints each failed point's error to stderr.
int sweep_status(const exp::RunOutcome& outcome) {
    for (std::size_t i = 0; i < outcome.results.size(); ++i) {
        const exp::PointRecord& record = outcome.results.at(i);
        if (!record.result.failed()) continue;
        std::fprintf(stderr, "dpma_cli: point %zu failed: %s\n", record.point.index,
                     record.result.error.c_str());
    }
    if (outcome.failed > 0) {
        std::fprintf(stderr, "dpma_cli: sweep finished with %zu failed point(s)\n",
                     outcome.failed);
        return 6;
    }
    return 0;
}

int cmd_sweep(const std::string& model_path, const std::string& measures_path,
              std::vector<std::string> args) {
    const std::string param = option(args, "--param", "");
    std::uint64_t jobs = 0;
    if (!count_option(args, "sweep", "--jobs", "0", 0, UINT64_MAX, &jobs)) return 2;
    const std::string json_path = option(args, "--json", "");
    const std::string csv_path = option(args, "--csv", "");
    const bool precheck = flag(args, "--precheck");
    if (param.empty() || !args.empty()) usage();

    // --param instance.action=lo:hi:steps
    const std::size_t eq = param.find('=');
    if (eq == std::string::npos) usage();
    const std::string target = param.substr(0, eq);
    const std::size_t dot = target.find('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 == target.size()) {
        throw Error("--param needs instance.action, got '" + target + "'");
    }
    const std::string instance = target.substr(0, dot);
    const std::string action = target.substr(dot + 1);
    const auto range = split(param.substr(eq + 1), ':');
    double lo = 0.0, hi = 0.0;
    std::uint64_t steps = 0;
    if (range.size() != 3 || !parse_double(range[0], &lo) || !parse_double(range[1], &hi) ||
        !parse_unsigned(range[2], &steps)) {
        return usage_error("sweep", "--param wants instance.action=lo:hi:steps, got '" +
                                        param + "'");
    }
    if (!(lo > 0.0) || !(hi >= lo) || !std::isfinite(hi) || steps < 1) {
        return usage_error("sweep", "--param range must satisfy 0 < lo <= hi, steps >= 1");
    }

    const adl::ArchiType archi = load_archi(model_path);
    if (precheck) run_precheck(archi, model_path);
    const auto measures = load_measures(measures_path, archi, model_path);

    // Compose once; every sweep point patches this skeleton's rates.
    exp::ModelCache cache;
    const auto skeleton = cache.composed(
        "sweep", [&] { return adl::compose(archi); });
    // Validate the parameter before fanning out: a typo should die with one
    // clear message, not once per point.
    (void)exp::with_exp_rate(*skeleton, instance, action, lo);

    exp::Experiment experiment;
    experiment.name = "sweep " + target;
    experiment.grid.axis(exp::Axis::linspace(target, lo, hi,
                                             static_cast<std::size_t>(steps)));
    for (const adl::Measure& m : measures) experiment.measures.push_back(m.name);
    experiment.eval = [&](const exp::Point& point, const exp::PointContext&) {
        return exp::solve_point(
            exp::with_exp_rate(*skeleton, instance, action, point.at(target)), measures);
    };

    exp::RunOptions run_options;
    run_options.jobs = static_cast<std::size_t>(jobs);
    const exp::RunOutcome outcome = exp::run_sweep(experiment, run_options);
    const exp::ResultSet& results = outcome.results;

    std::printf("sweep of exponential rate %s over [%g, %g], %zu points, jobs=%zu\n",
                target.c_str(), lo, hi, static_cast<std::size_t>(steps),
                jobs == 0 ? exp::default_jobs() : run_options.jobs);
    std::printf("%-16s", "rate");
    for (const std::string& m : results.measures()) std::printf(" %-18s", m.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        std::printf("%-16.6g", results.at(i).point.coords[0].second);
        for (const double v : results.at(i).result.values) std::printf(" %-18.10g", v);
        std::printf("\n");
    }
    // Registry totals, not cache.stats(): the same numbers --metrics dumps.
    const exp::ModelCache::Stats stats = exp::ModelCache::global_stats();
    std::printf("cache: %llu hits, %llu misses\n",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses));

    if (g_run_report != nullptr) g_run_report->add_series(results.json());
    if (!json_path.empty()) write_output(json_path, results.json());
    if (!csv_path.empty()) write_output(csv_path, results.csv());
    return sweep_status(outcome);
}

int cmd_lifetime(const std::string& system, std::vector<std::string> args) {
    const std::string battery_name = option(args, "--battery", "kibam");
    const std::string capacity_text = option(args, "--capacity", "1000:4000:4");
    const std::string control_text = option(args, "--control", "-1");
    const std::string confidence_text = option(args, "--confidence", "0.95");
    std::uint64_t reps = 0, seed = 0, jobs = 0;
    if (!count_option(args, "lifetime", "--reps", "5", 1, INT_MAX, &reps) ||
        !count_option(args, "lifetime", "--seed", "1", 0, UINT64_MAX, &seed) ||
        !count_option(args, "lifetime", "--jobs", "0", 0, UINT64_MAX, &jobs)) {
        return 2;
    }
    const std::string horizon_text = option(args, "--horizon-factor", "8");
    const std::string peukert_exp_text = option(args, "--peukert-exponent", "1.2");
    const std::string peukert_ref_text = option(args, "--peukert-ref", "1");
    const std::string kibam_c_text = option(args, "--kibam-c", "0.5");
    const std::string kibam_rate_text = option(args, "--kibam-rate", "0.001");
    const std::string format = option(args, "--format", "text");
    const std::string json_path = option(args, "--json", "");
    const std::string csv_path = option(args, "--csv", "");
    if (!args.empty()) usage();
    if (format != "text" && format != "json") {
        return usage_error("lifetime", "--format wants text or json, got '" + format + "'");
    }

    battery::StudyOptions options;
    options.system = system;
    if (system != "rpc" && system != "streaming") {
        return usage_error("lifetime",
                           "unknown system '" + system + "' (expected rpc or streaming)");
    }
    try {
        options.battery.kind = battery::BatteryParams::kind_from(battery_name);
    } catch (const Error& e) {
        return usage_error("lifetime", e.what());
    }

    // --capacity lo:hi:steps (linear; steps == 1 keeps just lo).
    const auto range = split(capacity_text, ':');
    double lo = 0.0, hi = 0.0;
    std::uint64_t steps = 0;
    if (range.size() != 3 || !parse_double(range[0], &lo) ||
        !parse_double(range[1], &hi) || !parse_unsigned(range[2], &steps)) {
        return usage_error("lifetime",
                           "--capacity wants lo:hi:steps, got '" + capacity_text + "'");
    }
    if (!std::isfinite(lo) || lo <= 0.0 || !std::isfinite(hi) || hi < lo || steps < 1) {
        return usage_error("lifetime",
                           "--capacity range must satisfy 0 < lo <= hi, steps >= 1");
    }
    const exp::Axis capacity_axis =
        exp::Axis::linspace("capacity", lo, hi, steps);
    options.capacities = capacity_axis.values;

    // Every numeric battery/study parameter must parse and pass validate();
    // both failures are usage errors by the exit-code contract.
    struct NumericArg {
        const std::string* text;
        double* target;
        const char* name;
    };
    const NumericArg numeric[] = {
        {&control_text, &options.control, "--control"},
        {&confidence_text, &options.confidence, "--confidence"},
        {&horizon_text, &options.horizon_factor, "--horizon-factor"},
        {&peukert_exp_text, &options.battery.peukert_exponent, "--peukert-exponent"},
        {&peukert_ref_text, &options.battery.peukert_reference_power, "--peukert-ref"},
        {&kibam_c_text, &options.battery.kibam_c, "--kibam-c"},
        {&kibam_rate_text, &options.battery.kibam_rate, "--kibam-rate"},
    };
    for (const NumericArg& arg : numeric) {
        if (!parse_double(*arg.text, arg.target)) {
            return usage_error("lifetime", std::string(arg.name) + " wants a number, got '" +
                                               *arg.text + "'");
        }
    }
    options.replications = static_cast<int>(reps);
    options.base_seed = seed;
    options.jobs = static_cast<std::size_t>(jobs);
    try {
        options.validate();
    } catch (const Error& e) {
        return usage_error("lifetime", e.what());
    }

    const exp::RunOutcome outcome = battery::run_lifetime_sweep(options);
    const exp::ResultSet& results = outcome.results;
    if (format == "json") {
        std::fputs(results.json().c_str(), stdout);
    } else {
        std::printf("lifetime study: %s system, %s battery, %zu capacities x "
                    "{NO-DPM, DPM}, %d replications\n",
                    options.system.c_str(), options.battery.kind_name(),
                    options.capacities.size(), options.replications);
        std::printf("%-12s %-6s", "capacity", "dpm");
        for (const std::string& m : results.measures()) std::printf(" %-14s", m.c_str());
        std::printf("\n");
        for (std::size_t i = 0; i < results.size(); ++i) {
            const exp::PointRecord& record = results.at(i);
            std::printf("%-12.6g %-6.0f", record.point.at("capacity"),
                        record.point.at("dpm"));
            for (const double v : record.result.values) std::printf(" %-14.8g", v);
            std::printf("\n");
        }
    }
    if (g_run_report != nullptr) g_run_report->add_series(results.json());
    if (!json_path.empty()) write_output(json_path, results.json());
    if (!csv_path.empty()) write_output(csv_path, results.csv());
    return sweep_status(outcome);
}

/// `report` — the perf-regression gate over two run records.
int cmd_report(const std::string& old_path, std::vector<std::string> args) {
    exp::RegressOptions options;
    std::uint64_t resamples = 0;
    if (!number_option(args, "report", "--threshold", "1.20", &options.threshold) ||
        !number_option(args, "report", "--confidence", "0.95", &options.confidence) ||
        !count_option(args, "report", "--resamples", "2000", 1, INT_MAX, &resamples) ||
        !count_option(args, "report", "--seed", "42", 0, UINT64_MAX, &options.seed)) {
        return 2;
    }
    options.resamples = static_cast<int>(resamples);
    if (args.size() != 1) usage();
    const std::string new_path = args[0];

    try {
        options.validate();
    } catch (const Error& e) {
        std::fprintf(stderr, "dpma_cli: report: %s\n", e.what());
        return 2;
    }

    // Parse errors and schema mismatches propagate as Error -> exit 4.
    const obs::Json older = obs::json_parse(read_file(old_path));
    const obs::Json newer = obs::json_parse(read_file(new_path));
    const exp::RegressReport report = exp::compare_reports(older, newer, options);

    std::printf("perf regression report: %s -> %s (threshold %.3gx, %.0f%% CI, "
                "%d resamples)\n\n",
                old_path.c_str(), new_path.c_str(), options.threshold,
                options.confidence * 100.0, options.resamples);
    std::fputs(report.table().c_str(), stdout);
    std::printf("\nverdict: %s\n", report.regression ? "REGRESSION" : "PASS");
    return report.regression ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);

    // Instrumentation options come out first so they work with any command
    // in any position.
    const std::string level_text = option(args, "--log-level", "");
    const std::string trace_path = option(args, "--trace", "");
    const std::string metrics_path = option(args, "--metrics", "");
    const std::string report_file = option(args, "--report", "");
    obs::RunReport run_report("dpma_cli");
    if (!report_file.empty()) {
        run_report.set_args(std::vector<std::string>(argv, argv + argc));
        g_run_report = &run_report;
    }
    if (!level_text.empty()) {
        obs::LogLevel level = obs::LogLevel::Warn;
        if (!obs::parse_log_level(level_text, &level)) {
            std::fprintf(stderr,
                         "dpma_cli: --log-level wants error|warn|info|debug, got '%s'\n",
                         level_text.c_str());
            return 2;
        }
        obs::set_log_level(level);
    }
    if (!trace_path.empty()) obs::set_tracing(true);

    if (args.size() < 2) usage();
    const std::string command = args[0];
    const std::string model_path = args[1];
    std::vector<std::string> rest(args.begin() + 2, args.end());

    const auto write_artifacts = [&] {
        try {
            if (!trace_path.empty()) write_output(trace_path, obs::trace_json());
            if (!metrics_path.empty()) write_output(metrics_path, obs::metrics_json());
            // Like the trace: the record of a failing run is the useful one.
            if (g_run_report != nullptr) g_run_report->write(report_file);
        } catch (const Error& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
        }
    };

    int status = 0;
    try {
        if (command == "info" && rest.empty()) {
            status = cmd_info(model_path);
        } else if (command == "dot" && rest.empty()) {
            status = cmd_dot(model_path);
        } else if (command == "lint") {
            status = cmd_lint(model_path, std::move(rest));
        } else if (command == "analyze") {
            status = cmd_analyze(model_path, std::move(rest));
        } else if (command == "check") {
            status = cmd_check(model_path, std::move(rest));
        } else if (command == "solve" && !rest.empty()) {
            const std::string measures_path = rest[0];
            rest.erase(rest.begin());
            status = cmd_solve(model_path, measures_path, std::move(rest));
        } else if (command == "simulate" && !rest.empty()) {
            const std::string measures_path = rest[0];
            rest.erase(rest.begin());
            status = cmd_simulate(model_path, measures_path, std::move(rest));
        } else if (command == "sweep" && !rest.empty()) {
            const std::string measures_path = rest[0];
            rest.erase(rest.begin());
            status = cmd_sweep(model_path, measures_path, std::move(rest));
        } else if (command == "lifetime") {
            status = cmd_lifetime(model_path, std::move(rest));
        } else if (command == "report" && !rest.empty()) {
            status = cmd_report(model_path, std::move(rest));
        } else {
            usage();
        }
    } catch (const ParseError& e) {
        std::fprintf(stderr, "parse error at %d:%d: %s\n", e.line(), e.column(),
                     e.what());
        status = 3;
    } catch (const ModelError& e) {
        if (e.line() > 0) {
            std::fprintf(stderr, "model error at %d:%d: %s\n", e.line(), e.column(),
                         e.what());
        } else {
            std::fprintf(stderr, "error: %s\n", e.what());
        }
        status = 4;
    } catch (const Error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        status = 4;
    }
    write_artifacts();
    return status;
}
