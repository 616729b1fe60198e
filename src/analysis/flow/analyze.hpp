#pragma once

/// \file analyze.hpp
/// Orchestrator of the dataflow / abstract-interpretation engine: lint
/// first, then the whole-model flow passes over the per-behaviour CFGs —
/// rate-literal scan, interval propagation, abstract composition
/// (dead-interaction / sync-deadlock), ergodicity precheck — and, when a
/// high/low configuration is supplied, the static DPM-transparency slice.
///
/// The flow passes run only on lint-*error*-free models: the CFG extractor
/// assumes resolved behaviours and arities.  Lint warnings do not block
/// them.  `dpma_cli analyze` is the front end; `check`, `solve` and `sweep`
/// run the same passes as an opt-in pre-pass (`--precheck`).

#include <optional>
#include <string_view>
#include <vector>

#include "adl/measure.hpp"
#include "adl/model.hpp"
#include "analysis/diag.hpp"
#include "analysis/lint.hpp"
#include "analysis/flow/transparency.hpp"

namespace dpma::analysis::flow {

struct AnalyzeOptions {
    /// When both are set, run the transparency slice after the flow passes.
    std::vector<std::string> high_labels;
    std::string low_instance;
};

struct AnalyzeResult {
    /// Lint pass (always runs).
    LintResult lint;
    /// Flow-pass diagnostics; empty when the lint pass found errors.
    std::vector<Diagnostic> flow;
    /// False when lint errors blocked the flow passes.
    bool flow_ran = false;
    /// Set iff high/low were configured and the flow passes ran.
    std::optional<TransparencyResult> transparency;

    /// Lint + flow diagnostics, lint first (both are span-ordered already).
    [[nodiscard]] std::vector<Diagnostic> all() const;
    [[nodiscard]] std::size_t error_count() const;
    /// No errors anywhere (warnings allowed).
    [[nodiscard]] bool ok() const { return error_count() == 0; }
    /// Not a single diagnostic of any severity.
    [[nodiscard]] bool clean() const {
        return lint.diagnostics.empty() && flow.empty();
    }
};

/// Runs the flow passes on an already-linted architecture (\p lint is moved
/// into the result).  Throws dpma::Error for malformed transparency
/// configuration (unknown instance, malformed label), mirroring the exact
/// checker.
[[nodiscard]] AnalyzeResult analyze_model(const adl::ArchiType& archi,
                                          std::string_view file, LintResult lint,
                                          const AnalyzeOptions& options = {});

/// Parses, lints and analyzes a specification (and optional measure file).
/// Parse failures surface as [parse-error] lint diagnostics, never throws.
[[nodiscard]] AnalyzeResult analyze_text(std::string_view spec_text,
                                         std::string_view spec_file,
                                         const AnalyzeOptions& options = {});

[[nodiscard]] AnalyzeResult analyze_text(std::string_view spec_text,
                                         std::string_view spec_file,
                                         std::string_view measures_text,
                                         std::string_view measures_file,
                                         const AnalyzeOptions& options = {});

}  // namespace dpma::analysis::flow
