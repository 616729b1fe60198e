#pragma once

/// \file lint.hpp
/// Semantic analysis ("lint") of Æmilia architectural descriptions and
/// measure files.  Unlike adl::validate — which throws on the *first*
/// problem — the linter collects every diagnostic it can find, each with a
/// file:line:column span, so a malformed model never reaches compose(), the
/// Markovian phase or the simulator.
///
/// Checks performed (codes in brackets; catalog in DESIGN.md):
///  * duplicate element types / behaviours / interactions / instances /
///    measures [duplicate-*]
///  * behaviour resolution and call/instance arities [undeclared-behavior,
///    call-arity-mismatch, undeclared-elem-type, instance-arity-mismatch]
///  * attachment well-formedness: known instances, declared output→input
///    ports, UNI single attachment, no self loops [unknown-attachment-
///    instance, attachment-not-output, attachment-not-input,
///    duplicate-attachment, self-attachment]
///  * rate-kind misuse on synchronisations — the situations that invalidate
///    the Markovian phase: two active parties [sync-two-active], an
///    always-passive synchronisation in a timed model [sync-all-passive],
///    local cycles of immediate actions that defeat vanishing-state
///    elimination [immediate-cycle]
///  * hygiene: unused element types and interactions, unattached (blocked)
///    interaction ports [unused-elem-type, unused-interaction,
///    unattached-interaction]
///  * reachability via the per-instance local LTS (adl::build_local_lts):
///    behaviour equations never invoked [unreachable-behavior] and local
///    states with no outgoing transitions [local-deadlock]; if the local
///    exploration is aborted (more than 20,000 local states, evaluation
///    error) the linter reports [analysis-incomplete] instead of guessing
///  * measure files: predicates must name existing instances, actions and
///    behaviour-state prefixes, and IN_STATE cannot feed TRANS_REWARD
///    [unknown-measure-*, in-state-trans-reward]
///
/// `dpma_cli lint` is the command-line front end; `dpma_cli check/solve/
/// simulate/sweep` run lint_text automatically before any analysis.

#include <string_view>
#include <vector>

#include "adl/measure.hpp"
#include "adl/model.hpp"
#include "analysis/diag.hpp"

namespace dpma::analysis {

struct LintResult {
    std::vector<Diagnostic> diagnostics;

    [[nodiscard]] std::size_t error_count() const;
    [[nodiscard]] std::size_t warning_count() const;
    /// No errors (warnings allowed): analysis may proceed.
    [[nodiscard]] bool ok() const { return error_count() == 0; }
    /// Not a single diagnostic of any severity.
    [[nodiscard]] bool clean() const { return diagnostics.empty(); }
};

/// Lints a parsed architectural type.  The AST may be unvalidated
/// (aemilia::parse_archi_type_unchecked) or even programmatic; \p file names
/// the originating file in every span (empty for string input).
[[nodiscard]] LintResult lint_model(const adl::ArchiType& archi,
                                    std::string_view file = {});

/// Appends measure-file diagnostics (predicates resolved against \p archi)
/// to \p result.  \p spec_file names the file \p archi came from; it is only
/// used for related notes pointing into the specification.
void lint_measures(const adl::ArchiType& archi,
                   const std::vector<adl::Measure>& measures,
                   std::string_view measures_file, std::string_view spec_file,
                   LintResult& result);

/// Parses and lints a specification and (optionally) a measure file.  Parse
/// failures are reported as [parse-error] diagnostics, never thrown: this is
/// the entry point both of `dpma_cli lint` and of the automatic pre-analysis
/// lint run by the other CLI commands.
[[nodiscard]] LintResult lint_text(std::string_view spec_text,
                                   std::string_view spec_file,
                                   std::string_view measures_text,
                                   std::string_view measures_file);

[[nodiscard]] LintResult lint_text(std::string_view spec_text,
                                   std::string_view spec_file);

}  // namespace dpma::analysis
