#include "analysis/flow/analyze.hpp"

#include <string>
#include <unordered_map>
#include <utility>

#include "aemilia/parser.hpp"
#include "analysis/flow/alphabet.hpp"
#include "analysis/flow/cfg.hpp"
#include "analysis/flow/interval.hpp"
#include "core/error.hpp"
#include "obs/trace.hpp"

namespace dpma::analysis::flow {

std::vector<Diagnostic> AnalyzeResult::all() const {
    std::vector<Diagnostic> merged = lint.diagnostics;
    merged.insert(merged.end(), flow.begin(), flow.end());
    return merged;
}

std::size_t AnalyzeResult::error_count() const {
    std::size_t count = lint.error_count();
    for (const Diagnostic& diagnostic : flow) {
        if (diagnostic.severity == Severity::Error) ++count;
    }
    return count;
}

AnalyzeResult analyze_model(const adl::ArchiType& archi, std::string_view file,
                            LintResult lint, const AnalyzeOptions& options) {
    DPMA_SPAN("analysis.flow", "analysis");
    AnalyzeResult result;
    result.lint = std::move(lint);
    if (!result.lint.ok()) return result;  // CFG extraction needs a resolved AST
    result.flow_ran = true;

    const std::string file_name(file);

    // One CFG per element type, shared by every instance of that type.
    std::unordered_map<const adl::ElemType*, Cfg> cfgs;
    std::vector<const Cfg*> cfg_of_instance;
    cfg_of_instance.reserve(archi.instances.size());
    for (const adl::Instance& instance : archi.instances) {
        const adl::ElemType* type = archi.find_type(instance.type);
        if (type == nullptr) {
            cfg_of_instance.push_back(nullptr);
            continue;
        }
        auto found = cfgs.find(type);
        if (found == cfgs.end()) {
            found = cfgs.emplace(type, build_cfg(*type)).first;
        }
        cfg_of_instance.push_back(&found->second);
    }

    check_rates(archi, file_name, result.flow);
    const IntervalResult intervals =
        analyze_intervals(archi, cfg_of_instance, file_name, result.flow);
    const AbstractComposition abstract_composition =
        analyze_alphabet(archi, cfg_of_instance, intervals, file_name, result.flow);
    check_ergodicity(archi, cfg_of_instance, abstract_composition, file_name,
                     result.flow);

    if (!options.high_labels.empty() && !options.low_instance.empty()) {
        result.transparency = analyze_transparency(
            archi, TransparencyOptions{options.high_labels, options.low_instance});
    }
    return result;
}

AnalyzeResult analyze_text(std::string_view spec_text, std::string_view spec_file,
                           std::string_view measures_text,
                           std::string_view measures_file,
                           const AnalyzeOptions& options) {
    adl::ArchiType archi;
    try {
        archi = aemilia::parse_archi_type_unchecked(spec_text);
    } catch (const ParseError& error) {
        AnalyzeResult result;
        result.lint.diagnostics.push_back(Diagnostic{
            Severity::Error, Code::ParseError, error.what(),
            Span{std::string(spec_file), SourceLoc{error.line(), error.column()}},
            {}});
        return result;
    }
    LintResult lint = lint_model(archi, spec_file);
    if (!measures_text.empty() || !measures_file.empty()) {
        try {
            const std::vector<adl::Measure> measures =
                aemilia::parse_measures(measures_text);
            lint_measures(archi, measures, measures_file, spec_file, lint);
        } catch (const ParseError& error) {
            lint.diagnostics.push_back(Diagnostic{
                Severity::Error, Code::ParseError, error.what(),
                Span{std::string(measures_file),
                     SourceLoc{error.line(), error.column()}},
                {}});
        }
    }
    return analyze_model(archi, spec_file, std::move(lint), options);
}

AnalyzeResult analyze_text(std::string_view spec_text, std::string_view spec_file,
                           const AnalyzeOptions& options) {
    return analyze_text(spec_text, spec_file, /*measures_text=*/{},
                        /*measures_file=*/{}, options);
}

}  // namespace dpma::analysis::flow
