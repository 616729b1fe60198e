#include "noninterference/noninterference.hpp"

#include "adl/measure.hpp"
#include "bisim/equivalence.hpp"
#include "bisim/trace_equiv.hpp"
#include "core/error.hpp"
#include "obs/trace.hpp"

namespace dpma::noninterference {
namespace {

/// Builds the two observer views: (M with high ∪ non-low hidden) and
/// (M with high removed, non-low hidden).
struct Views {
    lts::Lts hidden;
    lts::Lts restricted;
};

Views make_views(const lts::Lts& system, const lts::ActionSet& high_actions,
                 const lts::ActionSet& low_actions) {
    DPMA_NAMED_SPAN(span, "noninterference.views", "noninterference");
    span.arg("states", static_cast<double>(system.num_states()));
    const auto& table = *system.actions();
    lts::ActionSet hide_lhs = high_actions;
    lts::ActionSet hide_rhs;
    for (Symbol a = 0; a < table.size(); ++a) {
        if (a == table.tau() || low_actions.contains(a)) continue;
        hide_lhs.insert(a);
        if (!high_actions.contains(a)) hide_rhs.insert(a);
    }
    return Views{
        lts::reachable_part(lts::hide(system, hide_lhs)),
        lts::reachable_part(
            lts::hide(lts::restrict_actions(system, high_actions), hide_rhs)),
    };
}

lts::ActionSet low_actions_of(const adl::ComposedModel& model,
                              const std::string& low_instance) {
    lts::ActionSet low;
    for (lts::ActionId a : adl::actions_of_instance(model, low_instance)) {
        low.insert(a);
    }
    // With no low action both views would hide everything and trivially
    // agree, so an unknown observer must not pass the check.
    if (low.empty()) {
        throw ModelError("low instance '" + low_instance + "' owns no action of the model");
    }
    return low;
}

lts::ActionSet high_actions_of(const adl::ComposedModel& model,
                               const std::vector<std::string>& high_labels) {
    const auto& table = *model.graph.actions();
    lts::ActionSet high;
    for (const std::string& label : high_labels) {
        const Symbol a = table.find(label);
        if (a == kNoSymbol) {
            throw ModelError("high label not present in the model: " + label);
        }
        high.insert(a);
    }
    return high;
}

Result run_check(const lts::Lts& hidden, const lts::Lts& restricted) {
    const bisim::EquivalenceResult eq = bisim::weakly_bisimilar(hidden, restricted);
    Result result;
    result.noninterfering = eq.equivalent;
    result.formula = eq.distinguishing;
    result.hidden_states = hidden.num_states();
    result.restricted_states = restricted.num_states();
    return result;
}

}  // namespace

Result check(const lts::Lts& system, const lts::ActionSet& high_actions) {
    const lts::Lts hidden = lts::reachable_part(lts::hide(system, high_actions));
    const lts::Lts restricted =
        lts::reachable_part(lts::restrict_actions(system, high_actions));
    return run_check(hidden, restricted);
}

Result check(const lts::Lts& system, const lts::ActionSet& high_actions,
             const lts::ActionSet& low_actions) {
    const Views views = make_views(system, high_actions, low_actions);
    return run_check(views.hidden, views.restricted);
}

Result check_dpm_transparency(const adl::ComposedModel& model,
                              const std::vector<std::string>& high_labels,
                              const std::string& low_instance) {
    return check(model.graph, high_actions_of(model, high_labels),
                 low_actions_of(model, low_instance));
}

TraceResult check_traces(const lts::Lts& system, const lts::ActionSet& high_actions,
                         const lts::ActionSet& low_actions) {
    const Views views = make_views(system, high_actions, low_actions);
    const bisim::TraceEquivalenceResult eq =
        bisim::weakly_trace_equivalent(views.hidden, views.restricted);
    TraceResult result;
    result.noninterfering = eq.equivalent;
    result.distinguishing_trace = eq.distinguishing_trace;
    return result;
}

TraceResult check_dpm_trace_transparency(const adl::ComposedModel& model,
                                         const std::vector<std::string>& high_labels,
                                         const std::string& low_instance) {
    return check_traces(model.graph, high_actions_of(model, high_labels),
                        low_actions_of(model, low_instance));
}

}  // namespace dpma::noninterference
