#include "noninterference/noninterference.hpp"

#include <algorithm>
#include <cstdint>

#include "adl/measure.hpp"
#include "bisim/equivalence.hpp"
#include "bisim/trace_equiv.hpp"
#include "core/error.hpp"
#include "obs/trace.hpp"

namespace dpma::noninterference {
namespace {

/// What an observer view does with the transitions of one action.
enum class Fate : std::uint8_t { Keep, Hide, Drop };

/// Per action id, its fate in the hidden view (M/High) and in the restricted
/// view (M\High).
struct Fates {
    std::vector<Fate> hidden;
    std::vector<Fate> restricted;
};

/// High actions are hidden in one view and dropped in the other; any other
/// action is hidden in both unless it is tau or in \p low (a null \p low
/// observes every action).
Fates fates_of(const lts::ActionTable& table, const lts::ActionSet& high,
               const lts::ActionSet* low) {
    Fates fates{std::vector<Fate>(table.size()), std::vector<Fate>(table.size())};
    for (Symbol a = 0; a < table.size(); ++a) {
        const bool observed = low == nullptr || a == table.tau() || low->contains(a);
        const Fate other = observed ? Fate::Keep : Fate::Hide;
        const bool is_high = high.contains(a);
        fates.hidden[a] = is_high ? Fate::Hide : other;
        fates.restricted[a] = is_high ? Fate::Drop : other;
    }
    return fates;
}

/// Appends to \p out the part of \p system reachable from its initial state
/// once every action meets its \p fate, by one breadth-first search; states
/// are numbered in discovery order after those already in \p out, so the
/// transitions arrive in source order.  \p id_of and \p order are scratch
/// arrays (one entry per state of \p system) shared by the two views.
/// Returns the root.
lts::StateId append_view(const lts::Lts& system, const std::vector<Fate>& fate,
                         lts::LtsBuilder& out, std::vector<lts::StateId>& id_of,
                         std::vector<lts::StateId>& order) {
    const lts::ActionId tau = system.actions()->tau();
    std::fill(id_of.begin(), id_of.end(), lts::kNoState);
    order.assign(1, system.initial());
    const lts::StateId root = out.add_state();
    id_of[system.initial()] = root;
    for (std::size_t next = 0; next < order.size(); ++next) {
        const auto from = static_cast<lts::StateId>(root + next);
        for (const lts::Transition& t : system.out(order[next])) {
            const Fate f = fate[t.action];
            if (f == Fate::Drop) continue;
            lts::StateId& to = id_of[t.target];
            if (to == lts::kNoState) {
                to = out.add_state();
                order.push_back(t.target);
            }
            out.add_transition(from, f == Fate::Hide ? tau : t.action, to);
        }
    }
    return root;
}

lts::UnionResult build_views(const lts::Lts& system, const Fates& fates) {
    DPMA_NAMED_SPAN(span, "noninterference.views", "noninterference");
    DPMA_REQUIRE(system.initial() != lts::kNoState, "observer views need a rooted system");
    lts::LtsBuilder out(system.actions());
    out.reserve_states(2 * system.num_states());
    out.reserve_transitions(2 * system.num_transitions());
    std::vector<lts::StateId> id_of(system.num_states());
    std::vector<lts::StateId> order;
    order.reserve(system.num_states());
    const lts::StateId hidden = append_view(system, fates.hidden, out, id_of, order);
    const lts::StateId restricted = append_view(system, fates.restricted, out, id_of, order);
    out.set_initial(hidden);
    lts::UnionResult views{std::move(out).build(), hidden, restricted};
    span.arg("states", static_cast<double>(system.num_states()));
    span.arg("states_out", static_cast<double>(views.combined.num_states()));
    span.arg("transitions_out", static_cast<double>(views.combined.num_transitions()));
    return views;
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

/// Runs \p decide on the observer views of \p system inside one
/// noninterference.check span: composed states in, view sizes out.
template <typename Decide>
auto on_views(const lts::Lts& system, const Fates& fates, Decide&& decide) {
    DPMA_NAMED_SPAN(span, "noninterference.check", "noninterference");
    const lts::UnionResult views = build_views(system, fates);
    span.arg("states", static_cast<double>(system.num_states()));
    span.arg("hidden", static_cast<double>(views.initial_rhs - views.initial_lhs));
    span.arg("restricted",
             static_cast<double>(views.combined.num_states() - views.initial_rhs));
    return decide(views);
}

Result weak_check(const lts::UnionResult& views) {
    const bisim::EquivalenceResult eq = bisim::weakly_bisimilar(views);
    return Result{eq.equivalent, eq.distinguishing, views.initial_rhs - views.initial_lhs,
                  views.combined.num_states() - views.initial_rhs};
}

}  // namespace

lts::UnionResult make_views(const lts::Lts& system, const lts::ActionSet& high_actions,
                            const lts::ActionSet& low_actions) {
    return build_views(system, fates_of(*system.actions(), high_actions, &low_actions));
}

Result check(const lts::Lts& system, const lts::ActionSet& high_actions) {
    return on_views(system, fates_of(*system.actions(), high_actions, nullptr), weak_check);
}

Result check(const lts::Lts& system, const lts::ActionSet& high_actions,
             const lts::ActionSet& low_actions) {
    return on_views(system, fates_of(*system.actions(), high_actions, &low_actions),
                    weak_check);
}

Result check_dpm_transparency(const adl::ComposedModel& model,
                              const std::vector<std::string>& high_labels,
                              const std::string& low_instance) {
    return check(model.graph, high_actions_of(model, high_labels),
                 low_actions_of(model, low_instance));
}

TraceResult check_traces(const lts::Lts& system, const lts::ActionSet& high_actions,
                         const lts::ActionSet& low_actions) {
    return on_views(system, fates_of(*system.actions(), high_actions, &low_actions),
                    [](const lts::UnionResult& views) {
                        const bisim::TraceEquivalenceResult eq =
                            bisim::weakly_trace_equivalent(views);
                        return TraceResult{eq.equivalent, eq.distinguishing_trace};
                    });
}

TraceResult check_dpm_trace_transparency(const adl::ComposedModel& model,
                                         const std::vector<std::string>& high_labels,
                                         const std::string& low_instance) {
    return check_traces(model.graph, high_actions_of(model, high_labels),
                        low_actions_of(model, low_instance));
}

}  // namespace dpma::noninterference
