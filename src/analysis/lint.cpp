#include "analysis/lint.hpp"

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "adl/compose.hpp"
#include "aemilia/parser.hpp"
#include "core/error.hpp"
#include "core/text.hpp"
#include "lts/rate.hpp"
#include "obs/trace.hpp"

namespace dpma::analysis {
namespace {

/// Per-instance bound for the local-LTS reachability checks; exceeding it
/// yields [analysis-incomplete], not an error.
constexpr std::size_t kMaxLocalStates = 20'000;

/// An occurrence that decides the timing of a synchronisation: exponential,
/// immediate and general rates are all "active" in the EMPA sense.
bool is_active(const lts::Rate& rate) noexcept {
    return lts::is_timed(rate) || lts::is_immediate(rate);
}

/// First occurrence of \p action in the behaviours of \p type satisfying
/// \p pred, or nullptr.
template <typename Pred>
const adl::Action* find_occurrence(const adl::ElemType& type, const std::string& action,
                                   Pred pred) {
    for (const adl::BehaviorDef& def : type.behaviors) {
        for (const adl::Alternative& alt : def.alternatives) {
            for (const adl::Action& act : alt.actions) {
                if (act.name == action && pred(act)) return &act;
            }
        }
    }
    return nullptr;
}

class Linter {
public:
    Linter(const adl::ArchiType& archi, std::string_view file, LintResult& result)
        : archi_(archi), file_(file), result_(result) {}

    void run() {
        check_elem_types();
        check_instances();
        check_attachments();
        check_usage();
        check_sync_rates();
        if (result_.error_count() == 0) check_reachability();
    }

private:
    [[nodiscard]] Span at(const SourceLoc& loc) const { return Span{file_, loc}; }

    Diagnostic& emit(Code code, std::string message, const SourceLoc& loc) {
        result_.diagnostics.push_back(
            Diagnostic{code_severity(code), code, std::move(message), at(loc), {}});
        return result_.diagnostics.back();
    }

    static void note(Diagnostic& diag, std::string message, const Span& span) {
        diag.notes.push_back(Note{std::move(message), span});
    }

    void note(Diagnostic& diag, std::string message, const SourceLoc& loc) const {
        note(diag, std::move(message), at(loc));
    }

    void note_in_type(Diagnostic& diag, const adl::ElemType& type) const {
        note(diag, "in element type '" + type.name + "'", type.loc);
    }

    // -- element types ----------------------------------------------------

    void check_elem_types() {
        std::map<std::string, SourceLoc> seen_types;
        for (const adl::ElemType& type : archi_.elem_types) {
            auto [it, inserted] = seen_types.emplace(type.name, type.loc);
            if (!inserted) {
                Diagnostic& d = emit(Code::DuplicateElemType,
                                     "element type '" + type.name + "' is defined twice",
                                     type.loc);
                note(d, "previous definition is here", it->second);
            }
            check_behaviors(type);
            check_interactions(type);
            check_reachable_behaviors(type);
        }
    }

    void check_behaviors(const adl::ElemType& type) {
        std::map<std::string, const adl::BehaviorDef*> by_name;
        for (const adl::BehaviorDef& def : type.behaviors) {
            auto [it, inserted] = by_name.emplace(def.name, &def);
            if (!inserted) {
                Diagnostic& d = emit(Code::DuplicateBehavior,
                                     "behaviour '" + def.name + "' is defined twice",
                                     def.loc);
                note(d, "previous definition is here", it->second->loc);
                note_in_type(d, type);
            }
        }
        for (const adl::BehaviorDef& def : type.behaviors) {
            for (const adl::Alternative& alt : def.alternatives) {
                const adl::BehaviorCall& call = alt.continuation;
                auto it = by_name.find(call.behavior);
                if (it == by_name.end()) {
                    Diagnostic& d = emit(Code::UndeclaredBehavior,
                                         "behaviour '" + def.name + "' invokes undeclared behaviour '" +
                                             call.behavior + "'",
                                         call.loc);
                    note_in_type(d, type);
                    continue;
                }
                const adl::BehaviorDef& target = *it->second;
                if (call.args.size() != target.params.size()) {
                    Diagnostic& d = emit(
                        Code::CallArityMismatch,
                        "behaviour '" + target.name + "' expects " +
                            std::to_string(target.params.size()) + " argument(s), got " +
                            std::to_string(call.args.size()),
                        call.loc);
                    note(d, "behaviour '" + target.name + "' is declared here", target.loc);
                }
            }
        }
    }

    void check_interactions(const adl::ElemType& type) {
        std::map<std::string, SourceLoc> seen;
        auto check_list = [&](const std::vector<std::string>& names, bool input) {
            for (std::size_t i = 0; i < names.size(); ++i) {
                const SourceLoc loc = input ? type.input_loc(i) : type.output_loc(i);
                auto [it, inserted] = seen.emplace(names[i], loc);
                if (!inserted) {
                    Diagnostic& d = emit(Code::DuplicateInteraction,
                                         "interaction '" + names[i] + "' is declared twice",
                                         loc);
                    note(d, "previous declaration is here", it->second);
                    note_in_type(d, type);
                }
            }
        };
        check_list(type.input_interactions, /*input=*/true);
        check_list(type.output_interactions, /*input=*/false);
    }

    /// BFS over the behaviour call graph from the initial behaviour; every
    /// equation never invoked is dead weight (and often a typo).
    void check_reachable_behaviors(const adl::ElemType& type) {
        if (type.behaviors.empty()) return;
        std::map<std::string, std::size_t> index;
        for (std::size_t i = 0; i < type.behaviors.size(); ++i)
            index.emplace(type.behaviors[i].name, i);
        std::vector<char> reached(type.behaviors.size(), 0);
        std::vector<std::size_t> queue{0};
        reached[0] = 1;
        while (!queue.empty()) {
            const adl::BehaviorDef& def = type.behaviors[queue.back()];
            queue.pop_back();
            for (const adl::Alternative& alt : def.alternatives) {
                auto it = index.find(alt.continuation.behavior);
                if (it == index.end() || reached[it->second]) continue;
                reached[it->second] = 1;
                queue.push_back(it->second);
            }
        }
        for (std::size_t i = 0; i < type.behaviors.size(); ++i) {
            if (reached[i]) continue;
            Diagnostic& d = emit(Code::UnreachableBehavior,
                                 "behaviour '" + type.behaviors[i].name +
                                     "' is never invoked from the initial behaviour '" +
                                     type.behaviors.front().name + "'",
                                 type.behaviors[i].loc);
            note_in_type(d, type);
        }
    }

    // -- instances ---------------------------------------------------------

    void check_instances() {
        std::map<std::string, SourceLoc> seen;
        for (const adl::Instance& inst : archi_.instances) {
            auto [it, inserted] = seen.emplace(inst.name, inst.loc);
            if (!inserted) {
                Diagnostic& d = emit(Code::DuplicateInstance,
                                     "instance '" + inst.name + "' is declared twice",
                                     inst.loc);
                note(d, "previous declaration is here", it->second);
            }
            const adl::ElemType* type = archi_.find_type(inst.type);
            if (type == nullptr) {
                emit(Code::UndeclaredElemType,
                     "instance '" + inst.name + "' has undeclared element type '" + inst.type +
                         "'",
                     inst.loc);
                continue;
            }
            const std::size_t params =
                type->behaviors.empty() ? 0 : type->behaviors.front().params.size();
            if (inst.args.size() != params) {
                Diagnostic& d = emit(Code::InstanceArityMismatch,
                                     "element type '" + inst.type + "' expects " +
                                         std::to_string(params) + " argument(s), got " +
                                         std::to_string(inst.args.size()),
                                     inst.loc);
                note_in_type(d, *type);
            }
        }
    }

    // -- attachments -------------------------------------------------------

    [[nodiscard]] static bool contains(const std::vector<std::string>& names,
                                       const std::string& name) {
        return std::find(names.begin(), names.end(), name) != names.end();
    }

    void check_attachments() {
        // UNI discipline: each (instance, port) endpoint may appear in at
        // most one attachment, on its declared side.
        std::map<std::pair<std::string, std::string>, SourceLoc> used_from;
        std::map<std::pair<std::string, std::string>, SourceLoc> used_to;
        for (const adl::Attachment& att : archi_.attachments) {
            const SourceLoc from_loc = att.from_loc.known() ? att.from_loc : att.loc;
            const SourceLoc to_loc = att.to_loc.known() ? att.to_loc : att.loc;
            const adl::Instance* from = archi_.find_instance(att.from_instance);
            const adl::Instance* to = archi_.find_instance(att.to_instance);
            if (from == nullptr) {
                emit(Code::UnknownAttachmentInstance,
                     "attachment references unknown instance '" + att.from_instance + "'",
                     from_loc);
            }
            if (to == nullptr) {
                emit(Code::UnknownAttachmentInstance,
                     "attachment references unknown instance '" + att.to_instance + "'",
                     to_loc);
            }
            if (from != nullptr) {
                const adl::ElemType* type = archi_.find_type(from->type);
                if (type != nullptr && !contains(type->output_interactions, att.from_port)) {
                    Diagnostic& d = emit(Code::AttachmentNotOutput,
                                         "'" + att.from_port +
                                             "' is not an output interaction of element type '" +
                                             type->name + "'",
                                         from_loc);
                    note_in_type(d, *type);
                }
            }
            if (to != nullptr) {
                const adl::ElemType* type = archi_.find_type(to->type);
                if (type != nullptr && !contains(type->input_interactions, att.to_port)) {
                    Diagnostic& d = emit(Code::AttachmentNotInput,
                                         "'" + att.to_port +
                                             "' is not an input interaction of element type '" +
                                             type->name + "'",
                                         to_loc);
                    note_in_type(d, *type);
                }
            }
            if (att.from_instance == att.to_instance && from != nullptr) {
                emit(Code::SelfAttachment,
                     "instance '" + att.from_instance +
                         "' is attached to itself; a sequential instance cannot synchronise "
                         "with itself",
                     att.loc);
            }
            if (from != nullptr) {
                auto key = std::make_pair(att.from_instance, att.from_port);
                auto [it, inserted] = used_from.emplace(key, from_loc);
                if (!inserted) {
                    Diagnostic& d = emit(Code::DuplicateAttachment,
                                         "output interaction '" + att.from_instance + "." +
                                             att.from_port +
                                             "' is attached more than once (UNI interactions "
                                             "allow a single attachment)",
                                         from_loc);
                    note(d, "previous attachment is here", it->second);
                }
            }
            if (to != nullptr) {
                auto key = std::make_pair(att.to_instance, att.to_port);
                auto [it, inserted] = used_to.emplace(key, to_loc);
                if (!inserted) {
                    Diagnostic& d = emit(Code::DuplicateAttachment,
                                         "input interaction '" + att.to_instance + "." +
                                             att.to_port +
                                             "' is attached more than once (UNI interactions "
                                             "allow a single attachment)",
                                         to_loc);
                    note(d, "previous attachment is here", it->second);
                }
            }
        }
    }

    // -- hygiene -----------------------------------------------------------

    void check_usage() {
        for (const adl::ElemType& type : archi_.elem_types) {
            const bool used = std::any_of(
                archi_.instances.begin(), archi_.instances.end(),
                [&](const adl::Instance& inst) { return inst.type == type.name; });
            if (!used) {
                emit(Code::UnusedElemType,
                     "element type '" + type.name + "' is never instantiated", type.loc);
            }
            auto check_list = [&](const std::vector<std::string>& names, bool input) {
                for (std::size_t i = 0; i < names.size(); ++i) {
                    const adl::Action* occ = find_occurrence(
                        type, names[i], [](const adl::Action&) { return true; });
                    if (occ == nullptr) {
                        Diagnostic& d = emit(
                            Code::UnusedInteraction,
                            "interaction '" + names[i] +
                                "' is declared but never occurs in the behaviours",
                            input ? type.input_loc(i) : type.output_loc(i));
                        note_in_type(d, type);
                    }
                }
            };
            check_list(type.input_interactions, /*input=*/true);
            check_list(type.output_interactions, /*input=*/false);
        }

        // An unattached interaction is blocked by compose(): legitimate as a
        // modelling device (restriction), but worth a warning because the
        // instance may silently lose behaviour.
        for (const adl::Instance& inst : archi_.instances) {
            const adl::ElemType* type = archi_.find_type(inst.type);
            if (type == nullptr) continue;
            auto attached = [&](const std::string& port, bool input) {
                for (const adl::Attachment& att : archi_.attachments) {
                    if (input && att.to_instance == inst.name && att.to_port == port)
                        return true;
                    if (!input && att.from_instance == inst.name && att.from_port == port)
                        return true;
                }
                return false;
            };
            auto check_list = [&](const std::vector<std::string>& names, bool input) {
                for (std::size_t i = 0; i < names.size(); ++i) {
                    if (attached(names[i], input)) continue;
                    Diagnostic& d = emit(
                        Code::UnattachedInteraction,
                        std::string(input ? "input" : "output") + " interaction '" + inst.name +
                            "." + names[i] + "' is not attached and will be blocked",
                        inst.loc);
                    note(d, "interaction '" + names[i] + "' is declared here",
                         input ? type->input_loc(i) : type->output_loc(i));
                }
            };
            check_list(type->input_interactions, /*input=*/true);
            check_list(type->output_interactions, /*input=*/false);
        }
    }

    // -- rate kinds on synchronisations -------------------------------------

    void check_sync_rates() {
        // sync-all-passive is only meaningful once the model carries timing
        // at all; a purely functional (all-passive/unspecified) model such as
        // the paper's untimed RPC spec is fine.
        bool timed = false;
        for (const adl::ElemType& type : archi_.elem_types) {
            for (const adl::BehaviorDef& def : type.behaviors) {
                for (const adl::Alternative& alt : def.alternatives) {
                    for (const adl::Action& act : alt.actions) {
                        if (is_active(act.rate)) timed = true;
                    }
                }
            }
        }

        for (const adl::Attachment& att : archi_.attachments) {
            const adl::Instance* from = archi_.find_instance(att.from_instance);
            const adl::Instance* to = archi_.find_instance(att.to_instance);
            if (from == nullptr || to == nullptr) continue;
            const adl::ElemType* from_type = archi_.find_type(from->type);
            const adl::ElemType* to_type = archi_.find_type(to->type);
            if (from_type == nullptr || to_type == nullptr) continue;

            const adl::Action* from_active = find_occurrence(
                *from_type, att.from_port, [](const adl::Action& a) { return is_active(a.rate); });
            const adl::Action* to_active = find_occurrence(
                *to_type, att.to_port, [](const adl::Action& a) { return is_active(a.rate); });
            if (from_active != nullptr && to_active != nullptr) {
                Diagnostic& d = emit(
                    Code::SyncTwoActive,
                    "synchronisation '" + att.from_instance + "." + att.from_port + "' -> '" +
                        att.to_instance + "." + att.to_port +
                        "' has two active parties; exactly one side must carry the rate",
                    att.loc);
                note(d, "active occurrence of '" + att.from_port + "' is here",
                     from_active->loc);
                note(d, "active occurrence of '" + att.to_port + "' is here", to_active->loc);
                continue;
            }

            if (!timed) continue;
            const adl::Action* from_any = find_occurrence(
                *from_type, att.from_port, [](const adl::Action&) { return true; });
            const adl::Action* to_any = find_occurrence(
                *to_type, att.to_port, [](const adl::Action&) { return true; });
            const adl::Action* from_nonpassive = find_occurrence(
                *from_type, att.from_port,
                [](const adl::Action& a) { return !lts::is_passive(a.rate); });
            const adl::Action* to_nonpassive = find_occurrence(
                *to_type, att.to_port,
                [](const adl::Action& a) { return !lts::is_passive(a.rate); });
            if (from_any != nullptr && to_any != nullptr && from_nonpassive == nullptr &&
                to_nonpassive == nullptr) {
                Diagnostic& d = emit(
                    Code::SyncAllPassive,
                    "synchronisation '" + att.from_instance + "." + att.from_port + "' -> '" +
                        att.to_instance + "." + att.to_port +
                        "' is passive on both sides in a timed model; no party decides its "
                        "timing",
                    att.loc);
                note(d, "passive occurrence of '" + att.from_port + "' is here", from_any->loc);
                note(d, "passive occurrence of '" + att.to_port + "' is here", to_any->loc);
            }
        }
    }

    // -- per-instance reachability (local LTS) -------------------------------

    void check_reachability() {
        lts::ActionTable actions;
        for (const adl::Instance& inst : archi_.instances) {
            const adl::ElemType* type = archi_.find_type(inst.type);
            if (type == nullptr || type->behaviors.empty()) continue;
            if (type->behaviors.front().params.size() != inst.args.size()) continue;
            adl::LocalLts local;
            try {
                local = adl::build_local_lts(*type, std::span<const long>(inst.args), actions,
                                             kMaxLocalStates);
            } catch (const Error& error) {
                Diagnostic& d = emit(Code::AnalysisIncomplete,
                                     "local reachability analysis of instance '" + inst.name +
                                         "' was aborted: " + error.what(),
                                     inst.loc);
                note_in_type(d, *type);
                continue;
            }
            check_local_deadlocks(inst, *type, local);
            check_immediate_cycles(inst, *type, local);
        }
    }

    void check_local_deadlocks(const adl::Instance& inst, const adl::ElemType& type,
                               const adl::LocalLts& local) {
        std::size_t dead = 0;
        std::size_t first = local.out.size();
        for (std::size_t s = 0; s < local.out.size(); ++s) {
            if (local.out[s].empty()) {
                if (dead == 0) first = s;
                ++dead;
            }
        }
        if (dead == 0) return;
        Diagnostic& d = emit(
            Code::LocalDeadlock,
            "instance '" + inst.name + "' can reach " + std::to_string(dead) +
                " local state(s) with no outgoing transitions, e.g. '" +
                (first < local.state_names.size() ? local.state_names[first] : "?") + "'",
            inst.loc);
        note_in_type(d, type);
    }

    /// A cycle of immediate transitions never lets time advance: the
    /// vanishing-state elimination of the Markovian phase would diverge.
    void check_immediate_cycles(const adl::Instance& inst, const adl::ElemType& type,
                                const adl::LocalLts& local) {
        enum : char { White, Grey, Black };
        std::vector<char> colour(local.out.size(), White);
        // Iterative DFS over the immediate-only subgraph.
        for (std::uint32_t root = 0; root < local.out.size(); ++root) {
            if (colour[root] != White) continue;
            std::vector<std::pair<std::uint32_t, std::size_t>> stack{{root, 0}};
            colour[root] = Grey;
            while (!stack.empty()) {
                const std::uint32_t state = stack.back().first;
                if (stack.back().second >= local.out[state].size()) {
                    colour[state] = Black;
                    stack.pop_back();
                    continue;
                }
                const adl::LocalLts::LocalTransition& tr =
                    local.out[state][stack.back().second++];
                if (!lts::is_immediate(tr.rate)) continue;
                if (colour[tr.target] == Grey) {
                    Diagnostic& d = emit(
                        Code::ImmediateCycle,
                        "instance '" + inst.name +
                            "' has a cycle of immediate actions through local state '" +
                            (tr.target < local.state_names.size() ? local.state_names[tr.target]
                                                                  : "?") +
                            "'; time can never advance there",
                        inst.loc);
                    note_in_type(d, type);
                    return;  // one report per instance is enough
                }
                if (colour[tr.target] == White) {
                    colour[tr.target] = Grey;
                    stack.emplace_back(tr.target, 0);
                }
            }
        }
    }

    const adl::ArchiType& archi_;
    std::string file_;
    LintResult& result_;
};

}  // namespace

std::size_t LintResult::error_count() const {
    return static_cast<std::size_t>(
        std::count_if(diagnostics.begin(), diagnostics.end(),
                      [](const Diagnostic& d) { return d.severity == Severity::Error; }));
}

std::size_t LintResult::warning_count() const {
    return static_cast<std::size_t>(
        std::count_if(diagnostics.begin(), diagnostics.end(),
                      [](const Diagnostic& d) { return d.severity == Severity::Warning; }));
}

LintResult lint_model(const adl::ArchiType& archi, std::string_view file) {
    DPMA_SPAN("analysis.lint", "analysis");
    LintResult result;
    Linter(archi, file, result).run();
    return result;
}

void lint_measures(const adl::ArchiType& archi, const std::vector<adl::Measure>& measures,
                   std::string_view measures_file, std::string_view spec_file,
                   LintResult& result) {
    auto at = [&](const SourceLoc& loc) { return Span{std::string(measures_file), loc}; };
    auto at_spec = [&](const SourceLoc& loc) { return Span{std::string(spec_file), loc}; };
    auto emit = [&](Code code, std::string message, const SourceLoc& loc) -> Diagnostic& {
        result.diagnostics.push_back(
            Diagnostic{code_severity(code), code, std::move(message), at(loc), {}});
        return result.diagnostics.back();
    };

    std::map<std::string, SourceLoc> seen;
    for (const adl::Measure& measure : measures) {
        auto [it, inserted] = seen.emplace(measure.name, measure.loc);
        if (!inserted) {
            Diagnostic& d = emit(Code::DuplicateMeasure,
                                 "measure '" + measure.name + "' is defined twice", measure.loc);
            d.notes.push_back(Note{"previous definition is here", at(it->second)});
        }
        for (const adl::RewardClause& clause : measure.clauses) {
            const std::string* instance_name = nullptr;
            if (const auto* enabled = std::get_if<adl::EnabledPredicate>(&clause.predicate)) {
                instance_name = &enabled->instance;
            } else if (const auto* in_state =
                           std::get_if<adl::InStatePredicate>(&clause.predicate)) {
                instance_name = &in_state->instance;
            }
            if (instance_name == nullptr) continue;
            const adl::Instance* inst = archi.find_instance(*instance_name);
            if (inst == nullptr) {
                emit(Code::UnknownMeasureInstance,
                     "measure '" + measure.name + "' references unknown instance '" +
                         *instance_name + "'",
                     clause.loc);
                continue;
            }
            const adl::ElemType* type = archi.find_type(inst->type);
            if (type == nullptr) continue;

            if (const auto* enabled = std::get_if<adl::EnabledPredicate>(&clause.predicate)) {
                const adl::Action* occ = find_occurrence(
                    *type, enabled->action, [](const adl::Action&) { return true; });
                if (occ == nullptr) {
                    Diagnostic& d = emit(Code::UnknownMeasureAction,
                                         "measure '" + measure.name + "' references action '" +
                                             enabled->action +
                                             "', which never occurs in the behaviours of "
                                             "element type '" +
                                             type->name + "'",
                                         clause.loc);
                    d.notes.push_back(Note{"element type '" + type->name + "' is defined here",
                                           at_spec(type->loc)});
                }
            } else if (const auto* in_state =
                           std::get_if<adl::InStatePredicate>(&clause.predicate)) {
                if (clause.target == adl::RewardClause::Target::Trans) {
                    emit(Code::InStateTransReward,
                         "measure '" + measure.name +
                             "': IN_STATE predicates select states, not transitions, and "
                             "cannot feed TRANS_REWARD",
                         clause.loc);
                }
                // Local state names are "Behaviour(arg, ...)": a prefix is
                // plausible iff it relates to some behaviour name of the type
                // by prefix in either direction.
                const bool matches = std::any_of(
                    type->behaviors.begin(), type->behaviors.end(),
                    [&](const adl::BehaviorDef& def) {
                        return starts_with(def.name, in_state->state_prefix) ||
                               starts_with(in_state->state_prefix, def.name);
                    });
                if (!matches) {
                    Diagnostic& d = emit(Code::UnknownMeasureState,
                                         "measure '" + measure.name +
                                             "' references state prefix '" +
                                             in_state->state_prefix +
                                             "', which matches no behaviour of element type '" +
                                             type->name + "'",
                                         clause.loc);
                    d.notes.push_back(Note{"element type '" + type->name + "' is defined here",
                                           at_spec(type->loc)});
                }
            }
        }
    }
}

LintResult lint_text(std::string_view spec_text, std::string_view spec_file,
                     std::string_view measures_text, std::string_view measures_file) {
    LintResult result;
    adl::ArchiType archi;
    try {
        archi = aemilia::parse_archi_type_unchecked(spec_text);
    } catch (const ParseError& error) {
        result.diagnostics.push_back(Diagnostic{
            Severity::Error, Code::ParseError, error.what(),
            Span{std::string(spec_file), SourceLoc{error.line(), error.column()}}, {}});
        return result;
    }
    result = lint_model(archi, spec_file);
    if (!measures_text.empty() || !measures_file.empty()) {
        try {
            const std::vector<adl::Measure> measures = aemilia::parse_measures(measures_text);
            lint_measures(archi, measures, measures_file, spec_file, result);
        } catch (const ParseError& error) {
            result.diagnostics.push_back(Diagnostic{
                Severity::Error, Code::ParseError, error.what(),
                Span{std::string(measures_file), SourceLoc{error.line(), error.column()}}, {}});
        }
    }
    return result;
}

LintResult lint_text(std::string_view spec_text, std::string_view spec_file) {
    return lint_text(spec_text, spec_file, /*measures_text=*/{}, /*measures_file=*/{});
}

}  // namespace dpma::analysis
